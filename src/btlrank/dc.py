"""Divide-and-conquer estimators: overlap alignment, projected gradient
descent over subgraphs, and disjoint-community stitching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

from .estimators import (ConvergenceTrace, MleProblem, NonexistenceError,
                         SolverConfig, gradient, loss, solve_mle)
from .graphs import ComparisonGraph, GraphError, Partition, cross_edge_supergraph
from .laplacian import LaplacianOperator
from .model import ComparisonData, ScoreVector, sigmoid


@dataclass(frozen=True)
class LocalEstimates:
    """Per-subset score estimates, each in its own zero-sum gauge."""

    partition: Partition
    thetas: list[np.ndarray]  # thetas[a][k] scores partition.subsets[a][k]


@dataclass(frozen=True)
class AlignmentShifts:
    """Per-subset shift constants solved from the super-graph Laplacian."""

    shifts: np.ndarray
    operator: LaplacianOperator | None  # None when the partition has one subset


def _restrict(graph: ComparisonGraph, data: ComparisonData,
              nodes: np.ndarray) -> tuple[ComparisonGraph, ComparisonData]:
    """Subgraph on ``nodes`` with relabeled endpoints and restricted wins."""
    edges = graph.subgraph_edges(nodes)
    relabel = np.full(graph.n, -1, dtype=np.int64)
    relabel[nodes] = np.arange(len(nodes))
    sub = ComparisonGraph(n=len(nodes),
                          edge_i=relabel[graph.edge_i[edges]],
                          edge_j=relabel[graph.edge_j[edges]],
                          counts=graph.counts[edges])
    return sub, ComparisonData(graph=sub, wins=data.wins[edges])


def local_estimates(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
                    config: SolverConfig | None = None,
                    local_method: str = "mle") -> LocalEstimates:
    """Estimate scores independently on every subset's induced subgraph."""
    if local_method not in ("mle", "spectral"):
        raise GraphError(f"unknown local method {local_method!r}")
    thetas = []
    for a, nodes in enumerate(partition.subsets):
        sub, subdata = _restrict(graph, data, nodes)
        if local_method == "spectral":
            from .estimators import spectral_estimate

            # local blocks are small; scale the budget to the block instead
            # of the global default, which models the long-chain failure
            result = spectral_estimate(sub, subdata,
                                       max_iter=max(1000, 60 * sub.n))
            if result.failed:
                raise NonexistenceError(
                    f"local spectral estimate failed on subset {a}")
            thetas.append(result.theta.values)
            continue
        try:
            local_config = config or SolverConfig(method="precond_gd")
            scores, _ = solve_mle(MleProblem(sub, subdata), local_config)
        except NonexistenceError as exc:
            raise NonexistenceError(
                f"local MLE does not exist on subset {a}: {exc}",
                nodes=getattr(exc, "nodes", None)) from exc
        thetas.append(scores.values)
    return LocalEstimates(partition=partition, thetas=thetas)


def _shared_laplacian(partition: Partition, node_weights=None) -> LaplacianOperator:
    """Super-graph Laplacian: edge (a, b) weighs the node weights shared by a and b."""
    shared = partition.shared_weights(node_weights)
    op = LaplacianOperator(partition.m, shared.row, shared.col, shared.data)
    if not op.connected:
        raise GraphError("overlap super-graph is disconnected; alignment is ambiguous")
    return op


def _overlap_gaps(partition: Partition, values: list[np.ndarray]) -> np.ndarray:
    """x_a = sum over subsets b != a and nodes i shared by a and b of values_b[i] - values_a[i].

    With G = M^T V, where V holds values[a] on the rows of subset a,
    G[a, b] sums values_b over the nodes a and b share, so x = G 1 - G^T 1.
    """
    M = partition.membership
    V = csc_matrix((np.concatenate(values), M.indices, M.indptr), shape=M.shape)
    G = M.T @ V
    return np.asarray(G.sum(axis=1)).ravel() - np.asarray(G.sum(axis=0)).ravel()


def overlap_alignment(local: LocalEstimates) -> AlignmentShifts:
    """Shifts c = Ltilde^+ x from pairwise disagreements on shared nodes.

    Super-edge (a, b) carries weight |V_a intersect V_b|; x accumulates
    (theta_b[i] - theta_a[i]) over shared nodes into the (a, b) direction.
    """
    part = local.partition
    if part.m == 1:
        return AlignmentShifts(np.zeros(1), None)
    op = _shared_laplacian(part)
    c, report = op.solve_orthogonal(_overlap_gaps(part, local.thetas))
    if not report.converged:
        raise GraphError("alignment solve did not converge")
    return AlignmentShifts(c, op)


def merge_overlap(local: LocalEstimates, shifts: AlignmentShifts) -> ScoreVector:
    """theta_i = average over covering subsets of (local theta + subset shift)."""
    part = local.partition
    acc = np.zeros(part.n)
    for a, (subset, th) in enumerate(zip(part.subsets, local.thetas)):
        acc[subset] += th + shifts.shifts[a]
    return ScoreVector.zero_sum(acc / part.membership_counts())


def dc_overlap(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
               config: SolverConfig | None = None, local_method: str = "mle"
               ) -> tuple[ScoreVector, LocalEstimates, AlignmentShifts]:
    """Divide-and-conquer estimate over an overlapping partition."""
    if partition.mode != "overlapping":
        raise GraphError("dc_overlap needs an overlapping partition")
    local = local_estimates(graph, data, partition, config, local_method)
    shifts = overlap_alignment(local)
    return merge_overlap(local, shifts), local, shifts


def alignment_identity_residual(local: LocalEstimates, shifts: AlignmentShifts,
                                true_scores: ScoreVector) -> float:
    """Max-norm residual of the exact alignment-error decomposition.

    With local errors delta_a[i] = theta_a[i] - (theta*_i - mean_a theta*),
    the solved shifts satisfy
    c - c* = -(mean c*) 1 + Ltilde^+ sum_(a,b) sum_i (delta_b[i] - delta_a[i]) (e_a - e_b)
    up to solver precision; returns the deviation from that identity.
    """
    part = local.partition
    theta_star = true_scores.values
    c_star = np.array([theta_star[s].mean() for s in part.subsets])
    if part.m == 1:
        return float(abs(shifts.shifts[0] + c_star.mean() - c_star[0]))
    deltas = [th - (theta_star[s] - c_star[a])
              for a, (s, th) in enumerate(zip(part.subsets, local.thetas))]
    rhs, report = shifts.operator.solve_orthogonal(_overlap_gaps(part, deltas))
    if not report.converged:
        raise GraphError("identity solve did not converge")
    lhs = shifts.shifts - c_star
    rhs = rhs - c_star.mean()
    return float(np.abs(lhs - rhs).max())


def pgd_solve(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
              eta: float, max_iter: int = 500, theta0: np.ndarray | None = None,
              grad_tol_factor: float = 1e-8,
              reference: np.ndarray | None = None
              ) -> tuple[ScoreVector, ConvergenceTrace]:
    """Projected gradient descent over subgraphs of an overlapping partition.

    Shared edges get weight 1/coverage so the summed subgraph losses equal
    the full loss. Each iteration takes one gradient step per subgraph,
    re-aligns the subgraphs with shifts weighted by 1/s_i on shared nodes,
    and averages back to a single global vector. With one subset this is
    exactly vanilla gradient descent.
    """
    if partition.mode != "overlapping":
        raise GraphError("pgd needs an overlapping partition")
    m = partition.m
    s = partition.membership_counts().astype(np.float64)
    member = partition.membership.tocsr()
    # an edge lies inside a subset when its endpoints share a column of M
    inside = member[graph.edge_i].multiply(member[graph.edge_j]).sum(axis=1)
    if np.any(inside == 0):
        raise GraphError("partition subsets do not cover every edge")
    if m > 1:
        tilde = _shared_laplacian(partition, 1.0 / s)

    problem = MleProblem(graph, data)  # unweighted; summed subgraph losses match it
    theta = np.zeros(graph.n) if theta0 is None else np.array(theta0, dtype=np.float64)
    tol = grad_tol_factor * problem.total_samples
    trace = ConvergenceTrace(method="pgd")

    for t in range(max_iter + 1):
        g = gradient(problem, theta)
        gn = float(np.linalg.norm(g))
        if reference is not None:
            delta = (theta - theta.mean()) - (reference - reference.mean())
            trace.record(t, loss(problem, theta), gn, float(np.abs(delta).max()))
        else:
            trace.record(t, loss(problem, theta), gn, None)
        if not np.isfinite(gn):
            break
        if gn <= tol:
            trace.converged = True
            break
        if t == max_iter:
            break
        if m == 1:
            theta = theta - eta * g
            continue
        # Local steps share theta, so subsets a and b disagree on node i by
        # eta (g_a[i] - g_b[i]), with g_a the gradient of a's 1/coverage-weighted
        # loss. Summed with weights 1/s_i, the gap of subset a is
        # -eta sum_{i in a} (g[i] - s_i g_a[i]) / s_i = -eta (M^T (g / s))_a,
        # because the g_a sum to g and each g_a sums to zero over a.
        c, report = tilde.solve_orthogonal(-eta * (member.T @ (g / s)))
        if not report.converged:
            raise GraphError("pgd alignment solve did not converge")
        theta = theta - eta * g / s + (member @ c) / s

    return ScoreVector.zero_sum(theta), trace


def _cross_delta(counts: np.ndarray, base: np.ndarray, wins: np.ndarray,
                 tol: float = 1e-12) -> float:
    """Bisection root of the monotone cross-block score equation.

    Solves sum over cross edges of L * (sigmoid(base + delta) - y) = 0, with
    base = theta_a[i] - theta_b[j] and y the win fraction of i, the endpoint
    in block a. Unanimous cross data pushes the root to +-infinity, which
    means the stitched MLE does not exist.
    """
    total_wins = wins.sum()
    if total_wins == 0.0 or total_wins == counts.sum():
        raise NonexistenceError("unanimous cross-block outcomes; block offset diverges")

    def f(delta: float) -> float:
        return float((counts * sigmoid(base + delta)).sum() - total_wins)

    # f rises from -total_wins to counts.sum() - total_wins, so doubling
    # the bracket reaches a sign change
    lo, hi = -60.0, 60.0
    while f(lo) > 0:
        lo *= 2.0
    while f(hi) < 0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dc_community(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
                 config: SolverConfig | None = None,
                 weight_mode: str = "cross-edge-count",
                 local_method: str = "mle"
                 ) -> tuple[ScoreVector, LocalEstimates, AlignmentShifts]:
    """Divide-and-conquer estimate over a disjoint partition.

    Local estimates per block, a scalar offset per block pair from the
    cross edges, then global shifts from the super-graph Laplacian whose
    edge weights count cross edges ("cross-edge-count") or are all one
    ("unit").
    """
    if partition.mode != "disjoint":
        raise GraphError("dc_community needs a disjoint partition")
    if weight_mode not in ("unit", "cross-edge-count"):
        raise GraphError(f"unknown weight mode {weight_mode!r}")
    local = local_estimates(graph, data, partition, config, local_method)
    part = partition
    sg = cross_edge_supergraph(part, graph)
    if part.m > 1 and not sg.connected:
        raise GraphError("cross-edge super-graph is disconnected; alignment is ambiguous")
    if part.m == 1:
        shifts = AlignmentShifts(np.zeros(1), None)
        return merge_overlap(local, shifts), local, shifts
    theta = np.zeros(graph.n)
    label = np.zeros(graph.n, dtype=np.int64)
    for a, (nodes, th) in enumerate(zip(part.subsets, local.thetas)):
        theta[nodes] = th
        label[nodes] = a
    # orient every edge from the endpoint in the lower-numbered block
    flip = label[graph.edge_i] > label[graph.edge_j]
    d = theta[graph.edge_i] - theta[graph.edge_j]
    base = np.where(flip, -d, d)
    wins = np.where(flip, graph.counts - data.wins, data.wins)
    counts = graph.counts.astype(np.float64)
    deltas = np.array([_cross_delta(counts[e], base[e], wins[e]) for e in sg.payloads])
    if weight_mode == "cross-edge-count":
        weights = np.array([len(e) for e in sg.payloads], dtype=np.float64)
    else:
        weights = np.ones(len(sg.payloads))
    x = (np.bincount(sg.super_i, weights * deltas, part.m)
         - np.bincount(sg.super_j, weights * deltas, part.m))
    op = LaplacianOperator(part.m, sg.super_i, sg.super_j, weights)
    c, report = op.solve_orthogonal(x)
    if not report.converged:
        raise GraphError("community alignment solve did not converge")
    shifts = AlignmentShifts(c, op)
    return merge_overlap(local, shifts), local, shifts
