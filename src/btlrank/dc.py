"""Divide-and-conquer estimators: overlap alignment, projected gradient
descent over subgraphs, and disjoint-community stitching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

from .estimators import (ConvergenceTrace, MleProblem, NonexistenceError,
                         SolverConfig, descend, solve_mle)
from .graphs import ComparisonGraph, GraphError, Partition, cross_edge_supergraph
from .laplacian import LaplacianOperator
from .model import ComparisonData, ScoreVector, sigmoid_roots


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


def _restrict(graph: ComparisonGraph, data: ComparisonData, nodes: np.ndarray,
              edges: np.ndarray) -> tuple[ComparisonGraph, ComparisonData]:
    """Subgraph on sorted ``nodes`` and their ``edges``, with relabeled endpoints."""
    sub = ComparisonGraph(n=len(nodes),
                          edge_i=np.searchsorted(nodes, graph.edge_i[edges]),
                          edge_j=np.searchsorted(nodes, graph.edge_j[edges]),
                          counts=graph.counts[edges])
    return sub, ComparisonData(graph=sub, wins=data.wins[edges])


def local_estimates(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
                    config: SolverConfig | None = None,
                    local_method: str = "mle") -> LocalEstimates:
    """Estimate scores independently on every subset's induced subgraph."""
    if local_method not in ("mle", "spectral"):
        raise GraphError(f"unknown local method {local_method!r}")
    inside = partition.inside_edges(graph)
    thetas = []
    for a, nodes in enumerate(partition.subsets):
        edges = inside.indices[inside.indptr[a]:inside.indptr[a + 1]]
        sub, subdata = _restrict(graph, data, nodes, edges)
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
    if np.any(partition.inside_edges(graph).sum(axis=1) == 0):
        raise GraphError("partition subsets do not cover every edge")
    problem = MleProblem(graph, data)  # unweighted; summed subgraph losses match it
    if partition.m == 1:
        def step(theta, g):
            return theta - eta * g
    else:
        s = partition.membership_counts().astype(np.float64)
        member = partition.membership.tocsr()
        tilde = _shared_laplacian(partition, 1.0 / s)

        def step(theta, g):
            # Local steps share theta, so subsets a and b disagree on node i by
            # eta (g_a[i] - g_b[i]), with g_a the gradient of a's 1/coverage-weighted
            # loss. Summed with weights 1/s_i, the gap of subset a is
            # -eta sum_{i in a} (g[i] - s_i g_a[i]) / s_i = -eta (M^T (g / s))_a,
            # because the g_a sum to g and each g_a sums to zero over a.
            c, report = tilde.solve_orthogonal(-eta * (member.T @ (g / s)))
            if not report.converged:
                raise GraphError("pgd alignment solve did not converge")
            return theta - eta * g / s + (member @ c) / s

    return descend(problem, step, "pgd", max_iter, grad_tol_factor, theta0, reference)


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
    # one offset per super-edge k solves sum over its cross edges of
    # L * (sigmoid(base + delta_k) - y) = 0, with base = theta_a[i] - theta_b[j]
    # and y the win fraction of i, the endpoint in the lower-numbered block a
    edges = np.concatenate(sg.payloads)
    sizes = np.array([len(e) for e in sg.payloads])
    group = np.repeat(np.arange(len(sizes)), sizes)
    ei, ej = graph.edge_i[edges], graph.edge_j[edges]
    flip = label[ei] > label[ej]
    d = theta[ei] - theta[ej]
    base = np.where(flip, -d, d)
    counts = graph.counts[edges].astype(np.float64)
    wins = np.bincount(group, np.where(flip, counts - data.wins[edges], data.wins[edges]))
    total = np.bincount(group, counts)
    if np.any((wins == 0.0) | (wins == total)):
        raise NonexistenceError("unanimous cross-block outcomes; block offset diverges")
    deltas = sigmoid_roots(group, counts, base, wins, len(sizes))
    weights = sizes.astype(np.float64) if weight_mode == "cross-edge-count" else np.ones(len(sizes))
    x = (np.bincount(sg.super_i, weights * deltas, part.m)
         - np.bincount(sg.super_j, weights * deltas, part.m))
    op = LaplacianOperator(part.m, sg.super_i, sg.super_j, weights)
    c, report = op.solve_orthogonal(x)
    if not report.converged:
        raise GraphError("community alignment solve did not converge")
    shifts = AlignmentShifts(c, op)
    return merge_overlap(local, shifts), local, shifts
