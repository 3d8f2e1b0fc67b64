"""Divide-and-conquer estimators: overlap alignment, projected gradient
descent over subgraphs, and disjoint-community stitching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

from .estimators import (ConvergenceTrace, MleProblem, NonexistenceError,
                         SolverConfig, descend, solve_mle, spectral_estimate)
from .graphs import ComparisonGraph, GraphError, Partition
from .laplacian import LaplacianOperator
from .model import ComparisonData, ScoreVector, SolverError, sigmoid_roots


@dataclass(frozen=True)
class LocalEstimates:
    """Per-subset score estimates, each in its own zero-sum gauge."""

    partition: Partition
    thetas: list[np.ndarray]  # thetas[a][k] scores partition.subsets[a][k]


@dataclass(frozen=True)
class AlignmentShifts:
    """Per-subset shift constants solved from the super-graph Laplacian."""

    shifts: np.ndarray
    operator: LaplacianOperator  # the super-graph Laplacian; one node for one subset


def _union(graph: ComparisonGraph, data: ComparisonData, partition: Partition
           ) -> tuple[MleProblem, np.ndarray]:
    """Every subset's induced subgraph side by side in one problem with blocks.

    Node k of subset a becomes node offset_a + k, with the offsets
    ``partition.membership.indptr``, and block label a. The edges of
    subset a keep the order of ``partition.inside_edges`` and become the
    union edges edge_ptr[a]:edge_ptr[a + 1]; returns the problem and edge_ptr.
    """
    member = partition.membership
    inside = partition.inside_edges(graph)
    edges = inside.indices
    blocks = np.repeat(np.arange(partition.m), np.diff(member.indptr))
    edge_block = np.repeat(np.arange(partition.m), np.diff(inside.indptr))
    # the subsets are sorted, so the keys a * n + i of the union nodes are too
    keys = blocks * graph.n + member.indices
    union = ComparisonGraph(n=len(keys),
                            edge_i=np.searchsorted(keys, edge_block * graph.n + graph.edge_i[edges]),
                            edge_j=np.searchsorted(keys, edge_block * graph.n + graph.edge_j[edges]),
                            counts=graph.counts[edges])
    problem = MleProblem(union, ComparisonData(union, data.wins[edges]), blocks=blocks)
    return problem, inside.indptr


def _local_spectral(problem: MleProblem, offsets: np.ndarray, edge_ptr: np.ndarray,
                    a: int) -> np.ndarray:
    """Spectral estimate on block a of the union problem."""
    lo, hi = offsets[a], offsets[a + 1]
    edges = slice(edge_ptr[a], edge_ptr[a + 1])
    g = problem.graph
    sub = ComparisonGraph(n=hi - lo, edge_i=g.edge_i[edges] - lo, edge_j=g.edge_j[edges] - lo,
                          counts=g.counts[edges])
    # local blocks are small; scale the budget to the block instead
    # of the global default, which models the long-chain failure
    result = spectral_estimate(sub, ComparisonData(sub, problem.data.wins[edges]),
                               max_iter=max(1000, 60 * sub.n))
    if result.failed:
        raise NonexistenceError(f"local spectral estimate failed on subset {a}")
    return result.theta.values


def local_estimates(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
                    local_method: str = "mle") -> LocalEstimates:
    """Estimate scores independently on every subset's induced subgraph.

    The local MLEs are one precond_gd solve of the subsets' union (see
    ``_union``): each block keeps its own existence test, its own stop
    test and the 500-iteration cap. A block that does not converge
    raises SolverError; a block whose MLE does not exist raises
    NonexistenceError with a violating set of nodes of ``graph``.
    """
    if local_method not in ("mle", "spectral"):
        raise GraphError(f"unknown local method {local_method!r}")
    problem, edge_ptr = _union(graph, data, partition)
    member = partition.membership
    if local_method == "spectral":
        return LocalEstimates(partition, [_local_spectral(problem, member.indptr, edge_ptr, a)
                                          for a in range(partition.m)])
    try:
        scores, trace = solve_mle(problem, SolverConfig(method="precond_gd"))
    except NonexistenceError as exc:
        nodes = member.indices[exc.nodes]
        raise NonexistenceError(
            f"local MLE does not exist on subset {problem.blocks[exc.nodes[0]]}: nodes "
            f"{nodes.tolist()} never recorded a win over their complement", nodes=nodes) from exc
    if not trace.converged:
        raise SolverError(
            f"local MLE did not converge on subsets {np.flatnonzero(~trace.block_converged).tolist()} "
            f"within {trace.iterations[-1]} iterations")
    thetas = np.split(scores.values, member.indptr[1:-1])
    return LocalEstimates(partition=partition, thetas=[th - th.mean() for th in thetas])


def _super_laplacian(m: int, super_i, super_j, weights, what: str) -> LaplacianOperator:
    """Laplacian of a super-graph on m subsets; it must be connected to fix the shifts."""
    op = LaplacianOperator(m, super_i, super_j, weights)
    if not op.connected:
        raise GraphError(f"{what} super-graph is disconnected; alignment is ambiguous")
    return op


def _shared_laplacian(partition: Partition, node_weights=None) -> LaplacianOperator:
    """Super-graph Laplacian: edge (a, b) weighs the node weights shared by a and b."""
    shared = partition.shared_weights(node_weights)
    return _super_laplacian(partition.m, shared.row, shared.col, shared.data, "overlap")


def _shifts(op: LaplacianOperator, gaps: np.ndarray, what: str) -> np.ndarray:
    """Shifts c = op^+ gaps, orthogonal to the ones vector."""
    c, report = op.solve_orthogonal(gaps)
    if not report.converged:
        raise GraphError(f"{what} solve did not converge ({report})")
    return c


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
    op = _shared_laplacian(part)
    return AlignmentShifts(_shifts(op, _overlap_gaps(part, local.thetas), "alignment"), op)


def merge_overlap(local: LocalEstimates, shifts: AlignmentShifts) -> ScoreVector:
    """theta_i = average over covering subsets of (local theta + subset shift)."""
    part = local.partition
    M = part.membership
    shifted = np.concatenate(local.thetas) + np.repeat(shifts.shifts, np.diff(M.indptr))
    acc = np.bincount(M.indices, shifted, part.n)
    return ScoreVector.zero_sum(acc / part.membership_counts())


def dc_overlap(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
               local_method: str = "mle") -> tuple[ScoreVector, LocalEstimates, AlignmentShifts]:
    """Divide-and-conquer estimate over an overlapping partition."""
    if partition.mode != "overlapping":
        raise GraphError("dc_overlap needs an overlapping partition")
    local = local_estimates(graph, data, partition, local_method)
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
    deltas = [th - (theta_star[s] - c_star[a])
              for a, (s, th) in enumerate(zip(part.subsets, local.thetas))]
    rhs = _shifts(shifts.operator, _overlap_gaps(part, deltas), "identity")
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
    exactly vanilla gradient descent: the one-node alignment solve returns 0.
    """
    if partition.mode != "overlapping":
        raise GraphError("pgd needs an overlapping partition")
    if np.any(partition.inside_edges(graph).sum(axis=1) == 0):
        raise GraphError("partition subsets do not cover every edge")
    problem = MleProblem(graph, data)  # unweighted; summed subgraph losses match it
    s = partition.membership_counts().astype(np.float64)
    member = partition.membership.tocsr()
    tilde = _shared_laplacian(partition, 1.0 / s)

    def step(theta, g):
        # Local steps share theta, so subsets a and b disagree on node i by
        # eta (g_a[i] - g_b[i]), with g_a the gradient of a's 1/coverage-weighted
        # loss. Summed with weights 1/s_i, the gap of subset a is
        # -eta sum_{i in a} (g[i] - s_i g_a[i]) / s_i = -eta (M^T (g / s))_a,
        # because the g_a sum to g and each g_a sums to zero over a.
        c = _shifts(tilde, -eta * (member.T @ (g / s)), "pgd alignment")
        return theta - eta * g / s + (member @ c) / s

    return descend(problem, step, "pgd", max_iter, grad_tol_factor, theta0, reference)


def dc_community(graph: ComparisonGraph, data: ComparisonData, partition: Partition,
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
    local = local_estimates(graph, data, partition, local_method)
    edges, group, sup = partition.cross_edges(graph)
    weights = sup.data.astype(np.float64) if weight_mode == "cross-edge-count" else np.ones(sup.nnz)
    op = _super_laplacian(partition.m, sup.row, sup.col, weights, "cross-edge")
    M = partition.membership
    # each node lies in one block: its local score, and its block as the one entry of its row
    theta = np.bincount(M.indices, np.concatenate(local.thetas), graph.n)
    label = M.tocsr().indices
    # one offset per super-edge k solves sum over its cross edges of
    # L * (sigmoid(base + delta_k) - y) = 0, with base = theta_a[i] - theta_b[j]
    # and y the win fraction of i, the endpoint in the lower-numbered block a
    ei, ej = graph.edge_i[edges], graph.edge_j[edges]
    flip = label[ei] > label[ej]
    d = theta[ei] - theta[ej]
    base = np.where(flip, -d, d)
    counts = graph.counts[edges].astype(np.float64)
    wins = np.bincount(group, np.where(flip, counts - data.wins[edges], data.wins[edges]))
    total = np.bincount(group, counts)
    if np.any((wins == 0.0) | (wins == total)):
        raise NonexistenceError("unanimous cross-block outcomes; block offset diverges")
    deltas = sigmoid_roots(group, counts, base, wins, sup.nnz)
    x = (np.bincount(sup.row, weights * deltas, partition.m)
         - np.bincount(sup.col, weights * deltas, partition.m))
    shifts = AlignmentShifts(_shifts(op, x, "community alignment"), op)
    return merge_overlap(local, shifts), local, shifts
