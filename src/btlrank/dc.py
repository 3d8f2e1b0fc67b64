"""Divide-and-conquer estimators: overlap alignment, projected gradient
descent over subgraphs, and disjoint-community stitching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import MleProblem, NonexistenceError, SolverConfig, solve_mle, _why_no_mle
from .graphs import ComparisonGraph, GraphError, Partition
from .laplacian import LaplacianOperator
from .model import (ComparisonData, ScoreVector, SolverError, _node_scores, _require_own_graph,
                    sigmoid_roots)


@dataclass(frozen=True)
class LocalEstimates:
    """Per-subset score estimates, each in its own zero-sum gauge, in one vector in
    ``partition.membership`` order: values[indptr[a] + k] scores subsets[a][k]."""

    partition: Partition
    values: np.ndarray


def _union(graph: ComparisonGraph, data: ComparisonData, partition: Partition) -> MleProblem:
    """Every subset's induced subgraph side by side in one problem with blocks.

    Node k of subset a becomes node offset_a + k, with the offsets
    ``partition.membership.indptr``, and block label a. The edges of
    subset a keep the order of ``partition.inside_edges``.
    """
    edges, at_i, at_j = partition.inside_edges(graph)
    union = ComparisonGraph(n=partition.membership.nnz, edge_i=at_i, edge_j=at_j,
                            counts=graph.counts[edges])
    return MleProblem(union, ComparisonData(union, data.wins[edges]), blocks=partition.entry_subset)


def _subset_means(partition: Partition, values: np.ndarray) -> np.ndarray:
    """The mean of each subset's slice of a vector in ``partition.membership`` order."""
    indptr = partition.membership.indptr
    return np.add.reduceat(values, indptr[:-1]) / np.diff(indptr)


def local_estimates(graph: ComparisonGraph, data: ComparisonData, partition: Partition
                    ) -> LocalEstimates:
    """Estimate scores independently on every subset's induced subgraph.

    The local MLEs are one precond_gd solve of the subsets' union (see
    ``_union``): each block keeps its own existence test, its own stop
    test and the 500-iteration cap. A block that does not converge
    raises SolverError; a block whose MLE does not exist raises
    NonexistenceError with a violating set of nodes of ``graph`` and the
    block's subset index in ``subsets``.
    """
    _require_own_graph(graph, data)
    problem = _union(graph, data, partition)
    try:
        scores, trace = solve_mle(problem, SolverConfig(method="precond_gd"))
    except NonexistenceError as exc:
        nodes = partition.membership.indices[exc.nodes]
        subset = int(problem.blocks[exc.nodes[0]])
        raise NonexistenceError(
            f"local MLE does not exist on subset {subset}: nodes "
            f"{nodes.tolist()} {_why_no_mle(problem.graph, exc.nodes, 'subset')}",
            nodes=nodes, subsets=(subset,)) from exc
    if not trace.converged:
        capped = np.flatnonzero(trace.block_stop_iter < 0).tolist()
        raise SolverError(f"local MLE did not converge on subsets {capped} "
                          f"within {trace.iterations[-1]} iterations")
    centred = scores.values - _subset_means(partition, scores.values)[partition.entry_subset]
    return LocalEstimates(partition=partition, values=centred)


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


def _overlap_gaps(partition: Partition, values: np.ndarray) -> np.ndarray:
    """x_a = sum over subsets b != a and nodes i shared by a and b of values_b[i] - values_a[i].

    Node i of a meets each of the other s_i - 1 subsets holding it once, so with
    T_i = sum over b holding i of values_b[i], x_a = sum over i in a of T_i - s_i values_a[i].
    """
    nodes = partition.membership.indices
    total = np.bincount(nodes, values, partition.n)
    s = partition.membership_counts()
    return np.bincount(partition.entry_subset, total[nodes] - s[nodes] * values, partition.m)


def overlap_alignment(local: LocalEstimates) -> np.ndarray:
    """Shifts c = Ltilde^+ x from pairwise disagreements on shared nodes, one per subset.

    Super-edge (a, b) carries weight |V_a intersect V_b|; x accumulates
    (theta_b[i] - theta_a[i]) over shared nodes into the (a, b) direction.
    """
    part = local.partition
    return _shared_laplacian(part).solve_orthogonal(_overlap_gaps(part, local.values))[0]


def merge_overlap(local: LocalEstimates, shifts: np.ndarray) -> ScoreVector:
    """theta_i = average over covering subsets of (local theta + subset shift)."""
    part = local.partition
    shifted = local.values + shifts[part.entry_subset]
    acc = np.bincount(part.membership.indices, shifted, part.n)
    return ScoreVector.zero_sum(acc / part.membership_counts())


def dc_overlap(graph: ComparisonGraph, data: ComparisonData, partition: Partition
               ) -> tuple[ScoreVector, LocalEstimates, np.ndarray]:
    """Divide-and-conquer estimate over an overlapping partition."""
    local = local_estimates(graph, data, partition)
    shifts = overlap_alignment(local)
    return merge_overlap(local, shifts), local, shifts


def alignment_identity_residual(local: LocalEstimates, shifts: np.ndarray,
                                true_scores: ScoreVector) -> float:
    """Max-norm residual of the exact alignment-error decomposition.

    With local errors delta_a[i] = theta_a[i] - (theta*_i - mean_a theta*),
    the solved shifts satisfy
    c - c* = -(mean c*) 1 + Ltilde^+ sum_(a,b) sum_i (delta_b[i] - delta_a[i]) (e_a - e_b)
    up to solver precision; returns the deviation from that identity.

    It checks one thing: that the shifts solve the super-graph Laplacian that
    matches the gaps x, the shared-node Ltilde, which it rebuilds from the
    partition. As x(delta) = x(theta) - Ltilde c*, c* then cancels, so
    any score vector in place of the truth reads the same residual up to rounding.
    """
    part = local.partition
    star = _node_scores(true_scores.values, part.n)[part.membership.indices]
    c_star = _subset_means(part, star)
    deltas = local.values - (star - c_star[part.entry_subset])
    rhs = _shared_laplacian(part).solve_orthogonal(_overlap_gaps(part, deltas))[0]
    return float(np.abs((shifts - c_star) - (rhs - c_star.mean())).max())


def pgd_step(problem: MleProblem, partition: Partition, eta: float):
    """The step of projected gradient descent over subgraphs of an overlapping partition.

    Shared edges get weight 1/coverage so the summed subgraph losses equal
    the loss of ``problem``. Each iteration takes one gradient step per
    subgraph, re-aligns the subgraphs with shifts weighted by 1/s_i on
    shared nodes, and averages back to a single global vector. With one
    subset this is exactly vanilla gradient descent: the one-node
    alignment solve returns 0.
    """
    graph = problem.graph
    if not np.bincount(partition.inside_edges(graph)[0], minlength=graph.num_edges).all():
        raise GraphError("partition subsets do not cover every edge")
    s = partition.membership_counts().astype(np.float64)
    member = partition.membership
    member_t = member.T  # a CSR view of the CSC arrays, made once rather than every step
    tilde = _shared_laplacian(partition, 1.0 / s)

    def step(theta, g):
        # Local steps share theta, so subsets a and b disagree on node i by
        # eta (g_a[i] - g_b[i]), with g_a the gradient of a's 1/coverage-weighted
        # loss. Summed with weights 1/s_i, the gap of subset a is
        # -eta sum_{i in a} (g[i] - s_i g_a[i]) / s_i = -eta (M^T (g / s))_a,
        # because the g_a sum to g and each g_a sums to zero over a.
        c = tilde.solve_orthogonal(-eta * (member_t @ (g / s)))[0]
        return theta - eta * g / s + (member @ c) / s

    return step


def dc_community(graph: ComparisonGraph, data: ComparisonData, partition: Partition
                 ) -> tuple[ScoreVector, LocalEstimates, np.ndarray]:
    """Divide-and-conquer estimate over a disjoint partition.

    Local estimates per block, a scalar offset per block pair from the
    cross edges, then global shifts from the super-graph Laplacian whose
    edge weights count cross edges. A block pair whose cross comparisons
    all went one way has no finite offset: NonexistenceError names the
    first such pair in row-major order, also as ``subsets``.
    """
    # the super-graph comes first: an overlapping or unconnected partition fails before any solve
    edges, group, sup = partition.cross_edges(graph)
    weights = sup.data.astype(np.float64)
    op = _super_laplacian(partition.m, sup.row, sup.col, weights, "cross-edge")
    local = local_estimates(graph, data, partition)
    # each node lies in one block, so the one entry of its membership row is its local score
    theta = np.bincount(partition.membership.indices, local.values, graph.n)
    # one offset per super-edge k solves sum over its cross edges of
    # L * (sigmoid(base + delta_k) - y) = 0, with base = theta_a[i] - theta_b[j]
    # and y the win fraction of i, the endpoint in the lower-numbered block a
    ei, ej = graph.edge_i[edges], graph.edge_j[edges]
    flip = partition.node_subset[ei] > partition.node_subset[ej]
    d = theta[ei] - theta[ej]
    base = np.where(flip, -d, d)
    counts = graph.counts[edges].astype(np.float64)
    wins = np.bincount(group, np.where(flip, counts - data.wins[edges], data.wins[edges]))
    total = np.bincount(group, counts)
    unanimous = np.flatnonzero((wins == 0.0) | (wins == total))
    if len(unanimous):
        a, b = int(sup.row[unanimous[0]]), int(sup.col[unanimous[0]])
        raise NonexistenceError(f"unanimous cross-block outcomes between blocks {a} and {b}; "
                                "block offset diverges", subsets=(a, b))
    deltas = sigmoid_roots(group, counts, base, wins, sup.nnz)
    x = (np.bincount(sup.row, weights * deltas, partition.m)
         - np.bincount(sup.col, weights * deltas, partition.m))
    shifts = op.solve_orthogonal(x)[0]
    return merge_overlap(local, shifts), local, shifts
