"""Divide-and-conquer estimators and projected gradient descent."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from btlrank import (ComparisonData, ComparisonGraph, GraphError, GridSpec, LaplacianOperator,
                     MleProblem, NonexistenceError, Partition, ScoreVector, SolveReport,
                     SolverConfig, SolverError,
                     alignment_identity_residual, dc_community, dc_overlap,
                     error_report, exact_comparisons, generate_grid,
                     generate_special, gradient, grid_partition, local_estimates,
                     locality_bound, loss, make_scores, merge_overlap,
                     overlap_alignment, partition_grid, pgd_solve,
                     sample_comparisons, sigmoid, solve_mle)
from graph_helpers import edge_index_map, subgraph_edges


def grid_instance(seed, n=96, r=8, p=0.7, L=40, kind="grid1d",
                  score_kind="sine"):
    rng = np.random.default_rng(seed)
    spec = GridSpec(kind=kind, n=n, r=r, p=p)
    graph = generate_grid(spec, L=L, rng=rng)
    truth = make_scores(score_kind, n, r)
    data = sample_comparisons(graph, truth, rng)
    return spec, graph, truth, data


def test_local_estimates_respect_subsets():
    spec, graph, truth, data = grid_instance(1)
    part, _ = partition_grid(graph, spec, "overlapping")
    local = local_estimates(graph, data, part)
    assert len(local.thetas) == part.m
    for subset, th in zip(part.subsets, local.thetas):
        assert len(th) == len(subset)
        assert abs(th.sum()) <= 1e-8 * len(th)


def test_dc_overlap_tracks_global_mle():
    spec, graph, truth, data = grid_instance(2)
    part, _ = partition_grid(graph, spec, "overlapping")
    merged, local, shifts = dc_overlap(graph, data, part)
    mle, _ = solve_mle(MleProblem(graph, data))
    e_dc = error_report(merged, truth).linf
    e_mle = error_report(mle, truth).linf
    assert e_dc <= 2.0 * e_mle + 0.05
    assert error_report(merged, mle).linf <= 0.5 * e_mle + 0.05


def test_dc_overlap_needs_overlapping_mode():
    spec, graph, truth, data = grid_instance(3)
    part, _ = partition_grid(graph, spec, "disjoint")
    with pytest.raises(GraphError):
        dc_overlap(graph, data, part)


def test_alignment_identity_residual_small():
    # the shift-error decomposition is an exact identity, so the residual
    # is solver precision, far below any statistical error
    for seed in range(6):
        spec, graph, truth, data = grid_instance(10 + seed)
        part, _ = partition_grid(graph, spec, "overlapping")
        _, local, shifts = dc_overlap(graph, data, part)
        assert alignment_identity_residual(local, shifts, truth) <= 1e-8


def test_merge_overlap_single_subset_identity():
    spec, graph, truth, data = grid_instance(4, n=24, r=6)
    part = Partition(subsets=[np.arange(24)], mode="overlapping", n=24)
    local = local_estimates(graph, data, part)
    shifts = overlap_alignment(local)
    merged = merge_overlap(local, shifts)
    direct, _ = solve_mle(MleProblem(graph, data))
    assert error_report(merged, direct).linf <= 1e-6


def test_alignment_identity_residual_single_window():
    # one window: the one-node super-graph solves both sides of the identity to 0
    spec, graph, truth, data = grid_instance(4, n=24, r=6)
    part = Partition(subsets=[np.arange(24)], mode="overlapping", n=24)
    _, local, shifts = dc_overlap(graph, data, part)
    assert shifts.operator.n == 1
    assert alignment_identity_residual(local, shifts, truth) == 0.0


def test_dc_community_single_block_is_global_mle():
    # one block has no cross edge: the one-node super-graph gives shift 0
    spec, graph, truth, data = grid_instance(4, n=24, r=6)
    part = Partition(subsets=[np.arange(24)], mode="disjoint", n=24)
    merged, _, shifts = dc_community(graph, data, part)
    assert shifts.shifts.tolist() == [0.0] and shifts.operator.n == 1
    direct, _ = solve_mle(MleProblem(graph, data), SolverConfig(method="precond_gd"))
    assert error_report(merged, direct).linf <= 1e-12


def test_dc_community_block_groups_without_cross_edge_raise():
    # blocks {0, 1} and {2, 3} share no cross edge, so their offset is unknown;
    # the unanimous cross edge (3, 4) would fail first if offsets came first
    full = generate_grid(GridSpec(kind="grid1d", n=16, r=2), L=10)
    keep = (full.edge_i < 8) == (full.edge_j < 8)
    graph = ComparisonGraph(16, full.edge_i[keep], full.edge_j[keep], full.counts[keep])
    wins = exact_comparisons(graph, make_scores("sine", 16, 2)).wins.copy()
    wins[edge_index_map(graph)[(3, 4)]] = 10
    part = Partition(subsets=[np.arange(4 * k, 4 * k + 4) for k in range(4)],
                     mode="disjoint", n=16)
    with pytest.raises(GraphError, match="cross-edge super-graph is disconnected"):
        dc_community(graph, ComparisonData(graph, wins), part)


def test_pgd_single_subset_is_gradient_descent():
    spec, graph, truth, data = grid_instance(5, n=30, r=4, p=1.0, L=80)
    part = Partition(subsets=[np.arange(30)], mode="overlapping", n=30)
    eta = 1e-3
    pgd_scores, pgd_trace = pgd_solve(graph, data, part, eta=eta, max_iter=50)
    gd_scores, gd_trace = solve_mle(
        MleProblem(graph, data),
        SolverConfig(method="gd", step_size=eta, max_iter=50))
    assert np.allclose(pgd_trace.losses, gd_trace.losses, rtol=1e-12)
    assert error_report(pgd_scores, gd_scores).linf <= 1e-12


def test_pgd_weighted_losses_sum_to_full_loss():
    # 1/coverage edge weights make the subgraph losses add up exactly
    spec, graph, truth, data = grid_instance(6)
    part, _ = partition_grid(graph, spec, "overlapping")
    coverage = np.zeros(graph.num_edges)
    subset_edges = []
    for nodes in part.subsets:
        edges = subgraph_edges(graph, nodes)
        subset_edges.append(edges)
        coverage[edges] += 1.0
    assert np.all(coverage >= 1.0)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=graph.n)
    full = loss(MleProblem(graph, data), theta)
    total = 0.0
    for edges in subset_edges:
        w = np.zeros(graph.num_edges)
        w[edges] = 1.0 / coverage[edges]
        # restrict by weighting: unused edges get a vanishing weight
        w[w == 0] = 1e-300
        total += loss(MleProblem(graph, data, weights=w), theta)
    assert total == pytest.approx(full, rel=1e-12)


def test_pgd_converges_to_mle():
    spec, graph, truth, data = grid_instance(7, n=64, r=8, p=0.8, L=30)
    part, _ = partition_grid(graph, spec, "overlapping")
    eta = 1.0 / (8 * 0.8 * 30)
    scores, trace = pgd_solve(graph, data, part, eta=eta, max_iter=20_000,
                              grad_tol_factor=1e-12)
    assert trace.converged
    mle, _ = solve_mle(MleProblem(graph, data),
                       SolverConfig(grad_tol_factor=1e-12))
    assert error_report(scores, mle).max_pairwise <= 1e-5


def test_dc_community_two_blocks():
    rng = np.random.default_rng(40)
    graph = generate_special("er", rng=rng, n=40, p=0.5, L=60)
    assert graph.connected
    truth = make_scores("sine", 40, 6)
    data = sample_comparisons(graph, truth, rng)
    part = Partition(subsets=[np.arange(20), np.arange(20, 40)],
                     mode="disjoint", n=40)
    merged, local, shifts = dc_community(graph, data, part)
    mle, _ = solve_mle(MleProblem(graph, data))
    e_dc = error_report(merged, truth).linf
    e_mle = error_report(mle, truth).linf
    assert e_dc <= 2.5 * e_mle + 0.1


def test_dc_community_weight_modes_agree_on_two_blocks():
    # with two blocks there is a single super-edge, so the weight mode
    # cannot change the stitched result
    rng = np.random.default_rng(41)
    graph = generate_special("er", rng=rng, n=30, p=0.5, L=40)
    truth = make_scores("sine", 30, 5)
    data = sample_comparisons(graph, truth, rng)
    part = Partition(subsets=[np.arange(15), np.arange(15, 30)],
                     mode="disjoint", n=30)
    a, _, _ = dc_community(graph, data, part, weight_mode="cross-edge-count")
    b, _, _ = dc_community(graph, data, part, weight_mode="unit")
    assert error_report(a, b).linf <= 1e-9


def test_dc_community_unanimous_cross_raises():
    graph = generate_special("barbell", clique1=4, clique2=4, L=6)
    truth = make_scores("sine", 8, 2)
    data = sample_comparisons(graph, truth, np.random.default_rng(1))
    wins = data.wins.copy()
    bridge = edge_index_map(graph)[(3, 4)]
    wins[bridge] = graph.counts[bridge]  # node 3 wins every cross comparison
    part = Partition(subsets=[np.arange(4), np.arange(4, 8)],
                     mode="disjoint", n=8)
    with pytest.raises(NonexistenceError):
        dc_community(graph, ComparisonData(graph, wins), part)


def reversed_labels(graph, data, part):
    """The instance with node i renamed n - 1 - i: edges re-canonicalised to
    i < j and sorted, wins taken by the new lower endpoint, and the subsets
    renamed with the nodes."""
    n = graph.n
    ei, ej = n - 1 - graph.edge_j, n - 1 - graph.edge_i
    order = np.lexsort((ej, ei))
    flipped = ComparisonGraph(n, ei[order], ej[order], graph.counts[order])
    wins = (graph.counts - data.wins)[order]
    subsets = [n - 1 - s for s in part.subsets]
    return flipped, ComparisonData(flipped, wins), Partition(subsets, part.mode, n)


@pytest.mark.parametrize("kind,n,r", [("grid2d", 144, 3), ("grid1d", 200, 5)])
def test_estimators_follow_a_relabelling(kind, n, r):
    spec, graph, truth, data = grid_instance(12, n=n, r=r, p=0.8, L=40, kind=kind)
    disjoint = grid_partition(spec, "disjoint")
    for weight_mode in ("cross-edge-count", "unit"):
        want = dc_community(graph, data, disjoint, weight_mode)[0].values
        # the order of the subsets names the blocks, and so the super-edge orientations
        backwards = Partition(disjoint.subsets[::-1], "disjoint", n)
        got = dc_community(graph, data, backwards, weight_mode)[0].values
        assert np.abs(got - want).max() <= 1e-9
        got = dc_community(*reversed_labels(graph, data, disjoint), weight_mode)[0].values
        assert np.abs(got[::-1] - want).max() <= 1e-9
    overlapping = grid_partition(spec, "overlapping")
    want = dc_overlap(graph, data, overlapping)[0].values
    got = dc_overlap(*reversed_labels(graph, data, overlapping))[0].values
    assert np.abs(got[::-1] - want).max() <= 1e-9


def test_dc_community_needs_disjoint_mode():
    spec, graph, truth, data = grid_instance(8)
    part, _ = partition_grid(graph, spec, "overlapping")
    with pytest.raises(GraphError):
        dc_community(graph, data, part)


def test_local_nonexistence_is_reported():
    spec, graph, truth, data = grid_instance(9, n=24, r=4, p=1.0, L=2)
    part, _ = partition_grid(graph, spec, "overlapping")
    wins = data.wins.copy()
    # force node 0 to lose every comparison inside the first window
    for e in subgraph_edges(graph, part.subsets[0]):
        if graph.edge_i[e] == 0:
            wins[e] = 0
    with pytest.raises(NonexistenceError):
        dc_overlap(graph, ComparisonData(graph, wins), part)
    # every comparison split 1-1 but node 10's inside window 2 (nodes 8..15),
    # which it loses; the violating set is named by nodes of the graph
    wins = np.ones(graph.num_edges)
    for e in subgraph_edges(graph, part.subsets[2]):
        if graph.edge_i[e] == 10:
            wins[e] = 0
        elif graph.edge_j[e] == 10:
            wins[e] = graph.counts[e]
    with pytest.raises(NonexistenceError, match="subset 2:") as info:
        dc_overlap(graph, ComparisonData(graph, wins), part)
    assert set(info.value.nodes.tolist()) <= set(part.subsets[2].tolist())


def test_local_nonconvergence_raises():
    # block {2, 3} sees one loss in a million comparisons: its MLE exists, but
    # precond_gd takes far more than 500 iterations to reach it
    graph = ComparisonGraph(n=4, edge_i=np.array([0, 0, 1, 2]), edge_j=np.array([1, 2, 2, 3]),
                            counts=np.array([20, 20, 20, 10 ** 6]))
    data = ComparisonData(graph, np.array([12.0, 9.0, 11.0, 10 ** 6 - 1.0]))
    part = Partition(subsets=[np.arange(3), np.arange(2, 4)], mode="overlapping", n=4)
    with pytest.raises(SolverError, match=r"subsets \[1\] within 500 iterations"):
        local_estimates(graph, data, part)


def test_dc_overlap_spectral_local_method():
    spec, graph, truth, data = grid_instance(12, score_kind="sine")
    part, _ = partition_grid(graph, spec, "overlapping")
    merged, _, _ = dc_overlap(graph, data, part, local_method="spectral")
    bound = locality_bound("grid1d", 96, 8, 0.7, 40)
    assert error_report(merged, truth).linf <= 2.0 * bound


def test_dc_overlap_error_meets_locality_rate_at_scale():
    # trial-averaged max error stays below the closed-form locality rate;
    # individual trials hover at 0.8-1.0x the rate, so the mean is the
    # stable statistic to pin down
    n, r, p, L = 500, 20, 0.5, 30
    bound = locality_bound("grid1d", n, r, p, L)
    errs = []
    for t in range(10):
        rng = np.random.default_rng([909, t])
        spec = GridSpec(kind="grid1d", n=n, r=r, p=p)
        graph = generate_grid(spec, L=L, rng=rng)
        truth = make_scores("linear", n, r)
        data = sample_comparisons(graph, truth, rng)
        part, _ = partition_grid(graph, spec, "overlapping")
        merged, _, _ = dc_overlap(graph, data, part)
        errs.append(error_report(merged, truth).linf)
    assert float(np.mean(errs)) <= bound


def test_dc_community_block_offset_beyond_sixty():
    # two blocks on a line whose true offset of 80 lies outside [-60, 60]
    graph = generate_special("line", n=4, L=10)
    truth = ScoreVector.zero_sum(np.array([0.0, 0.0, 80.0, 80.0]))
    data = exact_comparisons(graph, truth)
    part = Partition(subsets=[np.arange(2), np.arange(2, 4)], mode="disjoint", n=4)
    merged, _, _ = dc_community(graph, data, part)
    assert error_report(merged, truth).linf <= 1e-8


def brute_gaps(part, values, w):
    """x_a = sum over b != a and shared nodes i of w_i (v_b[i] - v_a[i]), pair by pair."""
    x = np.zeros(part.m)
    for a in range(part.m):
        for b in range(part.m):
            shared = np.intersect1d(part.subsets[a], part.subsets[b])
            if a == b or len(shared) == 0:
                continue
            va = values[a][np.searchsorted(part.subsets[a], shared)]
            vb = values[b][np.searchsorted(part.subsets[b], shared)]
            x[a] += float((w[shared] * (vb - va)).sum())
    return x


def test_overlap_gaps_match_pairwise_loop():
    from btlrank.dc import _overlap_gaps

    spec, graph, truth, data = grid_instance(13)
    part, _ = partition_grid(graph, spec, "overlapping")
    rng = np.random.default_rng(3)
    values = [rng.normal(size=len(s)) for s in part.subsets]
    want = brute_gaps(part, values, np.ones(part.n))
    assert np.allclose(_overlap_gaps(part, values), want, atol=1e-12)


def test_pgd_gap_is_membership_product_of_scaled_gradient():
    # the per-subgraph local steps, weighted 1/s_i on shared nodes, give
    # the gap vector -eta M^T (g / s) that pgd_solve aligns with
    spec, graph, truth, data = grid_instance(14)
    part, _ = partition_grid(graph, spec, "overlapping")
    s = part.membership_counts().astype(np.float64)
    rng = np.random.default_rng(4)
    theta = rng.normal(size=graph.n)
    eta = 0.01
    coef = graph.counts * (sigmoid(theta[graph.edge_i] - theta[graph.edge_j]) - data.y)
    edges = [subgraph_edges(graph, nodes) for nodes in part.subsets]
    coverage = np.zeros(graph.num_edges)
    for e in edges:
        coverage[e] += 1.0
    steps = []
    for nodes, e in zip(part.subsets, edges):
        ce = coef[e] / coverage[e]
        g_a = (np.bincount(graph.edge_i[e], ce, graph.n)
               - np.bincount(graph.edge_j[e], ce, graph.n))
        steps.append(-eta * g_a[nodes])
    g = gradient(MleProblem(graph, data), theta)
    want = brute_gaps(part, steps, 1.0 / s)
    got = -eta * (part.membership.T @ (g / s))
    assert np.allclose(got, want, atol=1e-10 * np.abs(want).max())


def per_block_mles(graph, data, part):
    """The per-block loop that local_estimates batches: one solve_mle per restricted subgraph.

    Returns (scores, converged) per subset, and the first subset whose MLE
    does not exist (None when all do), where the loop stops.
    """
    out = []
    for a, nodes in enumerate(part.subsets):
        edges = subgraph_edges(graph, nodes)
        sub = ComparisonGraph(n=len(nodes), edge_i=np.searchsorted(nodes, graph.edge_i[edges]),
                              edge_j=np.searchsorted(nodes, graph.edge_j[edges]),
                              counts=graph.counts[edges])
        try:
            scores, trace = solve_mle(MleProblem(sub, ComparisonData(sub, data.wins[edges])))
        except NonexistenceError:
            return out, a
        out.append((scores.values, trace.converged))
    return out, None


def hand_made_partition(rng, n, r, mode):
    """Contiguous node ranges of unequal sizes, each extended by r nodes when overlapping."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(int(rng.integers(1, 4)), n - 1),
                              replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    extra = r if mode == "overlapping" else 0
    subsets = [np.arange(lo, min(hi + extra, n)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return Partition(subsets=subsets, mode=mode, n=n)


@given(kind=st.sampled_from(["grid1d", "grid2d"]), side=st.integers(6, 40), r=st.integers(1, 3),
       p=st.sampled_from([0.7, 1.0]), L=st.integers(3, 40),
       mode=st.sampled_from(["overlapping", "disjoint"]), hand_made=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kind="grid1d", side=23, r=3, p=1.0, L=30, mode="overlapping", hand_made=False, seed=1)
@example(kind="grid2d", side=11, r=2, p=1.0, L=30, mode="disjoint", hand_made=False, seed=2)
@example(kind="grid1d", side=30, r=2, p=1.0, L=30, mode="disjoint", hand_made=True, seed=3)
def test_batched_local_mles_match_per_block_loop(kind, side, r, p, L, mode, hand_made, seed):
    # the examples: a last window that absorbs a tail (along each axis in 2D),
    # and blocks of unequal sizes
    rng = np.random.default_rng(seed)
    side = min(side, 12) if kind == "grid2d" else side
    n = side * side if kind == "grid2d" else side
    spec = GridSpec(kind=kind, n=n, r=r, p=p)
    graph = generate_grid(spec, L=L, rng=rng)
    data = sample_comparisons(graph, make_scores("sine", n, r), rng)
    part = (hand_made_partition(rng, n, r, mode) if hand_made
            else partition_grid(graph, spec, mode)[0])
    reference, failed = per_block_mles(graph, data, part)
    if failed is not None:
        with pytest.raises(NonexistenceError, match=f"subset {failed}:") as info:
            local_estimates(graph, data, part)
        assert set(info.value.nodes.tolist()) <= set(part.subsets[failed].tolist())
        return
    unconverged = [a for a, (_, converged) in enumerate(reference) if not converged]
    if unconverged:
        with pytest.raises(SolverError, match=re.escape(f"subsets {unconverged}")):
            local_estimates(graph, data, part)
        return
    local = local_estimates(graph, data, part)
    for (want, _), got in zip(reference, local.thetas):
        assert np.abs(got - want).max() <= 1e-10


def test_alignment_solve_failure_names_its_report(monkeypatch):
    spec, graph, truth, data = grid_instance(4)
    part, _ = partition_grid(graph, spec, "overlapping")
    local = local_estimates(graph, data, part)
    report = SolveReport(iterations=7, residual=0.25, converged=False, backend="cg")
    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal",
                        lambda self, b, tol=1e-10, max_iter=None: (np.zeros(self.n), report))
    with pytest.raises(GraphError, match=re.escape(
            "alignment solve did not converge (cg residual 2.50e-01 after 7 iterations)")):
        overlap_alignment(local)
