"""MLE loss/solvers, existence detection, closed form, and the spectral method."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from btlrank import (ComparisonData, ComparisonGraph, GridSpec, LaplacianOperator,
                     MleProblem, NonexistenceError, ScoreVector, SolveReport, SolverConfig,
                     SolverError, closed_form_line, error_report, exact_comparisons,
                     generate_grid, generate_special, gradient, hessian, loss,
                     loss_and_gradient, make_scores, mle_exists,
                     oracle_laplacian, partition_grid, sample_comparisons,
                     solve_mle, spectral_estimate,
                     violating_partition)
from btlrank.estimators import SEARCH_TOL, descend
from graph_helpers import edge_index_map


def random_problem(rng, n=6, L=5):
    graph = generate_special("complete", n=n, L=L)
    scores = make_scores("sine", n, 2)
    data = sample_comparisons(graph, scores, rng)
    return MleProblem(graph, data), scores


def test_loss_single_edge_log2():
    graph = generate_special("line", n=2, L=1)
    data = ComparisonData(graph, wins=np.array([1]))
    problem = MleProblem(graph, data)
    assert loss(problem, np.zeros(2)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_gradient_zero_at_interpolating_scores():
    graph = generate_special("line", n=4, L=10)
    theta = np.array([0.3, -0.1, 0.4, -0.6])
    data = exact_comparisons(graph, ScoreVector(theta, gauge="zero-sum"))
    problem = MleProblem(graph, data)
    assert np.linalg.norm(gradient(problem, theta)) <= 1e-12 * problem.graph.total_samples


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(20):
        problem, _ = random_problem(rng, n=int(rng.integers(4, 11)))
        theta = rng.normal(size=problem.graph.n)
        g = gradient(problem, theta)
        h = 1e-6
        fd = np.zeros_like(theta)
        for k in range(len(theta)):
            e = np.zeros_like(theta)
            e[k] = h
            fd[k] = (loss(problem, theta + e) - loss(problem, theta - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1.0)


def test_fused_kernel_matches_gradient_and_logaddexp_loss():
    # d on both sides of each branch of the softplus and sigmoid forms, with
    # unanimous and split data and unequal sample counts; a star from node 0 with
    # theta_k = -d puts each d exactly on one edge
    d, y = (a.ravel() for a in np.meshgrid(
        [0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0], [0.0, 0.3, 1.0]))
    m = len(d)
    counts = np.random.default_rng(3).integers(1, 40, m)
    graph = ComparisonGraph(n=m + 1, edge_i=np.zeros(m, dtype=np.int64),
                            edge_j=np.arange(1, m + 1), counts=counts)
    problem = MleProblem(graph, ComparisonData(graph, y * counts))
    theta = np.concatenate([[0.0], -d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, g = loss_and_gradient(problem, theta)
        assert np.array_equal(g, gradient(problem, theta))
        old = counts * (-problem.data.y * d + np.logaddexp(0.0, d))
        assert value == pytest.approx(old.sum(), rel=1e-12, abs=0.0)
        assert loss(problem, theta) == value
        # term by term, one single-edge problem each
        for dk, yk, Lk, want in zip(d, y, counts.tolist(), old):
            line = generate_special("line", n=2, L=Lk)
            one = MleProblem(line, ComparisonData(line, np.array([yk * Lk])))
            assert loss(one, np.array([0.0, -dk])) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gradient_orthogonal_to_ones():
    rng = np.random.default_rng(55)
    problem, _ = random_problem(rng, n=9)
    theta = rng.normal(size=9)
    g = gradient(problem, theta)
    assert abs(g.sum()) <= 1e-12 * max(np.abs(g).sum(), 1.0)


def test_hessian_at_truth_equals_oracle_laplacian():
    rng = np.random.default_rng(77)
    problem, scores = random_problem(rng, n=8, L=7)
    h = hessian(problem, scores.values).matrix.toarray()
    oracle = oracle_laplacian(problem.graph, scores).matrix.toarray()
    assert np.max(np.abs(h - oracle)) <= 1e-12


def test_loss_is_convex_along_segments():
    rng = np.random.default_rng(31)
    problem, _ = random_problem(rng, n=7)
    for _ in range(10):
        a = rng.normal(size=7)
        b = rng.normal(size=7)
        mid = 0.5 * (a + b)
        assert loss(problem, mid) <= \
            0.5 * loss(problem, a) + 0.5 * loss(problem, b) + 1e-12


def test_existence_star_center_loses_all():
    n = 6
    edge_i = np.zeros(n - 1, dtype=np.int64)
    edge_j = np.arange(1, n, dtype=np.int64)
    graph = ComparisonGraph(n, edge_i, edge_j, np.full(n - 1, 4))
    data = ComparisonData(graph, wins=np.zeros(n - 1, dtype=np.int64))
    problem = MleProblem(graph, data)
    assert not mle_exists(problem)
    bad = violating_partition(problem)
    # the center is exactly the set with no win over its complement
    assert bad.tolist() == [0]
    with pytest.raises(NonexistenceError,
                       match=r"nodes \[0\] never recorded a win over their complement"):
        solve_mle(problem)


def test_existence_on_a_disconnected_graph_blames_no_comparison():
    # two triangles with every comparison split: each has an MLE, the graph has none
    graph = ComparisonGraph(6, np.array([0, 0, 1, 3, 3, 4]), np.array([1, 2, 2, 4, 5, 5]),
                            np.full(6, 4))
    problem = MleProblem(graph, ComparisonData(graph, np.full(6, 2.0)))
    with pytest.raises(NonexistenceError,
                       match="were never compared with the rest of the graph") as info:
        solve_mle(problem)
    assert info.value.nodes.tolist() in ([0, 1, 2], [3, 4, 5])


def test_existence_unanimous_cycle():
    # wins 0 -> 1 -> 2 -> 0 keep the win digraph strongly connected
    graph = generate_special("ring", n=3, L=5)
    wins = np.zeros(3, dtype=np.int64)
    for a, b, w in [(0, 1, 5), (1, 2, 5), (0, 2, 0)]:
        wins[edge_index_map(graph)[(a, b)]] = w
    problem = MleProblem(graph, ComparisonData(graph, wins))
    assert mle_exists(problem)
    scores, trace = solve_mle(problem)
    assert trace.converged
    with pytest.raises(ValueError):
        violating_partition(problem)


def test_one_node_has_an_mle():
    graph = ComparisonGraph(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
    problem = MleProblem(graph, ComparisonData(graph, np.array([], dtype=np.int64)))
    assert mle_exists(problem)
    assert solve_mle(problem)[0].values.tolist() == [0.0]


def test_closed_form_line_matches_solver():
    rng = np.random.default_rng(8)
    for n in (5, 12, 20):
        graph = generate_special("line", n=n, L=50)
        truth = make_scores("sine", n, 3)
        data = sample_comparisons(graph, truth, rng)
        if np.any(data.wins == 0) or np.any(data.wins == graph.counts):
            continue
        problem = MleProblem(graph, data)
        closed = closed_form_line(problem)
        solved, _ = solve_mle(problem, SolverConfig(grad_tol_factor=1e-13))
        assert error_report(solved, closed).linf <= 1e-8
        # the closed form interpolates the win fractions exactly
        assert np.linalg.norm(gradient(problem, closed.values)) <= \
            1e-10 * problem.graph.total_samples


def test_closed_form_requires_interior_fractions():
    graph = generate_special("line", n=3, L=2)
    data = ComparisonData(graph, wins=np.array([2, 1]))
    with pytest.raises((NonexistenceError, ValueError)):
        closed_form_line(MleProblem(graph, data))


def test_solvers_agree_on_grid():
    spec = GridSpec(kind="grid1d", n=40, r=4, p=0.9)
    rng = np.random.default_rng(19)
    graph = generate_grid(spec, L=30, rng=rng)
    truth = make_scores("sine", 40, 4)
    data = sample_comparisons(graph, truth, rng)
    problem = MleProblem(graph, data)
    partition, _ = partition_grid(graph, spec, "overlapping")
    eta = 1.0 / (4 * 0.9 * 30)
    configs = {
        "gd": SolverConfig(method="gd", grad_tol_factor=1e-12),
        "cd": SolverConfig(method="cd", grad_tol_factor=1e-12),
        "precond_oracle": SolverConfig(method="precond_gd",
                                       oracle_scores=truth,
                                       grad_tol_factor=1e-12),
        "precond_lg": SolverConfig(method="precond_gd",
                                   grad_tol_factor=1e-12),
        "pgd": SolverConfig(method="pgd", partition=partition, step_size=eta,
                            max_iter=20_000, grad_tol_factor=1e-12),
    }
    solutions = {}
    for name, config in configs.items():
        scores, trace = solve_mle(problem, config)
        assert trace.converged, name
        solutions[name] = scores
    names = list(solutions)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            gap = error_report(solutions[names[a]], solutions[names[b]]).max_pairwise
            assert gap <= 1e-5, (names[a], names[b], gap)


def test_trace_monotone_loss_and_csv(tmp_path):
    rng = np.random.default_rng(23)
    problem, truth = random_problem(rng, n=10, L=20)
    ref, _ = solve_mle(problem, SolverConfig(grad_tol_factor=1e-12))
    scores, trace = solve_mle(problem, SolverConfig(
        method="gd", reference=ref.values))
    losses = np.array(trace.losses)
    assert np.all(np.diff(losses) <= 1e-9 * max(abs(losses[0]), 1.0))
    assert trace.ref_linf[-1] <= trace.ref_linf[0] + 1e-12
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "iteration,loss,grad_norm,ref_linf"


def test_precond_gd_inexact_search_direction_on_cg(tmp_path):
    # a 30x30 grid with band 60 puts the quarter_LG preconditioner on CG, where each
    # step's solve stops at SEARCH_TOL while the stop test reads the true gradient
    rng = np.random.default_rng(31)
    graph = generate_grid(GridSpec(kind="grid2d", n=900, r=2, p=0.8), L=20, rng=rng)
    problem = MleProblem(graph, sample_comparisons(graph, make_scores("linear2d", 900, 2), rng))
    pre = LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, 0.25 * graph.counts)
    assert not pre.factored
    scores, trace = solve_mle(problem)
    assert trace.converged
    assert np.linalg.norm(gradient(problem, scores.values)) <= 1e-8 * problem.graph.total_samples
    assert len(trace.inner_iters) == len(trace.inner_residual) == len(trace.iterations) - 1
    assert max(trace.inner_residual) <= SEARCH_TOL

    exact_iters = []

    def exact_step(theta, g):
        v, report = pre.solve_orthogonal(g)
        assert report.converged
        exact_iters.append(report.iterations)
        return theta - v

    ref, ref_trace = descend(problem, exact_step, "precond_gd", 500, 1e-8, None)
    assert ref_trace.converged
    assert sum(trace.inner_iters) < sum(exact_iters)
    assert np.abs(scores.values - ref.values).max() <= 1e-4

    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,loss,grad_norm,inner_iters,inner_residual"
    assert lines[1].split(",")[3] == str(trace.inner_iters[0])
    assert lines[-1].endswith(",,") and len(lines) == len(trace.iterations) + 1


@pytest.mark.parametrize("kind, n, r", [("grid1d", 60, 4), ("grid2d", 900, 2)])
def test_quarter_step_is_the_step_preconditioned_by_lg(kind, n, r):
    # L_G/4 at step 1/4 is L_G at step 1, bit for bit, on the factor (1D) and on CG (2D)
    rng = np.random.default_rng(37)
    graph = generate_grid(GridSpec(kind=kind, n=n, r=r, p=0.8), L=20, rng=rng)
    truth = make_scores("sine" if kind == "grid1d" else "linear2d", n, r)
    problem = MleProblem(graph, sample_comparisons(graph, truth, rng))
    lg = LaplacianOperator(n, graph.edge_i, graph.edge_j, graph.counts)
    assert lg.factored == (kind == "grid1d")
    reports = []

    def step(theta, g):
        v, report = lg.solve_orthogonal(g, tol=SEARCH_TOL)
        reports.append(report)
        return theta - v

    want, want_trace = descend(problem, step, "precond_gd", 500, 1e-8, None)
    got, trace = solve_mle(problem, SolverConfig(step_size=0.25))
    assert trace.converged and want_trace.converged
    assert got.values.tobytes() == want.values.tobytes()
    assert trace.losses == want_trace.losses
    assert trace.inner_iters == [r.iterations for r in reports]
    assert trace.inner_residual == [r.residual for r in reports]


def test_spectral_consistency_exact_data():
    # with analytic win fractions and a generous budget, theta -> theta*
    graph = generate_grid(GridSpec(kind="grid1d", n=50, r=5), L=1)
    truth = make_scores("sine", 50, 5)
    data = exact_comparisons(graph, truth)
    result = spectral_estimate(graph, data, max_iter=200_000, tol=1e-15)
    assert result.converged and not result.failed
    assert error_report(result.theta, truth).linf <= 1e-6


def test_spectral_budget_failure_is_flagged():
    graph = generate_grid(GridSpec(kind="grid1d", n=240, r=10), L=1)
    truth = make_scores("linear", 240, 10)
    data = exact_comparisons(graph, truth)
    result = spectral_estimate(graph, data)  # default budget
    assert result.failed and not result.converged
    assert np.all(np.isfinite(result.theta.values))


def test_spectral_matches_mle_scale_small():
    rng = np.random.default_rng(4)
    graph = generate_special("complete", n=12, L=200)
    truth = make_scores("sine", 12, 3)
    data = sample_comparisons(graph, truth, rng)
    spec_result = spectral_estimate(graph, data, max_iter=50_000)
    assert spec_result.converged
    mle_scores, _ = solve_mle(MleProblem(graph, data))
    e_spec = error_report(spec_result.theta, truth).linf
    e_mle = error_report(mle_scores, truth).linf
    assert e_spec <= 3.0 * e_mle + 0.05


def test_spectral_stationarity():
    rng = np.random.default_rng(9)
    graph = generate_special("complete", n=8, L=100)
    truth = make_scores("sine", 8, 2)
    data = sample_comparisons(graph, truth, rng)
    result = spectral_estimate(graph, data, max_iter=100_000, tol=1e-14)
    pi = result.pi
    assert pi.min() > 0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    # verify pi P = pi against an explicitly assembled chain
    n = graph.n
    d = 1.0 + graph.degrees().max()
    # P_ij = y_ji / d: probability mass flows toward the winner
    P = np.zeros((n, n))
    for k, (i, j) in enumerate(zip(graph.edge_i, graph.edge_j)):
        P[i, j] = (1.0 - data.y[k]) / d
        P[j, i] = data.y[k] / d
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    assert np.linalg.norm(pi @ P - pi, 1) <= 1e-10


def test_solver_gauge_is_zero_sum():
    rng = np.random.default_rng(2)
    problem, _ = random_problem(rng, n=7, L=30)
    scores, _ = solve_mle(problem)
    assert abs(scores.values.sum()) <= 1e-9 * 7


def test_cd_colour_classes_and_one_sweep():
    from btlrank.estimators import _colour_classes

    spec = GridSpec(kind="grid1d", n=60, r=4, p=0.8)
    rng = np.random.default_rng(29)
    graph = generate_grid(spec, L=20, rng=rng)
    data = sample_comparisons(graph, make_scores("sine", 60, 4), rng)
    classes = _colour_classes(graph)
    colour = np.full(graph.n, -1)
    for c, nodes in enumerate(classes):
        colour[nodes] = c
    assert np.all(colour >= 0)
    assert not np.any(colour[graph.edge_i] == colour[graph.edge_j])
    # one sweep ends on the last class, whose updates are exact minimizers
    problem = MleProblem(graph, data)
    scores, trace = solve_mle(problem, SolverConfig(method="cd", max_iter=1))
    assert len(trace.losses) == 2 and trace.losses[1] < trace.losses[0]
    samples = (np.bincount(graph.edge_i, graph.counts, graph.n)
               + np.bincount(graph.edge_j, graph.counts, graph.n))
    last = classes[-1]
    g = gradient(problem, scores.values)
    assert np.all(np.abs(g[last]) <= 1e-10 * samples[last])


def test_cd_leaves_a_node_without_edges_alone():
    # node 3 is a block of its own: its coordinate has nothing to minimize
    graph = ComparisonGraph(4, np.array([0, 0, 1]), np.array([1, 2, 2]), np.full(3, 10))
    problem = MleProblem(graph, ComparisonData(graph, np.array([6.0, 3.0, 5.0])),
                         blocks=np.array([0, 0, 0, 1]))
    cd, trace = solve_mle(problem, SolverConfig(method="cd", grad_tol_factor=1e-12))
    assert trace.converged
    pre, _ = solve_mle(problem, SolverConfig(grad_tol_factor=1e-12))
    # each block fixes its scores only up to a shift of its own
    first = cd.values[:3] - pre.values[:3]
    assert np.abs(first - first.mean()).max() <= 1e-8


def test_diverging_step_raises_solver_error():
    rng = np.random.default_rng(31)
    problem, _ = random_problem(rng, n=8, L=10)
    with pytest.raises(SolverError, match=r"gd diverged at iteration \d+"):
        solve_mle(problem, SolverConfig(method="gd", step_size=1e305))


@given(n=st.integers(8, 24), r=st.integers(2, 4), p=st.floats(0.7, 1.0),
       L=st.integers(20, 50), seed=st.integers(0, 2**16))
def test_solvers_agree_on_random_grids(n, r, p, L, seed):
    rng = np.random.default_rng(seed)
    spec = GridSpec(kind="grid1d", n=n, r=r, p=p)
    graph = generate_grid(spec, L=L, rng=rng)
    problem = MleProblem(graph, sample_comparisons(graph, make_scores("sine", n, r), rng))
    assume(mle_exists(problem))
    partition, _ = partition_grid(graph, spec, "overlapping")
    solutions = []
    for method in ("gd", "cd", "precond_gd", "pgd"):
        scores, trace = solve_mle(problem, SolverConfig(
            method=method, grad_tol_factor=1e-11, max_iter=20_000, partition=partition))
        assert trace.converged, method
        solutions.append(scores)
    for a in solutions[1:]:
        assert error_report(a, solutions[0]).max_pairwise <= 1e-6


@given(n=st.integers(8, 12), r=st.integers(2, 4), p=st.floats(0.7, 1.0),
       L=st.integers(20, 50), seed=st.integers(0, 2**16))
def test_relabelling_permutes_the_global_estimates(n, r, p, L, seed):
    rng = np.random.default_rng(seed)
    graph = generate_grid(GridSpec(kind="grid1d", n=n, r=r, p=p), L=L, rng=rng)
    data = sample_comparisons(graph, make_scores("sine", n, r), rng)
    problem = MleProblem(graph, data)
    assume(mle_exists(problem))
    # node i becomes perm[i]; an edge whose endpoints swap order takes the other side's wins
    perm = rng.permutation(n)
    a, b = perm[graph.edge_i], perm[graph.edge_j]
    order = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
    moved = ComparisonGraph(n, np.minimum(a, b)[order], np.maximum(a, b)[order],
                            graph.counts[order])
    wins = np.where(a > b, graph.counts - data.wins, data.wins)[order]
    relabelled = MleProblem(moved, ComparisonData(moved, wins))
    tol = 1e-12
    for method in ("precond_gd", "gd", "cd"):
        config = SolverConfig(method=method, grad_tol_factor=tol)
        (want, before), (got, after) = solve_mle(problem, config), solve_mle(relabelled, config)
        assert before.converged and after.converged, method
        # a run that stops at ||g|| <= tol N lies within tol N / lambda_2 of the MLE,
        # lambda_2 the least non-zero eigenvalue of the Hessian there
        lambda_2 = np.linalg.eigvalsh(hessian(problem, want.values).matrix.toarray())[1]
        gap = np.abs(got.values[perm] - want.values).max()
        assert gap <= 2 * tol * graph.total_samples / lambda_2, method
    want, got = (spectral_estimate(g, d, max_iter=100_000)
                 for g, d in ((graph, data), (moved, relabelled.data)))
    assert want.converged and got.converged
    # the same power iteration with its sums in another order, so rounding apart
    assert np.abs(got.theta.values[perm] - want.theta.values).max() <= 1e-12


def test_blocked_problem_solves_each_block_on_its_own():
    # two grids side by side, the second with ten times the samples: each block
    # stops on its own gradient and sample count and then stays put, so every
    # method returns what it returns on the blocks one at a time
    rng = np.random.default_rng(8)
    parts = []
    for L in (20, 200):
        graph = generate_grid(GridSpec(kind="grid1d", n=12, r=3, p=0.9), L=L, rng=rng)
        parts.append(MleProblem(graph, sample_comparisons(graph, make_scores("sine", 12, 3), rng)))
    a, b = (p.graph for p in parts)
    graph = ComparisonGraph(n=24, edge_i=np.concatenate([a.edge_i, b.edge_i + 12]),
                            edge_j=np.concatenate([a.edge_j, b.edge_j + 12]),
                            counts=np.concatenate([a.counts, b.counts]))
    data = ComparisonData(graph, np.concatenate([p.data.wins for p in parts]))
    blocked = MleProblem(graph, data, blocks=np.repeat([0, 1], 12))
    assert mle_exists(blocked) and not mle_exists(MleProblem(graph, data))
    for method in ("gd", "cd", "precond_gd"):
        config = SolverConfig(method=method, step_size=2e-3 if method == "gd" else None)
        scores, trace = solve_mle(blocked, config)
        assert trace.converged and trace.block_converged.tolist() == [True, True]
        # each block stops where it stops on its own, and the last one ends the run
        # (gd 1713 and 169, cd 26 and 32, precond_gd 11 and 7)
        stops = trace.block_stop_iter
        assert stops[0] != stops[1] and stops.max() == trace.iterations[-1]
        for k, part in enumerate(parts):
            want, alone = solve_mle(part, config)
            got = scores.values[12 * k:12 * (k + 1)]
            assert np.abs(got - got.mean() - want.values).max() <= 1e-10
            assert stops[k] == alone.iterations[-1]
    # cut before the slower block stops: it reads -1 and the run is unconverged
    _, trace = solve_mle(blocked, SolverConfig(method="gd", step_size=2e-3, max_iter=500))
    assert not trace.converged and trace.block_stop_iter.tolist() == [-1, 169]
    assert trace.block_converged.tolist() == [False, True]
    with pytest.raises(SolverError):
        solve_mle(blocked, SolverConfig(method="pgd", partition=object()))
    with pytest.raises(ValueError):  # an edge between two blocks
        MleProblem(graph, data, blocks=np.repeat([0, 1], [11, 13]))


def test_precond_step_failure_names_its_report(monkeypatch):
    problem, _ = random_problem(np.random.default_rng(6))
    report = SolveReport(iterations=12, residual=0.5, converged=False, backend="cg")
    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal",
                        lambda self, b, tol=1e-10: (np.zeros(self.n), report))
    with pytest.raises(SolverError, match=re.escape(
            "preconditioner solve failed to converge (cg residual 5.00e-01 after 12 iterations)")):
        solve_mle(problem)
