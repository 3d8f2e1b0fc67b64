"""MLE loss/solvers, existence detection, closed form, and the spectral method."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from btlrank import (ComparisonData, ComparisonGraph, GridSpec, LaplacianError,
                     LaplacianOperator, MleProblem, NonexistenceError, ScoreVector, SolverConfig,
                     SolverError, closed_form_line, dc_community, dc_overlap, error_report,
                     exact_comparisons, generate_grid, generate_special, gradient,
                     grid_partition, loss, loss_and_gradient, make_scores,
                     mle_exists, partition_grid, sample_comparisons,
                     solve_mle, spectral_estimate, violating_partition)
from btlrank import estimators
from btlrank.estimators import SEARCH_TOL, ConvergenceTrace, _win_components, descend
from btlrank.model import fisher_laplacian
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
        assert_reference_kernel(problem, theta)
        old = counts * (-problem.data.y * d + np.logaddexp(0.0, d))
        assert value == pytest.approx(old.sum(), rel=1e-12, abs=0.0)
        assert loss(problem, theta) == value
        # term by term, one single-edge problem each
        for dk, yk, Lk, want in zip(d, y, counts.tolist(), old):
            line = generate_special("line", n=2, L=Lk)
            one = MleProblem(line, ComparisonData(line, np.array([yk * Lk])))
            assert loss(one, np.array([0.0, -dk])) == pytest.approx(want, rel=1e-12, abs=0.0)


def reference_loss_and_gradient(problem, theta):
    """The fused kernel written as one expression, a fresh array per operation."""
    g = problem.graph
    counts, y = problem._counts, problem.data.y
    d = theta[g.edge_i] - theta[g.edge_j]
    e = np.exp(-np.abs(d))
    value = float((counts * (np.maximum(d, 0.0) + np.log1p(e) - y * d)).sum())
    coef = counts * (np.maximum(e, d >= 0) / (1.0 + e) - y)
    return value, np.bincount(g.edge_i, coef, g.n) - np.bincount(g.edge_j, coef, g.n)


def assert_reference_kernel(problem, theta):
    """The in-place kernel gives the reference expression's loss and gradient bit for bit."""
    (value, g), (want_value, want_g) = (loss_and_gradient(problem, theta),
                                        reference_loss_and_gradient(problem, theta))
    assert type(value) is float and value == want_value
    assert value.hex() == want_value.hex()  # signed zeros too
    assert np.array_equal(g, want_g)
    assert g.dtype == want_g.dtype and g.tobytes() == want_g.tobytes()


@given(n=st.integers(1, 30), p=st.floats(0.0, 1.0), L=st.integers(1, 60),
       fractional=st.booleans(), scale=st.sampled_from([0.0, 1e-9, 1.0, 40.0, 800.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_is_the_reference_expression_bit_for_bit(n, p, L, fractional, scale, seed):
    # random graphs, edgeless ones included, with integral or fractional wins and gaps
    # from none to far past exp's range
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < p
    counts = rng.integers(1, L + 1, np.count_nonzero(keep))
    graph = ComparisonGraph(n, i[keep], j[keep], counts)
    wins = counts * rng.random(len(counts)) if fractional else rng.integers(0, counts + 1)
    problem = MleProblem(graph, ComparisonData(graph, wins))
    assert_reference_kernel(problem, scale * rng.normal(size=n))


def test_gradient_orthogonal_to_ones():
    rng = np.random.default_rng(55)
    problem, _ = random_problem(rng, n=9)
    theta = rng.normal(size=9)
    g = gradient(problem, theta)
    assert abs(g.sum()) <= 1e-12 * max(np.abs(g).sum(), 1.0)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_hessian_matches_central_differences_of_the_gradient(n):
    # the Hessian, fisher_laplacian, and the gradient kernel share no code, so each checks the other
    rng = np.random.default_rng(90 + n)
    problem, _ = random_problem(rng, n=n, L=20)
    step = 1e-5
    for _ in range(5):
        theta, v = 2.0 * rng.normal(size=n), rng.normal(size=n)
        hv = fisher_laplacian(problem.graph, theta).matrix @ v
        diff = (gradient(problem, theta + step * v)
                - gradient(problem, theta - step * v)) / (2 * step)
        assert np.abs(diff - hv).max() <= 1e-6 * max(np.abs(hv).max(), 1.0)


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


@given(sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3), p=st.floats(0.2, 1.0),
       L=st.sampled_from([1, 2]), with_blocks=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_existence_agrees_with_the_full_win_digraph(sizes, p, L, with_blocks, seed):
    # blocks of random edges side by side, numbered out of node order, with one-way
    # edges (wins 0 or L) common at L <= 2
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    block = rng.permutation(len(sizes))[np.repeat(np.arange(len(sizes)), sizes)]
    i, j = np.triu_indices(n, k=1)
    keep = (block[i] == block[j]) & (rng.random(len(i)) < p)
    graph = ComparisonGraph(n, i[keep], j[keep], np.full(np.count_nonzero(keep), L))
    wins = rng.integers(0, L + 1, size=graph.num_edges)
    problem = MleProblem(graph, ComparisonData(graph, wins), blocks=block if with_blocks else None)
    # the win digraph of every arc, i -> j when i beat j at least once
    ei, ej = graph.edge_i, graph.edge_j
    rows = np.concatenate([ei[wins > 0], ej[wins < L]])
    cols = np.concatenate([ej[wins > 0], ei[wins < L]])
    ncomp, comp = connected_components(
        coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)), connection="strong")
    if not with_blocks:
        block = np.zeros(n, dtype=np.int64)
    exists = all(len(np.unique(comp[block == a])) == 1 for a in np.unique(block))
    assert mle_exists(problem) == exists == (ncomp == problem.num_blocks)
    if exists:
        with pytest.raises(ValueError, match="MLE exists"):
            violating_partition(problem)
        return
    nodes = violating_partition(problem)
    # the first block without an MLE, and there the sink component holding the lowest node
    first = min(a for a in np.unique(block) if len(np.unique(comp[block == a])) > 1)
    beats = np.zeros(ncomp, dtype=bool)
    beats[comp[rows[comp[rows] != comp[cols]]]] = True
    sinks = np.flatnonzero((block == first) & ~beats[comp])
    assert nodes.tolist() == np.flatnonzero(comp == comp[sinks[0]]).tolist()
    # the set records no win over the rest of its block
    inside = np.isin(np.arange(n), nodes)
    rest = (block == first) & ~inside
    assert not np.any(inside[ei] & rest[ej] & (wins > 0))
    assert not np.any(rest[ei] & inside[ej] & (wins < L))


@given(n=st.integers(2, 12), p=st.floats(0.1, 1.0), L=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_mle_exists_exactly_when_the_loss_has_a_finite_minimiser(n, p, L, seed):
    # random graphs with wins of 0..L per edge; at L <= 3 many have no MLE
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < p
    graph = ComparisonGraph(n, i[keep], j[keep], np.full(np.count_nonzero(keep), L))
    problem = MleProblem(graph, ComparisonData(graph, rng.integers(0, L + 1, graph.num_edges)))
    if mle_exists(problem):
        scores, trace = solve_mle(problem)
        assert trace.converged and np.all(np.isfinite(scores.values))
        return
    nodes = violating_partition(problem)
    inside = np.isin(np.arange(n), nodes)
    assert 0 < len(nodes) < n
    if not np.any(inside[graph.edge_i] != inside[graph.edge_j]):
        return  # no edge leaves S: shifting S moves no edge gap, so no minimiser is unique
    # each cross edge adds L sigma(d) (S lost as i) or L (1 - sigma(d)) (S lost as j), both
    # > 0, so the loss falls along -1_S at every theta and has no finite minimiser
    for _ in range(5):
        theta = rng.normal(0.0, 2.0, n)
        assert gradient(problem, theta)[nodes].sum() > 0
        assert loss(problem, theta - inside) < loss(problem, theta)


@pytest.mark.parametrize("case", ["star", "disconnected", "chain"])
def test_spectral_and_the_mle_report_the_same_violating_set(case):
    if case == "star":  # the centre lost every comparison
        graph = ComparisonGraph(5, np.zeros(4), np.arange(1, 5), np.full(4, 3))
        wins = np.zeros(4)
    elif case == "disconnected":  # two triangles, each with an MLE of its own
        graph = ComparisonGraph(6, np.array([0, 0, 1, 3, 3, 4]), np.array([1, 2, 2, 4, 5, 5]),
                                np.full(6, 4))
        wins = np.full(6, 2.0)
    else:  # a path whose first three nodes never beat the last three
        graph = generate_special("line", n=6, L=2)
        wins = np.array([1, 1, 0, 1, 1])
    data = ComparisonData(graph, wins)
    with pytest.raises(NonexistenceError) as mle:
        solve_mle(MleProblem(graph, data))
    with pytest.raises(NonexistenceError) as spectral:
        spectral_estimate(graph, data)
    assert str(spectral.value) == str(mle.value)
    assert spectral.value.nodes.tolist() == mle.value.nodes.tolist()


def old_win_components(problem):
    """The pieces of the two-way edges from an undirected search on their COO matrix, then
    the strong components of the one-way arcs between pieces."""
    g, wins = problem.graph, problem.data.wins
    two_way = (wins > 0) & (wins < g.counts)
    joined = coo_matrix((np.ones(np.count_nonzero(two_way)),
                         (g.edge_i[two_way], g.edge_j[two_way])), shape=(g.n, g.n))
    npiece, piece = connected_components(joined, directed=False)
    i_won = wins[~two_way] > 0
    ei, ej = g.edge_i[~two_way], g.edge_j[~two_way]
    winner, loser = piece[np.where(i_won, ei, ej)], piece[np.where(i_won, ej, ei)]
    between = winner != loser
    winner, loser = winner[between], loser[between]
    if not len(winner):
        return npiece, piece, winner, loser
    arcs = coo_matrix((np.ones(len(winner)), (winner, loser)), shape=(npiece, npiece))
    ncomp, comp = connected_components(arcs, connection="strong")
    return ncomp, comp[piece], comp[winner], comp[loser]


@pytest.mark.parametrize("shuffled", [False, True])
def test_win_pieces_match_the_undirected_search(shuffled):
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        i, j = np.triu_indices(n, k=1)
        keep = rng.random(len(i)) < rng.uniform(0.05, 0.6)
        ei, ej = i[keep], j[keep]
        if shuffled:  # edges out of edge_i order take the sorting branch
            order = rng.permutation(len(ei))
            ei, ej = ei[order], ej[order]
        L = int(rng.integers(1, 4))
        graph = ComparisonGraph(n, ei, ej, np.full(len(ei), L))
        # one-way edges (0 or L wins) mixed with two-way ones, at a rate drawn per trial
        one_way = rng.random(len(ei)) < rng.uniform(0.0, 1.0)
        wins = np.where(one_way, L * rng.integers(0, 2, len(ei)), rng.integers(1, L, len(ei))
                        if L > 1 else 0)
        problem = MleProblem(graph, ComparisonData(graph, wins))
        got, want = _win_components(problem), old_win_components(problem)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)


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


def test_precond_gd_inexact_search_direction_on_cg(tmp_path, monkeypatch):
    # a 30x30 grid with band 60 puts the L_G/4 preconditioner on CG, where each step's
    # solve runs from 0 and stops at SEARCH_TOL while the stop test reads the true gradient
    rng = np.random.default_rng(31)
    graph = generate_grid(GridSpec(kind="grid2d", n=900, r=2, p=0.8), L=20, rng=rng)
    problem = MleProblem(graph, sample_comparisons(graph, make_scores("linear2d", 900, 2), rng))
    pre = LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, 0.25 * graph.counts)
    assert not pre.factored
    solve, calls = LaplacianOperator.solve_orthogonal, []

    def recorded(self, b, tol=1e-10):
        v, report = solve(self, b, tol=tol)
        calls.append((b, v, report))
        return v, report

    with monkeypatch.context() as patch:
        patch.setattr(LaplacianOperator, "solve_orthogonal", recorded)
        scores, trace = solve_mle(problem)
    assert trace.converged
    assert np.linalg.norm(gradient(problem, scores.values)) <= 1e-8 * problem.graph.total_samples
    assert len(trace.inner_iters) == len(trace.inner_residual) == len(trace.iterations) - 1
    assert max(trace.inner_residual) <= SEARCH_TOL
    assert trace.inner_iters == [report.iterations for *_, report in calls]
    for g, v, report in calls:
        assert report.backend == "cg" and report.residual <= SEARCH_TOL
        # CG from 0 leaves a residual orthogonal to v: g^T v = v^T L v > 0 at any tolerance
        energy = v @ (pre.matrix @ v)
        assert energy > 0 and abs(g @ v - energy) <= 1e-9 * energy

    def cold_descent(tol):
        iters = []

        def step(theta, g):
            # CG itself: at 1e-10 the price gives this operator's solves the factor
            v, it, _ = pre._cg(pre._center(g), tol)
            iters.append(it)
            return theta - v

        result, result_trace = descend(problem, step, "precond_gd", 500, 1e-8, None)
        assert result_trace.converged
        return result, result_trace, iters

    # each step is the cold CG solve at SEARCH_TOL, bit for bit
    want, want_trace, cold_iters = cold_descent(SEARCH_TOL)
    assert scores.values.tobytes() == want.values.tobytes()
    assert trace.losses == want_trace.losses and trace.inner_iters == cold_iters
    ref, _, exact_iters = cold_descent(1e-10)
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
    # L_G/4 at step 1/4 is L_G at step 1, bit for bit, on the factor (1D) and on CG (2D):
    # a power-of-two scaling of L keeps CG exact
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


def reference_power_iteration(graph, data, tol, max_iter):
    """Power iteration on P^T built by way of P: row sums from one COO, P from a
    second, then P.T.tocsr(). Returns pi and the iteration count."""
    n = graph.n
    d = 1.0 + float(graph.degrees().max())
    rows = np.concatenate([graph.edge_i, graph.edge_j])
    cols = np.concatenate([graph.edge_j, graph.edge_i])
    vals = np.concatenate([(1.0 - data.y) / d, data.y / d])
    diag = 1.0 - np.asarray(coo_matrix((vals, (rows, cols)), shape=(n, n)).sum(axis=1)).ravel()
    P = coo_matrix((np.concatenate([vals, diag]),
                    (np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)]))),
                   shape=(n, n)).tocsr()
    Pt = P.T.tocsr()
    pi = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        nxt = Pt @ pi
        nxt /= nxt.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = (np.abs(nxt - pi) / nxt).max()  # the largest per-entry relative change
        pi = nxt
        if residual <= tol:
            break
    return pi, it


def spectral_instance(outcome):
    """A spectral run that converges, one that exhausts its budget, one whose
    stationary distribution underflows, and one whose smallest entries are far
    below the l1 tolerance and still moving when the budget runs out, as
    (graph, data, keyword arguments)."""
    if outcome == "converged":
        graph = generate_special("complete", n=12, L=200)
        data = sample_comparisons(graph, make_scores("sine", 12, 3), np.random.default_rng(4))
        return graph, data, {"max_iter": 50_000}
    if outcome == "budget":
        graph = generate_grid(GridSpec(kind="grid1d", n=240, r=10), L=1)
        return graph, exact_comparisons(graph, make_scores("linear", 240, 10)), {}
    graph = generate_special("line", n=30, L=1)  # a gap of 40 per edge: pi spans e^-1160
    data = exact_comparisons(graph, ScoreVector.zero_sum(40.0 * np.arange(30)))
    return graph, data, {} if outcome == "steep" else {"tol": 0.0, "max_iter": 3000}


@pytest.mark.parametrize("outcome", ["converged", "budget", "steep"])
def test_spectral_matches_the_power_iteration_on_p_transposed(outcome):
    graph, data, kwargs = spectral_instance(outcome)
    result = spectral_estimate(graph, data, **kwargs)
    want_pi, want_it = reference_power_iteration(graph, data, kwargs.get("tol", 1e-13),
                                                 kwargs.get("max_iter", 300))
    assert result.converged == (outcome == "converged")
    assert result.pi.tobytes() == want_pi.tobytes() and result.iterations == want_it


@pytest.mark.parametrize("outcome, converged, underflow, reason", [
    ("converged", True, False, ""),
    ("budget", False, False, "small stationary entries not resolved within the iteration budget"),
    ("underflow", True, True, "stationary distribution underflow; log-scores may contain -inf"),
    # an l1 residual of 5.8e-14 would stop this run at 219 iterations with pi.min() 9.1e-41
    # against a truth near e^-1160; the per-entry relative residual does not stop it
    ("steep", False, False, "small stationary entries not resolved within the iteration budget"),
])
def test_spectral_failure_and_reason_follow_the_run(outcome, converged, underflow, reason):
    graph, data, kwargs = spectral_instance(outcome)
    result = spectral_estimate(graph, data, **kwargs)
    assert (result.converged, result.underflow) == (converged, underflow)
    assert result.failed == (outcome != "converged") and result.reason == reason
    assert result.theta.gauge == ("raw" if underflow else "zero-sum")
    assert (result.pi.min() < 1e-300) == underflow
    assert underflow or np.all(np.isfinite(result.theta.values))


def reference_descend(problem, step, method, max_iter, grad_tol_factor, reference):
    """The descent loop on the reference kernel, with np.linalg.norm, np.isfinite and
    np.abs(...).max() for its bookkeeping."""
    theta = np.zeros(problem.graph.n)
    blocks = problem.blocks
    if blocks is None:
        tol = grad_tol_factor * problem.graph.total_samples
    else:
        m = problem.num_blocks
        tol = grad_tol_factor * np.bincount(blocks[problem.graph.edge_i], problem.graph.counts, m)
        moving = np.ones(m, dtype=bool)
        stopped_at = np.full(m, -1)
    trace = ConvergenceTrace(method=method)
    if reference is not None:
        reference = reference - reference.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(max_iter + 1):
            lv, g = reference_loss_and_gradient(problem, theta)
            gn = float(np.linalg.norm(g))
            if not (np.isfinite(lv) and np.isfinite(gn)):
                raise SolverError(f"{method} diverged at iteration {t}: "
                                  "non-finite loss or gradient")
            ref_err = None
            if reference is not None:
                ref_err = float(np.abs((theta - theta.mean()) - reference).max())
            trace.record(t, lv, gn, ref_err)
            if blocks is None:
                stop = gn <= tol
            else:
                moving &= np.sqrt(np.bincount(blocks, g * g, m)) > tol
                stopped_at[~moving & (stopped_at < 0)] = t
                stop = not moving.any()
            if stop:
                trace.converged = True
                break
            if t < max_iter:
                if blocks is None:
                    theta = step(theta, g)
                else:
                    here = moving[blocks]
                    theta = np.where(here, step(theta, np.where(here, g, 0.0)), theta)
    if blocks is not None:
        trace.block_stop_iter = stopped_at
    return ScoreVector.zero_sum(theta), trace


def blocked_grids(rng):
    """Two 12-node grids side by side as one problem with two blocks, the second grid
    with ten times the samples; returns it and the two grids' own problems."""
    parts = []
    for L in (20, 200):
        graph = generate_grid(GridSpec(kind="grid1d", n=12, r=3, p=0.9), L=L, rng=rng)
        parts.append(MleProblem(graph, sample_comparisons(graph, make_scores("sine", 12, 3), rng)))
    a, b = (p.graph for p in parts)
    graph = ComparisonGraph(n=24, edge_i=np.concatenate([a.edge_i, b.edge_i + 12]),
                            edge_j=np.concatenate([a.edge_j, b.edge_j + 12]),
                            counts=np.concatenate([a.counts, b.counts]))
    data = ComparisonData(graph, np.concatenate([p.data.wins for p in parts]))
    return MleProblem(graph, data, blocks=np.repeat([0, 1], 12)), parts


def descent_case(case):
    """A problem and a solver configuration for each path through the descent loop."""
    rng = np.random.default_rng(41)
    if case.startswith("blocks"):
        problem, _ = blocked_grids(rng)
        method = case.split("-", 1)[1]
        return problem, SolverConfig(method=method, step_size=2e-3 if method == "gd" else None,
                                     max_iter=400)
    spec = GridSpec(kind="grid1d", n=40, r=4, p=0.8)
    graph = generate_grid(spec, L=30, rng=rng)
    truth = make_scores("sine", 40, 4)
    problem = MleProblem(graph, sample_comparisons(graph, truth, rng))
    ref, _ = solve_mle(problem, SolverConfig(grad_tol_factor=1e-12))
    configs = {
        "gd": SolverConfig(method="gd", max_iter=600, reference=ref.values),
        # theta starts at 0, so the first distance to a zero reference is exactly zero
        "gd-zero-reference": SolverConfig(method="gd", max_iter=50, reference=np.zeros(40)),
        "gd-constant-reference": SolverConfig(method="gd", max_iter=50,
                                              reference=np.full(40, -2.5)),
        "pgd": SolverConfig(method="pgd", partition=grid_partition(spec, "overlapping"),
                            max_iter=300, reference=ref.values),
        "cd": SolverConfig(method="cd", reference=ref.values),
        "precond_gd-lg": SolverConfig(method="precond_gd", reference=ref.values),
        "precond_gd-oracle": SolverConfig(method="precond_gd", oracle_scores=truth,
                                          reference=ref.values),
    }
    return problem, configs[case]


@pytest.mark.parametrize("case", ["gd", "gd-zero-reference", "gd-constant-reference", "pgd",
                                  "cd", "precond_gd-lg", "precond_gd-oracle", "blocks-gd",
                                  "blocks-cd", "blocks-precond_gd"])
def test_descend_is_the_reference_loop_bit_for_bit(case, monkeypatch):
    problem, config = descent_case(case)
    scores, trace = solve_mle(problem, config)
    monkeypatch.setattr(estimators, "descend", reference_descend)
    want_scores, want = solve_mle(problem, config)
    assert scores.values.tobytes() == want_scores.values.tobytes()
    # repr is what the trace CSV writes: it tells -0.0 from 0.0 and a float from a numpy one
    for name in ("iterations", "losses", "grad_norms", "ref_linf", "inner_iters",
                 "inner_residual"):
        assert repr(getattr(trace, name)) == repr(getattr(want, name)), name
    assert len(trace.ref_linf) == (0 if config.reference is None else len(trace.iterations))
    assert trace.converged == want.converged
    if case.startswith("blocks"):
        assert np.array_equal(trace.block_stop_iter, want.block_stop_iter)
    if case.endswith("reference") and case != "gd":
        assert trace.ref_linf[0] == 0.0 and math.copysign(1.0, trace.ref_linf[0]) == 1.0


def test_a_zero_distance_keeps_the_sign_that_abs_gives_it():
    # a step to theta = (0, ..., 0, -0): with a zero reference, x = theta - mean - reference
    # ends in -0.0, where max(x) reads -0.0 and np.abs(x).max() reads 0.0
    problem, _ = random_problem(np.random.default_rng(4), n=6)

    def step(theta, _g):
        out = np.zeros_like(theta)
        out[-1] = -0.0
        return out

    args = (problem, step, "gd", 1, 0.0, np.zeros(6))
    got, want = descend(*args)[1], reference_descend(*args)[1]
    assert repr(got.ref_linf) == repr(want.ref_linf) == "[0.0, 0.0]"


def test_a_diverging_step_raises_at_the_reference_iteration(monkeypatch):
    problem, _ = random_problem(np.random.default_rng(31), n=8, L=10)
    # the first two steps stay finite; the third overflows theta
    config = SolverConfig(method="gd", step_size=1e305)
    with pytest.raises(SolverError, match="gd diverged at iteration 3:") as got:
        solve_mle(problem, config)
    monkeypatch.setattr(estimators, "descend", reference_descend)
    with pytest.raises(SolverError) as want:
        solve_mle(problem, config)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("k", [-3, 0, 12, 40])
def test_a_dyadic_score_shift_leaves_every_estimator_unchanged(k):
    # scores on multiples of 1/8, shifted by c = 2^k: every edge gap is exact, so the
    # exact data are the same, and so is every estimate made from them
    spec = GridSpec(kind="grid1d", n=48, r=4, p=1.0)
    graph = generate_grid(spec, L=20)
    base = np.random.default_rng(10).integers(-12, 13, graph.n) / 8
    scores = [ScoreVector(base, gauge="raw"), ScoreVector(base + 2.0 ** k, gauge="raw")]
    assert np.array_equal(scores[1].values - 2.0 ** k, base)
    data = [exact_comparisons(graph, s) for s in scores]
    assert np.array_equal(data[0].wins, data[1].wins)
    overlapping, disjoint = grid_partition(spec, "overlapping"), grid_partition(spec, "disjoint")
    outputs = []
    for s, d in zip(scores, data):
        problem = MleProblem(graph, d)
        estimates = {"spectral": spectral_estimate(graph, d).theta,
                     "dc_overlap": dc_overlap(graph, d, overlapping)[0],
                     "dc_community": dc_community(graph, d, disjoint)[0]}
        # the oracle preconditioner reads the scores themselves, through their gaps
        for name, config in (("precond_gd", SolverConfig()),
                             ("precond_gd-oracle", SolverConfig(oracle_scores=s)),
                             ("gd", SolverConfig(method="gd", max_iter=300)),
                             ("cd", SolverConfig(method="cd", max_iter=300)),
                             ("pgd", SolverConfig(method="pgd", partition=overlapping,
                                                  max_iter=300))):
            estimates[name] = solve_mle(problem, config)[0]
        outputs.append(estimates)
    for name, want in outputs[0].items():
        assert np.array_equal(outputs[1][name].values, want.values), name


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
        lambda_2 = np.linalg.eigvalsh(fisher_laplacian(graph, want.values).matrix.toarray())[1]
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
    blocked, parts = blocked_grids(np.random.default_rng(8))
    graph, data = blocked.graph, blocked.data
    assert mle_exists(blocked) and not mle_exists(MleProblem(graph, data))
    for method in ("gd", "cd", "precond_gd"):
        config = SolverConfig(method=method, step_size=2e-3 if method == "gd" else None)
        scores, trace = solve_mle(blocked, config)
        assert trace.converged and (trace.block_stop_iter >= 0).all()
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
    with pytest.raises(SolverError):
        solve_mle(blocked, SolverConfig(method="pgd", partition=object()))
    with pytest.raises(ValueError):  # an edge between two blocks
        MleProblem(graph, data, blocks=np.repeat([0, 1], [11, 13]))


def test_precond_step_failure_names_its_report(monkeypatch):
    # the 6-node complete graph factors; a factor answer tripled leaves the residual 2 b,
    # and a backward error of 1/3 on L_G/4, whose centred spectrum is one eigenvalue
    problem, _ = random_problem(np.random.default_rng(6))
    solve = LaplacianOperator._factor_solve
    monkeypatch.setattr(LaplacianOperator, "_factor_solve", lambda self, b: 3 * solve(self, b))
    with pytest.raises(LaplacianError, match=re.escape(
            f"Laplacian solve on 6 nodes did not reach {SEARCH_TOL:g} (factor residual 2.00e+00 "
            "after 0 iterations)")):
        solve_mle(problem)


@pytest.mark.parametrize("field, value, message", [
    ("max_iter", -1, "max_iter must be >= 0, not -1"),
    ("step_size", -0.5, "step_size must be finite and positive, not -0.5"),
    ("step_size", 0.0, "step_size must be finite and positive, not 0.0"),
    ("step_size", math.inf, "step_size must be finite and positive, not inf"),
    ("step_size", math.nan, "step_size must be finite and positive, not nan"),
    ("grad_tol_factor", -1e-8, "grad_tol_factor must be finite and non-negative, not -1e-08"),
    ("grad_tol_factor", math.inf, "grad_tol_factor must be finite and non-negative, not inf"),
    ("grad_tol_factor", math.nan, "grad_tol_factor must be finite and non-negative, not nan"),
    ("method", "bogus", "unknown method 'bogus'; choose from ['gd', 'cd', 'precond_gd', 'pgd']"),
])
def test_solver_config_rejects_a_silent_non_answer(field, value, message):
    # max_iter -1 returned zeros and an empty trace; a negative step climbed the loss; an
    # unknown method ran the existence check and then raised SolverError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverConfig(**{"method": "gd", field: value})


def test_trace_failure_and_reason_follow_the_run():
    problem, _ = random_problem(np.random.default_rng(6))
    _, capped = solve_mle(problem, SolverConfig(method="gd", max_iter=2))
    assert not capped.converged and capped.failed
    assert capped.reason == "hit the iteration cap before the gradient tolerance"
    _, done = solve_mle(problem)
    assert done.converged and not done.failed and done.reason == ""


def test_solver_config_keeps_zero_iterations_and_a_zero_tolerance():
    graph = generate_grid(GridSpec(kind="grid1d", n=40, r=4), L=20)
    data = sample_comparisons(graph, make_scores("sine", 40, 4), np.random.default_rng(2))
    problem = MleProblem(graph, data)
    scores, trace = solve_mle(problem, SolverConfig(method="gd", max_iter=0))
    assert trace.iterations == [0] and not trace.converged and not np.any(scores.values)
    _, trace = solve_mle(problem, SolverConfig(method="gd", grad_tol_factor=0.0, max_iter=3))
    assert trace.iterations == [0, 1, 2, 3]
