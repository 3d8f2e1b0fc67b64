"""Laplacian operator, pseudo-inverse solves, and effective resistances."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import cholesky_banded
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from btlrank import (GraphError, GridSpec, LaplacianError, LaplacianOperator, generate_grid,
                     generate_special, grid_partition)
from btlrank.dc import _shared_laplacian
from btlrank.estimators import SEARCH_TOL
from btlrank.laplacian import (DEFAULT_TOL, FACTOR_LIMIT, ITER_COST, ITER_FLOOR, SELINV_BLOCK,
                               SOLVE_COST)
from graph_helpers import unit_columns


def dense_resistance(op: LaplacianOperator, k: int, l: int) -> float:
    pinv = np.linalg.pinv(op.matrix.toarray())
    e = np.zeros(op.n)
    e[k], e[l] = 1.0, -1.0
    return float(e @ pinv @ e)


def random_operator(rng, n=8):
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < 0.5
    i, j = i[keep], j[keep]
    # splice in a spanning path so the graph stays connected
    pi = np.arange(n - 1)
    ei = np.concatenate([i, pi])
    ej = np.concatenate([j, pi + 1])
    w = rng.uniform(0.2, 3.0, size=len(ei))
    return LaplacianOperator(n, ei, ej, w)


def test_series_law():
    # resistances 1, 2, 3 in series: conductances 1, 1/2, 1/3
    op = LaplacianOperator(4, [0, 1, 2], [1, 2, 3], [1.0, 0.5, 1.0 / 3.0])
    assert op.effective_resistance(0, 3) == pytest.approx(6.0, abs=1e-10)


def test_parallel_law():
    op = LaplacianOperator(2, [0], [1], [1.0 + 3.0])  # parallel conductances merge
    assert op.effective_resistance(0, 1) == pytest.approx(0.25, abs=1e-12)


def test_parallel_edges_merge_at_assembly():
    op = LaplacianOperator(2, [0, 0], [1, 1], [1.0, 3.0])
    assert op.effective_resistance(0, 1) == pytest.approx(0.25, abs=1e-12)


def test_matches_dense_pinv_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        op = random_operator(rng)
        k, l = rng.choice(op.n, size=2, replace=False)
        got = op.effective_resistance(int(k), int(l), tol=1e-12)
        assert got == pytest.approx(dense_resistance(op, int(k), int(l)), rel=1e-8)


def test_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(30):
        op = random_operator(rng)
        a, b, c = rng.choice(op.n, size=3, replace=False)
        oab = op.effective_resistance(int(a), int(b))
        obc = op.effective_resistance(int(b), int(c))
        oac = op.effective_resistance(int(a), int(c))
        assert oac <= oab + obc + 1e-10


def test_rayleigh_monotonicity():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = 8
        i, j = np.triu_indices(n, k=1)
        w = rng.uniform(0.5, 2.0, size=len(i))
        op = LaplacianOperator(n, i, j, w)
        drop = rng.integers(len(i))
        w2 = w.copy()
        w2[drop] *= 0.3  # decrease one edge weight
        op2 = LaplacianOperator(n, i, j, w2)
        for k in range(n):
            for l in range(k + 1, n):
                assert op2.effective_resistance(k, l) >= \
                    op.effective_resistance(k, l) - 1e-9


def test_solve_orthogonal_output():
    rng = np.random.default_rng(3)
    op = random_operator(rng, n=12)
    b = rng.normal(size=12)
    b -= b.mean()
    x, _ = op.solve_orthogonal(b, tol=1e-12)
    assert abs(x.sum()) <= 1e-12 * max(np.linalg.norm(x), 1.0) * 12
    assert np.linalg.norm(op.matrix @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_iterative_path_matches_dense_path():
    # n above the dense threshold exercises the conjugate-gradient branch
    rng = np.random.default_rng(17)
    n = 250
    pi = np.arange(n - 1)
    extra_i = rng.integers(0, n, size=300)
    extra_j = rng.integers(0, n, size=300)
    ok = extra_i != extra_j
    ei = np.concatenate([pi, np.minimum(extra_i[ok], extra_j[ok])])
    ej = np.concatenate([pi + 1, np.maximum(extra_i[ok], extra_j[ok])])
    w = rng.uniform(0.5, 2.0, size=len(ei))
    op = LaplacianOperator(n, ei, ej, w)
    pinv = np.linalg.pinv(op.matrix.toarray())
    for k, l in [(0, n - 1), (3, 77), (120, 121)]:
        e = np.zeros(n)
        e[k], e[l] = 1.0, -1.0
        want = float(e @ pinv @ e)
        assert op.effective_resistance(k, l, tol=1e-12) == \
            pytest.approx(want, rel=1e-8)


def test_resistance_matrix_symmetric_pairs():
    op = LaplacianOperator(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 2.0, 1.0, 0.5])
    table = op.resistance_matrix()
    assert len(table) == 6
    assert table[(0, 1)] == pytest.approx(dense_resistance(op, 0, 1), rel=1e-9)
    sub = op.resistance_matrix(pairs=[(2, 0)])
    assert set(sub) == {(0, 2)}


def test_disconnected_solve_rejected():
    op = LaplacianOperator(4, [0, 2], [1, 3], [1.0, 1.0])
    assert not op.connected
    with pytest.raises(LaplacianError):
        op.effective_resistance(0, 3)


def test_invalid_weights_rejected():
    with pytest.raises(LaplacianError):
        LaplacianOperator(2, [0], [1], [-1.0])
    with pytest.raises(LaplacianError):
        LaplacianOperator(2, [0], [0], [1.0])
    # a NaN passes a w <= 0 test; without the check the first solve would
    # fail inside scipy instead of at construction
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(LaplacianError, match="positive and finite"):
            LaplacianOperator(3, [0, 1], [1, 2], [1.0, bad])


def path_operator(n=250):
    # a path closed by the edge (0, n - 1): n above FACTOR_LIMIT and a band of
    # n - 1, so solves take the conjugate-gradient path
    i = np.arange(n - 1)
    return LaplacianOperator(n, np.append(i, 0), np.append(i + 1, n - 1), np.ones(n))


def test_cg_rejects_nonfinite_rhs():
    op = path_operator()
    for bad in (np.nan, np.inf):
        b = np.zeros(op.n)
        b[0], b[-1] = 1.0, bad
        with pytest.raises(LaplacianError):
            op.solve_orthogonal(b)
    _, report = op.solve_orthogonal(np.eye(op.n)[0])
    assert report.backend == "cg"


def test_cg_stops_without_positive_curvature(monkeypatch):
    # a negated operator has p^T A p < 0 on the first search direction
    op = path_operator()
    monkeypatch.setattr(op, "matrix", -op.matrix)
    b = np.zeros(op.n)
    b[0], b[-1] = 1.0, -1.0
    with pytest.raises(LaplacianError, match=r"did not reach 1e-10 \(cg residual .* after 1 iterations\)"):
        op.solve_orthogonal(b)


def test_csr_operator_matches_edge_sum():
    # the edge list repeats some edges, so assembly has to merge them
    rng = np.random.default_rng(5)
    n = 9
    ei = rng.integers(0, n - 1, size=30)
    ej = ei + rng.integers(1, n - ei)
    w = rng.uniform(0.2, 3.0, size=30)
    op = LaplacianOperator(n, ei, ej, w)
    want = np.zeros((n, n))
    for i, j, wij in zip(ei, ej, w):
        e = np.zeros(n)
        e[i], e[j] = 1.0, -1.0
        want += wij * np.outer(e, e)
    assert np.allclose(op.matrix.toarray(), want, atol=1e-12)
    assert np.allclose(op.degree, np.diag(want), atol=1e-12)
    x = rng.normal(size=n)
    assert np.allclose(op.matrix @ x, want @ x, atol=1e-12)


def test_pinv_columns_match_dense_pinv():
    rng = np.random.default_rng(11)
    op = random_operator(rng, n=10)
    cols = unit_columns(op, [0, 4, 9], tol=1e-12)
    pinv = np.linalg.pinv(op.matrix.toarray())
    assert np.allclose(cols, pinv[:, [0, 4, 9]], atol=1e-10)


def banded_edges(rng, n, band, long_edges):
    # a spanning path, random edges of length at most ``band`` including one
    # of exactly that length, and ``long_edges`` edges of any length
    i = rng.integers(0, n - band, size=2 * n)
    j = i + rng.integers(1, band + 1, size=2 * n)
    li = rng.integers(0, n, size=long_edges)
    lj = rng.integers(0, n, size=long_edges)
    ok = li != lj
    ei = np.concatenate([np.arange(n - 1), i, [0], np.minimum(li, lj)[ok]])
    ej = np.concatenate([np.arange(1, n), j, [band], np.maximum(li, lj)[ok]])
    return ei, ej, rng.uniform(0.5, 2.0, size=len(ei))


def banded_operator(rng, n, band, long_edges):
    return LaplacianOperator(n, *banded_edges(rng, n, band, long_edges))


def factor_price_pays(n, band, nnz, largest, k, tol):
    """Whether k non-zero columns to tol take the factor before any is built: for components
    of at most FACTOR_LIMIT nodes, or when building it (n band^2) and k banded solves of
    SOLVE_COST n band cost no more than k CG columns of max(n / band, ITER_FLOOR) iterations
    of nnz + ITER_COST flops, weighted 1 at 1e-2, 100 at 1e-10 and geometric in between."""
    weight = (1e-2 / min(max(tol, 1e-10), 1e-2)) ** 0.25
    return largest <= FACTOR_LIMIT or n * band * (band + SOLVE_COST * k) <= (
        weight * k * max(n / band, ITER_FLOOR) * (nnz + ITER_COST))


def priced_backend(op, k, tol):
    """The backend ``factor_price_pays`` gives a solve on ``op`` before any factor is built."""
    pays = factor_price_pays(op.n, op.band, op.matrix.nnz, np.bincount(op.components).max(),
                             k, tol)
    return "factor" if pays else "cg"


def test_backend_selected_from_band():
    graph = generate_grid(GridSpec(kind="grid1d", n=500, r=10), L=1)
    b = np.zeros(500)
    b[0], b[-1] = 1.0, -1.0
    op = LaplacianOperator(500, graph.edge_i, graph.edge_j, np.ones(graph.num_edges))
    assert op.band == 10
    assert op.solve_orthogonal(b)[1].backend == "factor"
    rng = np.random.default_rng(2)
    extra_i, extra_j = rng.integers(0, 250, size=20), rng.integers(250, 500, size=20)
    wide = LaplacianOperator(500, np.append(graph.edge_i, extra_i),
                             np.append(graph.edge_j, extra_j), np.ones(graph.num_edges + 20))
    assert wide.band ** 3 > wide.matrix.nnz
    assert wide.solve_orthogonal(b)[1].backend == "cg"


@pytest.mark.parametrize("long_edges, backend", [(0, "factor"), (40, "cg")])
def test_both_backends_match_dense_pinv(long_edges, backend):
    rng = np.random.default_rng(19)
    op = banded_operator(rng, 260, 4, long_edges)
    pinv = np.linalg.pinv(op.matrix.toarray())
    b = rng.normal(size=op.n)
    x, report = op.solve_orthogonal(b)
    assert report.backend == backend
    assert np.allclose(x, pinv @ b, atol=1e-8)
    nodes = [0, 7, 259]
    assert np.allclose(unit_columns(op, nodes), pinv[:, nodes], atol=1e-8)


def test_single_node_operator():
    op = LaplacianOperator(1, [], [], [])
    x, report = op.solve_orthogonal(np.array([3.0]))
    assert x.tolist() == [0.0] and report.backend == "factor"
    assert unit_columns(op, [0]).tolist() == [[0.0]]
    assert op.resistance_matrix() == {}


def test_disconnected_solve_is_the_pseudo_inverse():
    op = LaplacianOperator(5, [0, 2], [1, 3], [1.0, 2.0])  # node 4 has no edges
    assert op.factored and op.ncomp == 3
    pinv = np.linalg.pinv(op.matrix.toarray())
    b = np.array([1.0, 2.0, 0.0, -1.0, 5.0])
    x, _ = op.solve_orthogonal(b)
    assert np.allclose(x, pinv @ b, atol=1e-12)
    assert np.allclose(unit_columns(op, [0, 3, 4]), pinv[:, [0, 3, 4]], atol=1e-12)
    assert op.effective_resistance(2, 3) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(LaplacianError, match="different components"):
        op.resistance_matrix(pairs=[(2, 3), (0, 4)])


@given(n=st.integers(2, 60) | st.integers(201, 400), band=st.integers(1, 12) | st.integers(1, 399),
       long_edges=st.sampled_from([0, 20]), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_properties_on_random_connected_graphs(n, band, long_edges, seed):
    rng = np.random.default_rng(seed)
    op = banded_operator(rng, n, min(band, n - 1), long_edges)
    b = rng.normal(size=n)
    b -= b.mean()
    x, report = op.solve_orthogonal(b)
    assert report.backend == priced_backend(op, 1, DEFAULT_TOL)
    assert report.backend == "factor" or not op.factored
    assert np.linalg.norm(op.matrix @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert abs(x.sum()) <= 1e-10 * max(np.linalg.norm(x), 1.0)
    assert np.allclose(x, np.linalg.pinv(op.matrix.toarray()) @ b, atol=1e-8)


@given(sizes=st.lists(st.just(1) | st.integers(2, 60), min_size=1, max_size=4),
       wide=st.just(0) | st.integers(201, 260), band=st.integers(1, 8), k=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pseudo_inverse_on_graphs_with_several_components(sizes, wide, band, k, seed):
    # components side by side, a size of 1 being a node without edges; with ``wide`` the
    # first has that many nodes and is closed into a cycle, a band too wide to factor
    rng = np.random.default_rng(seed)
    sizes = [wide or sizes[0]] + sizes[1:]
    edges = [([0], [wide - 1], [1.0])] if wide else []
    offset = 0
    for size in sizes:
        if size > 1:
            i, j, wc = banded_edges(rng, size, min(band, size - 1), 20 if size == wide else 0)
            edges.append((i + offset, j + offset, wc))
        offset += size
    ei, ej, w = (np.concatenate(part) for part in zip(*edges)) if edges else ([], [], [])
    op = LaplacianOperator(offset, ei, ej, w)
    assert op.ncomp == len(sizes) and op.factored == (not wide)
    pinv = np.linalg.pinv(op.matrix.toarray())
    # integer columns sum exactly in any order, so each column centres as it does alone
    b = rng.integers(-5, 6, size=(op.n, k)).astype(np.float64)
    x, report = op.solve_orthogonal(b)
    assert report.backend == ("cg" if wide else "factor")
    assert np.allclose(x, pinv @ b, atol=1e-8)
    singles = [op.solve_orthogonal(col) for col in b.T]
    for col, (v, single) in zip(b.T, singles):
        assert single.backend == report.backend
        assert np.allclose(v, pinv @ col, atol=1e-8)
    assert report.iterations == sum(single.iterations for _, single in singles)
    if not wide:
        assert report.iterations == 0
    nodes = rng.choice(op.n, size=min(k, op.n), replace=False)
    assert np.allclose(unit_columns(op, nodes), pinv[:, nodes], atol=1e-8)


def test_jacobi_cg_on_a_node_without_edges():
    # a wide band on nodes 0..259 and node 260 alone, whose Jacobi weight is 0, not 1 / 0
    rng = np.random.default_rng(31)
    ei = np.concatenate([np.arange(259), rng.integers(0, 130, size=60)])
    ej = np.concatenate([np.arange(1, 260), rng.integers(130, 260, size=60)])
    op = LaplacianOperator(261, ei, ej, np.ones(len(ei)))
    assert not op.factored and op.ncomp == 2
    b = rng.normal(size=261)
    x, report = op.solve_orthogonal(b)
    assert report.backend == "cg"
    assert np.allclose(x, np.linalg.pinv(op.matrix.toarray()) @ b, atol=1e-8)
    assert x[260] == 0.0


@pytest.mark.parametrize("sizes, long_edges, backend", [((30, 2, 55, 1), 0, "factor"),
                                                          ((260, 240), 40, "cg")])
def test_block_diagonal_solve_matches_pinv_per_block(sizes, long_edges, backend):
    rng = np.random.default_rng(23)
    ops, ei, ej, w = [], [], [], []
    offset = 0
    for size in sizes:
        op = (banded_operator(rng, size, min(4, size - 1), long_edges) if size > 1
              else LaplacianOperator(1, [], [], []))
        coo = op.matrix.tocoo()
        upper = coo.row < coo.col
        ei.append(coo.row[upper] + offset)
        ej.append(coo.col[upper] + offset)
        w.append(-coo.data[upper])
        ops.append(op)
        offset += size
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    op = LaplacianOperator(offset, np.concatenate(ei), np.concatenate(ej), np.concatenate(w))
    assert op.ncomp == len(sizes)
    b = rng.normal(size=offset)
    x, report = op.solve_orthogonal(b)
    assert report.backend == backend
    nodes = [0, sizes[0], offset - 1]
    cols = unit_columns(op, nodes)
    for a, sub in enumerate(ops):
        here = blocks == a
        pinv = np.linalg.pinv(sub.matrix.toarray())
        assert np.allclose(x[here], pinv @ b[here], atol=1e-8)
        for c, node in enumerate(nodes):
            want = pinv[:, node - here.argmax()] if here[node] else 0.0
            assert np.allclose(cols[here, c], want, atol=1e-8)
    with pytest.raises(LaplacianError):
        op.effective_resistance(0, offset - 1)


def test_wide_band_grid_factors_for_several_columns():
    # a 20x20 grid with r=3 has band 60: a solve to 1e-2 runs CG, but at output tolerance
    # one banded factor costs less than CG even for one column
    op = wide_grid_operator()
    assert not op.factored
    b = np.random.default_rng(6).standard_normal(400)
    assert op.solve_orthogonal(b, tol=1e-2)[1].backend == "cg" and "_factor" not in vars(op)
    nodes = [0, 57, 399]
    cols = unit_columns(op, nodes)
    assert "_factor" in vars(op)
    pinv = np.linalg.pinv(op.matrix.toarray())
    assert np.allclose(cols, pinv[:, nodes], atol=1e-8)
    with pytest.raises(LaplacianError, match="factor residual"):
        unit_columns(op, nodes, tol=1e-30)  # each factor column must still meet tol
    # once built, the factor serves every later solve, each still checked against tol
    v, report = op.solve_orthogonal(b, tol=1e-2)
    assert report.backend == "factor" and report.residual <= 1e-10
    assert np.allclose(v, pinv @ b, atol=1e-8)
    assert op.effective_resistance(0, 399) == pytest.approx(
        pinv[0, 0] - 2 * pinv[0, 399] + pinv[399, 399], abs=1e-8)
    with pytest.raises(LaplacianError, match=r"did not reach 1e-30 \(factor residual .* after 0 iterations\)"):
        op.solve_orthogonal(b, tol=1e-30)
    assert np.allclose(unit_columns(op, [5]), pinv[:, [5]], atol=1e-8)


def test_erdos_renyi_columns_stay_on_cg(monkeypatch):
    # an expander's band is nearly n while CG needs few iterations: five columns stay on CG
    graph = generate_special("er", rng=np.random.default_rng(0), n=400, p=0.02)
    assert graph.connected
    op = LaplacianOperator(400, graph.edge_i, graph.edge_j, graph.counts)
    assert op.band > 300 and not op.factored
    reports = []
    solve = LaplacianOperator.solve_orthogonal

    def recorded(self, b, tol=1e-10):
        v, report = solve(self, b, tol=tol)
        reports.append(report)
        return v, report

    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal", recorded)
    nodes = [0, 100, 200, 300, 399]
    cols = unit_columns(op, nodes)
    assert [r.backend for r in reports] == ["cg"] and "_factor" not in vars(op)
    assert reports[0].iterations >= len(nodes)
    assert np.allclose(cols, np.linalg.pinv(op.matrix.toarray())[:, nodes], atol=1e-8)


def wide_grid_operator():
    # a 20x20 grid with r=3: band 60, nnz 8,900
    graph = generate_grid(GridSpec(kind="grid2d", n=400, r=3), L=1)
    return LaplacianOperator(400, graph.edge_i, graph.edge_j,
                             np.random.default_rng(5).uniform(0.5, 2.0, graph.num_edges))


def overlap_supergraph_operator():
    # dc_overlap's super-graph of the 576 windows of a 100x100 r=4 grid: band 25, nnz 4,900
    return _shared_laplacian(grid_partition(GridSpec(kind="grid2d", n=10_000, r=4), "overlapping"))


def test_one_price_picks_the_backend_of_every_solve(monkeypatch):
    backends = []
    solve = LaplacianOperator.solve_orthogonal

    def recorded(self, b, tol=DEFAULT_TOL):
        v, report = solve(self, b, tol=tol)
        backends.append(report.backend)
        return v, report

    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal", recorded)
    # one column to 1e-10 factors through every entry point, each on a fresh operator; the
    # super-graph's alignment solve used to run CG where its resistances factored
    for make in (overlap_supergraph_operator, wide_grid_operator):
        n = make().n
        e = np.zeros(n)
        e[0], e[-1] = 1.0, -1.0
        for call in (lambda op: op.solve_orthogonal(e), lambda op: op.solve_orthogonal(e[:, None]),
                     lambda op: unit_columns(op, [n // 2]),
                     lambda op: op.effective_resistance(0, n - 1)):
            call(make())
        make().solve_orthogonal(e, tol=1e-2)  # the same column to 1e-2 runs CG
        assert backends == ["factor"] * 4 + ["cg"], make.__name__
        backends.clear()
    # precond_gd's L_G/4 on a 30x30 r=2 grid: its search-direction steps stay on CG
    rng = np.random.default_rng(31)
    graph = generate_grid(GridSpec(kind="grid2d", n=900, r=2, p=0.8), L=20, rng=rng)
    pre = LaplacianOperator(900, graph.edge_i, graph.edge_j, 0.25 * graph.counts)
    pre.solve_orthogonal(rng.normal(size=900), tol=SEARCH_TOL)
    # an expander's band is nearly n, but CG still takes ITER_FLOOR iterations or more per
    # column: all n columns of ER n=400 take the factor, 0.03 s against 0.24-0.41 s on CG
    graph = generate_special("er", rng=np.random.default_rng(0), n=400, p=0.02)
    op = LaplacianOperator(400, graph.edge_i, graph.edge_j, graph.counts)
    cols = unit_columns(op, range(400))
    assert backends == ["cg", "factor"] and "_factor" in vars(op)
    assert np.allclose(cols, np.linalg.pinv(op.matrix.toarray()), atol=1e-8)


@pytest.mark.parametrize("n, p, factor", [(400, 0.02, True), (800, 0.02, True),
                                          (1000, 0.01, True), (1200, 0.01, True),
                                          (2000, 0.01, False), (2000, 0.005, False)])
def test_all_columns_of_erdos_renyi_graphs_take_the_faster_backend(n, p, factor):
    # _factor_pays' ER rows: all n columns ran faster on the factor up to n=1200 and on CG at
    # n=2000, where the factor took 3.2-3.6 s against 2.3-2.7 s; five columns stay on CG
    graph = generate_special("er", rng=np.random.default_rng(0), n=n, p=p)
    op = LaplacianOperator(n, graph.edge_i, graph.edge_j, graph.counts)
    assert op.band > 0.9 * n and not op.factored
    assert op._factor_pays(n, DEFAULT_TOL) == factor
    assert not op._factor_pays(5, DEFAULT_TOL)


def cg_path_operator():
    # 250 nodes, a path plus 300 random chords: the band is too wide to factor for one column
    rng = np.random.default_rng(17)
    n = 250
    pi = np.arange(n - 1)
    extra_i, extra_j = rng.integers(0, n, size=300), rng.integers(0, n, size=300)
    ok = extra_i != extra_j
    ei = np.concatenate([pi, np.minimum(extra_i[ok], extra_j[ok])])
    ej = np.concatenate([pi + 1, np.maximum(extra_i[ok], extra_j[ok])])
    return LaplacianOperator(n, ei, ej, rng.uniform(0.5, 2.0, size=len(ei)))


def factored_operator():
    graph = generate_grid(GridSpec(kind="grid1d", n=300, r=6), L=1)
    return LaplacianOperator(300, graph.edge_i, graph.edge_j,
                             np.random.default_rng(2).uniform(0.5, 2.0, graph.num_edges))


@pytest.mark.parametrize("make, backend", [(factored_operator, "factor"),
                                           (cg_path_operator, "cg")])
def test_effective_resistance_is_the_one_pair_batch_value(make, backend, monkeypatch):
    op = make()
    assert op.factored == (backend == "factor")
    pinv = np.linalg.pinv(op.matrix.toarray())
    n = op.n
    backends = []
    solve = LaplacianOperator.solve_orthogonal

    def recorded(self, b, tol=DEFAULT_TOL):
        v, report = solve(self, b, tol=tol)
        backends.append(report.backend)
        return v, report

    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal", recorded)
    for k, ell in [(0, n - 1), (3, 77), (121, 120), (n - 1, 0)]:
        got = op.effective_resistance(k, ell, tol=1e-12)
        (batch,) = op.resistance_matrix([(k, ell)], tol=1e-12).values()
        assert got == batch  # bit for bit
        want = pinv[k, k] - 2 * pinv[k, ell] + pinv[ell, ell]
        assert got == pytest.approx(want, rel=1e-10, abs=0)
    assert set(backends) == {backend}


def test_effective_resistance_of_a_node_with_itself_and_its_errors():
    op = LaplacianOperator(5, [0, 1, 3], [1, 2, 4], [1.0, 2.0, 1.0])
    for k in range(5):
        assert op.effective_resistance(k, k) == 0.0
    with pytest.raises(LaplacianError,
                       match="^nodes in different components have no finite resistance$"):
        op.effective_resistance(0, 4)
    for k, ell in [(-1, 0), (2, 5)]:
        with pytest.raises(GraphError, match=rf"^pair \({k}, {ell}\) has a node outside 0\.\.4$"):
            op.effective_resistance(k, ell)


def last_node_grounded(op, pairs, tol=DEFAULT_TOL):
    """Batch resistances with every column grounded at the last node of its component,
    the rule resistance_matrix followed before it grounded at the largest involved node."""
    k, ell = np.array(pairs).min(axis=1), np.array(pairs).max(axis=1)
    needed, at = np.unique(np.concatenate([k, ell]), return_inverse=True)
    last = op.n - 1 - np.unique(op.components[::-1], return_index=True)[1]
    b = np.zeros((op.n, len(needed)))
    column = np.arange(len(needed))
    b[needed, column] = 1.0
    b[last[op.components[needed]], column] -= 1.0
    cols, _ = op.solve_orthogonal(b, tol=tol)
    ck, cl = at[:len(k)], at[len(k):]
    return cols[k, ck] - cols[ell, ck] - cols[k, cl] + cols[ell, cl]


@pytest.mark.parametrize("make", [factored_operator, cg_path_operator])
def test_a_batch_grounds_at_its_largest_involved_node(make, monkeypatch):
    op = make()
    pairs = [(0, 40), (40, 90), (7, 90), (0, 3)]  # the last node, n - 1, is not involved
    # CG answers move within tol with the right-hand side, so both solve to 1e-12
    want = last_node_grounded(op, pairs, tol=1e-12)
    rhs = []
    solve = LaplacianOperator.solve_orthogonal

    def spy(self, b, tol=DEFAULT_TOL):
        rhs.append(b.copy())
        return solve(self, b, tol=tol)

    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal", spy)
    table = op.resistance_matrix(pairs, tol=1e-12)
    (b,) = rhs
    # five involved nodes; 90 is the ground, so its column is 0 and the others meet -1 there
    assert np.count_nonzero(b.any(axis=0)) == 4
    assert np.array_equal(b[90], [-1.0, -1.0, -1.0, -1.0, 0.0])
    assert np.all(b.sum(axis=0) == 0.0)
    got = np.array([table[p] for p in pairs])
    assert np.allclose(got, want, rtol=1e-12, atol=0)


@given(n=st.integers(1, 40), density=st.integers(0, 3), parallel=st.integers(0, 10),
       isolated=st.integers(0, 4), width=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_per_component_rules_match_dense_ones(n, density, parallel, isolated, width, seed):
    # one summing matrix and one size vector serve centring and norms, and one rule grounds
    # the factor and the pair columns: each matches a dense loop over the components of a
    # multigraph with parallel edges and nodes without edges, for a vector and a block
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)[:max(n - isolated, 0)]
    ei, ej = rng.choice(nodes, size=(2, density * n)) if len(nodes) > 1 else ([], [])
    ok = np.not_equal(ei, ej)
    ei, ej = np.asarray(ei, dtype=np.int64)[ok], np.asarray(ej, dtype=np.int64)[ok]
    again = rng.integers(0, len(ei), size=parallel if len(ei) else 0)
    ei, ej = np.append(ei, ej[again]), np.append(ej, ei[again])
    op = LaplacianOperator(n, ei, ej, rng.uniform(0.5, 2.0, size=len(ei)))
    adjacency = np.zeros((n, n))
    adjacency[ei, ej] = adjacency[ej, ei] = 1.0
    ncomp, labels = connected_components(adjacency, directed=False)
    members = [np.flatnonzero(labels == c) for c in range(ncomp)]
    assert op.ncomp == ncomp and sorted(map(tuple, members)) == sorted(
        tuple(np.flatnonzero(op.components == c)) for c in range(ncomp))
    x = rng.normal(size=(n, width) if width else n)
    centred, norms = np.empty_like(x), np.empty((ncomp,) + x.shape[1:])
    for part in members:
        centred[part] = x[part] - x[part].mean(axis=0)
        norms[op.components[part[0]]] = np.linalg.norm(x[part], axis=0)
    assert np.allclose(op._center(x), centred, rtol=0, atol=1e-12)
    assert np.allclose(op._norms(x), norms[0] if ncomp == 1 else norms, rtol=0, atol=1e-12)
    if ncomp > 1:  # bit for bit what the averaging matrix of 1 / |c| entries gave
        size = np.bincount(op.components)
        mean = csr_matrix((1.0 / size[op.components], (op.components, np.arange(n))),
                          shape=(ncomp, n))
        assert op._center(x).tobytes() == (x - (mean @ x)[op.components]).tobytes()
    assert sorted(op._factor[1]) == sorted(part[-1] for part in members)
    involved = np.unique(rng.choice(n, size=min(n, 6)))
    rhs = []
    solve = op.solve_orthogonal
    op.solve_orthogonal = lambda b, tol: rhs.append(b.copy()) or solve(b, tol)
    pairs = np.stack([involved, involved]).T  # each involved node once, paired with itself
    op._pair_columns(pairs[:, 0], pairs[:, 1])
    (b,) = rhs
    for column, node in enumerate(involved):
        ground = involved[op.components[involved] == op.components[node]].max()
        want = np.zeros(n)
        want[node] += 1.0
        want[ground] -= 1.0
        assert np.array_equal(b[:, column], want)


def test_a_batch_grounds_each_component_at_its_own_largest_involved_node():
    # two components and a node without edges; each component's largest involved node
    # solves to a zero column
    op = LaplacianOperator(9, [0, 1, 2, 4, 5, 6, 4], [1, 2, 3, 5, 6, 7, 7],
                           [1.0, 2.0, 1.0, 1.0, 3.0, 1.0, 0.5])
    pairs = [(0, 2), (1, 2), (4, 6), (5, 6), (8, 8)]
    table = op.resistance_matrix(pairs)
    want = last_node_grounded(op, pairs)
    assert np.allclose([table[p] for p in pairs], want, rtol=1e-12, atol=0)
    for (k, ell), got in table.items():
        assert got == pytest.approx(dense_resistance(op, k, ell), abs=1e-12)


@given(n=st.integers(1, 40) | st.integers(201, 230), density=st.integers(0, 3),
       parallel=st.integers(0, 10), isolated=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_assembly_matches_the_edge_sum(n, density, parallel, isolated, seed):
    # density * n edges in random order and orientation, some repeated, between the
    # nodes left once ``isolated`` of them are kept free of edges; past 200 nodes a
    # giant component with a wide band takes CG
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)[:max(n - isolated, 0)]
    ei, ej = rng.choice(nodes, size=(2, density * n)) if len(nodes) > 1 else ([], [])
    ok = np.not_equal(ei, ej)
    ei, ej = np.asarray(ei)[ok], np.asarray(ej)[ok]
    again = rng.integers(0, len(ei), size=parallel if len(ei) else 0)
    ei, ej = np.append(ei, ej[again]).astype(np.int64), np.append(ej, ei[again]).astype(np.int64)
    w = rng.uniform(0.5, 2.0, size=len(ei))
    op = LaplacianOperator(n, ei, ej, w)
    want = np.zeros((n, n))
    for i, j, wij in zip(ei, ej, w):
        want[[i, j], [i, j]] += wij
        want[[i, j], [j, i]] -= wij
    assert op.matrix.has_canonical_format
    assert np.allclose(op.matrix.toarray(), want, rtol=0, atol=1e-12)
    assert np.allclose(op.degree, want.diagonal(), rtol=0, atol=1e-12)
    assert np.allclose(op.matrix @ np.ones(n), 0.0, rtol=0, atol=1e-12)
    pinv = np.linalg.pinv(want)
    b = rng.normal(size=n)
    target = want @ (pinv @ b)  # b less its mean on each component
    x, report = op.solve_orthogonal(b)
    assert report.backend == priced_backend(op, 1, DEFAULT_TOL)
    assert report.backend == "factor" or not op.factored
    assert np.linalg.norm(want @ x - target) <= 1e-10 * np.linalg.norm(target)
    assert np.allclose(x, pinv @ b, atol=1e-8)
    if report.backend == "cg":
        op.edge_resistances()  # builds the factor, which every later solve takes
        x, report = op.solve_orthogonal(b)
        assert report.backend == "factor"
        assert np.linalg.norm(want @ x - target) <= 1e-10 * np.linalg.norm(target)


# The assembly as it was written by hand, kept verbatim as the reference: a strictly upper
# triangular CSR matrix, merged by np.unique when the edges do not come sorted, its transpose
# scattered around the diagonal, and the factor's band filled from that upper triangle.
def reference_upper_triangle(n: int, lo: np.ndarray, hi: np.ndarray, w: np.ndarray,
                             index) -> csr_matrix:
    """The strictly upper triangular CSR matrix with entry -w at (lo, hi), parallel edges
    merged. Edges sorted by (lo, hi) without repeats, as the package's graphs store
    them, are taken as they come; others are sorted and merged first."""
    keys = lo * n + hi
    if np.any(keys[1:] <= keys[:-1]):
        keys, at = np.unique(keys, return_inverse=True)
        w = np.bincount(at, w)  # conductances of parallel edges add
        lo, hi = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(lo, minlength=n), out=indptr[1:])
    return csr_matrix((-w, hi.astype(index), indptr), shape=(n, n))


def reference_symmetric(upper: csr_matrix, diagonal: np.ndarray, index) -> csr_matrix:
    """U + U^T + diag(d) for a canonical strictly upper triangular CSR matrix U.

    Row r of the result is row r of U^T (columns below r), then d[r], then row
    r of U (columns above r), so its column indices come out sorted.
    """
    n = len(diagonal)
    lower = upper.tocsc()  # column r of U, rows ascending: row r of U^T
    below, above = np.diff(lower.indptr), np.diff(upper.indptr)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(below + above + 1, out=indptr[1:])
    at_diagonal = indptr[:-1] + below
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1])
    indices[at_diagonal] = np.arange(n)
    data[at_diagonal] = diagonal
    # entry k of a row of U or U^T moves by the same shift as its row's first entry
    for part, start in ((lower, indptr[:-1]), (upper, at_diagonal + 1)):
        shift = np.repeat(start - part.indptr[:-1], np.diff(part.indptr))
        at = np.arange(part.nnz, dtype=index) + shift
        indices[at] = part.indices
        data[at] = part.data
    return csr_matrix((data, indices, indptr), shape=(n, n))


def reference_operator(n, edge_i, edge_j, weights):
    """The hand-written assembly's matrix, components, band, factored flag and factor."""
    ei = np.asarray(edge_i, dtype=np.int64)
    ej = np.asarray(edge_j, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
    index = np.int32 if 2 * len(w) + n <= np.iinfo(np.int32).max else np.int64
    upper = reference_upper_triangle(n, lo, hi, w, index)
    degree = np.bincount(ei, w, n) + np.bincount(ej, w, n)
    matrix = reference_symmetric(upper, degree, index)
    ncomp, components = connected_components(matrix, connection="strong")
    band = int((hi - lo).max(initial=0))
    largest = n if ncomp == 1 else np.bincount(components).max()
    factored = factor_price_pays(n, band, matrix.nnz, largest, 1, np.inf)
    ground = n - 1 - np.unique(components[::-1], return_index=True)[1]
    rows = np.repeat(np.arange(n), np.diff(upper.indptr))
    ab = np.zeros((band + 1, n), order="F")  # the layout LAPACK factors in place
    ab[0] = degree
    at = rows * (band + 1) + upper.indices - rows  # flat index into ab.T; int64
    ab.T.reshape(-1)[at] = upper.data
    ab[1:, ground] = 0.0  # column g below the diagonal
    d = np.arange(1, band + 1)[:, None]
    ab[d, ground - d] = 0.0  # row g; a column left of 0 wraps into the unused end of the band
    ab[0, ground] = 1.0
    factor = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    return matrix, components, band, factored, (factor, ground)


@example(sizes=[30, 1, 12], band=3, order="reversed", parallel=6, seed=1)
@example(sizes=[1, 25, 25], band=5, order="sorted", parallel=8, seed=2)
@given(sizes=st.lists(st.just(1) | st.integers(2, 40), min_size=1, max_size=4),
       band=st.integers(1, 8), order=st.sampled_from(["sorted", "shuffled", "reversed"]),
       parallel=st.just(0) | st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_coo_assembly_is_the_reference_assembly(sizes, band, order, parallel, seed):
    # components side by side, a size of 1 being a node without edges, with ``parallel``
    # edges repeated; the edges sorted by (lo, hi), shuffled or in reverse, the last two
    # with random orientation
    rng = np.random.default_rng(seed)
    edges, offset = [], 0
    for size in sizes:
        if size > 1:
            i, j, _ = banded_edges(rng, size, min(band, size - 1), 0)
            edges.append(np.stack([i, j]) + offset)
        offset += size
    pairs = np.unique(np.concatenate(edges, axis=1) if edges else np.zeros((2, 0), int), axis=1)
    if pairs.shape[1]:
        pairs = np.concatenate([pairs, pairs[:, rng.integers(0, pairs.shape[1], parallel)]],
                               axis=1)
    pairs = pairs[:, np.lexsort(pairs[::-1])]
    if order == "shuffled":
        pairs = pairs[:, rng.permutation(pairs.shape[1])]
    elif order == "reversed":
        pairs = pairs[:, ::-1]
    if order != "sorted":
        pairs = np.where(rng.random(pairs.shape[1]) < 0.5, pairs, pairs[::-1])
    w = rng.uniform(0.5, 2.0, size=pairs.shape[1])
    op = LaplacianOperator(offset, pairs[0], pairs[1], w)
    matrix, components, band_, factored, (factor, ground) = reference_operator(
        offset, pairs[0], pairs[1], w)
    assert op.matrix.has_canonical_format
    for got, want in ((op.matrix.indptr, matrix.indptr), (op.matrix.indices, matrix.indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if not parallel:
        assert op.matrix.data.tobytes() == matrix.data.tobytes()
    else:  # scipy sums parallel edges in an order of its own
        assert np.allclose(op.matrix.data, matrix.data, rtol=1e-15, atol=0)
    assert np.array_equal(op.components, components)
    assert (op.band, op.factored) == (band_, factored)
    # the band adds parallel edges in input order, as np.unique's bincount did
    assert op._factor[0].tobytes() == factor.tobytes()
    assert np.array_equal(op._factor[1], ground)


@example(sizes=[70, 1, 45], band=40, riffle=False, parallel=6, seed=1)
@example(sizes=[1, 1], band=1, riffle=True, parallel=0, seed=2)
@given(sizes=st.lists(st.just(1) | st.integers(2, 90), min_size=1, max_size=4),
       band=st.integers(1, 8) | st.integers(SELINV_BLOCK + 1, 80), riffle=st.booleans(),
       parallel=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_edge_resistances_match_the_batch_on_every_edge(sizes, band, riffle, parallel, seed):
    # components side by side, a size of 1 being a node without edges, with ``parallel``
    # edges repeated in reverse; ``riffle`` interleaves the first and second half of the
    # nodes, so components share blocks and the band doubles
    rng = np.random.default_rng(seed)
    edges, offset = [np.zeros((2, 0), dtype=np.int64)], 0
    for size in sizes:
        if size > 1:
            i, j, _ = banded_edges(rng, size, min(band, size - 1), 0)
            edges.append(np.stack([i, j]) + offset)
        offset += size
    ei, ej = np.concatenate(edges, axis=1)
    again = rng.integers(0, len(ei), size=parallel if len(ei) else 0)
    ei, ej = np.append(ei, ej[again]), np.append(ej, ei[again])
    if riffle:
        half, node = (offset + 1) // 2, np.arange(offset)
        label = np.where(node < half, 2 * node, 2 * (node - half) + 1)
        ei, ej = label[ei], label[ej]
    w = rng.uniform(0.5, 2.0, size=len(ei))
    op = LaplacianOperator(offset, ei, ej, w)
    omega = op.edge_resistances()  # builds the factor, so the batch below solves on it too
    batch = op.resistance_matrix(np.column_stack([ei, ej]))
    want = [batch[min(i, j), max(i, j)] for i, j in zip(ei.tolist(), ej.tolist())]
    assert omega.shape == ei.shape
    assert np.allclose(omega, want, rtol=1e-12, atol=0)
    assert w @ omega == pytest.approx(offset - op.ncomp, rel=1e-12, abs=1e-12)


def test_edge_resistances_refuse_an_answer_that_misses_foster(monkeypatch):
    op = LaplacianOperator(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 2.0, 1.0, 0.5])
    assert op.edge_resistances() == pytest.approx(
        [dense_resistance(op, i, j) for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]], rel=1e-12)
    factor, ground = op._factor
    scaled = (factor * np.sqrt(1 + 1e-6), ground)  # L_g off by one part in 10^6
    monkeypatch.setattr(op, "_factor", scaled)
    with pytest.raises(LaplacianError, match="edge resistances on 4 nodes miss Foster's "
                                             r"identity: sum w Omega = 2\.99999.*, not 3$"):
        op.edge_resistances()


@pytest.mark.parametrize("bridge", [1.0, 1e-4, 1e-8, 1e-12])
def test_pair_resistances_refuse_an_answer_that_cancelled(bridge):
    # two 30-node unit cliques joined by one edge, every edge a pair: the batch grounds at
    # node 59, so a clique-1 pair is the small difference of columns of size 1 / bridge;
    # unchecked, the batch read up to 25% off dense pinv at 1e-12 and 1.3e-5 at 1e-8
    i, j = np.triu_indices(30, k=1)
    ei, ej = np.concatenate([i, i + 30, [29]]), np.concatenate([j, j + 30, [30]])
    op = LaplacianOperator(60, ei, ej, np.append(np.ones(2 * len(i)), bridge))
    pairs = np.column_stack([ei, ej])
    if bridge < 1e-6:
        with pytest.raises(LaplacianError, match=r"^the resistance of pair \(0, 1\) cancelled: "
                                                 r"its column terms reach .*, more than 1e\+06 "
                                                 r"times Omega = "):
            op.resistance_matrix(pairs)
        return
    table = op.resistance_matrix(pairs)
    pinv = np.linalg.pinv(op.matrix.toarray())
    want = pinv[ei, ei] + pinv[ej, ej] - 2 * pinv[ei, ej]
    assert np.allclose([table[p] for p in zip(ei.tolist(), ej.tolist())], want, rtol=1e-8, atol=0)


@pytest.mark.parametrize("n", [30_000, 100_000])
def test_long_unit_paths_pass_the_factor_verdict(n):
    # ||L v - b|| / ||b|| exceeds 1e-10 here (1.3e-10 at 30k nodes, 9.8e-10 at 100k) on
    # answers right to rounding; the normwise backward error does not
    i = np.arange(n - 1)
    op = LaplacianOperator(n, i, i + 1, np.ones(n - 1))
    assert op.factored
    _, report = op.solve_orthogonal(np.equal.outer(np.arange(n), [0, n - 1]))
    assert report.residual > DEFAULT_TOL
    # the batch solves against e_k - e_g, right-hand sides exactly orthogonal to the ones,
    # so it is as exact as the single-pair solve
    omega = op.resistance_matrix([(0, n - 1)])[(0, n - 1)]
    assert omega == n - 1
    assert op.effective_resistance(0, n - 1) == pytest.approx(n - 1, rel=1e-12, abs=0)


def test_factor_verdict_catches_a_perturbed_answer(monkeypatch):
    graph = generate_grid(GridSpec(kind="grid1d", n=500, r=10), L=1)
    op = LaplacianOperator(500, graph.edge_i, graph.edge_j,
                           np.random.default_rng(8).uniform(0.5, 2.0, graph.num_edges))
    assert op.factored
    b = np.random.default_rng(9).normal(size=500)
    assert op.solve_orthogonal(b)[1].backend == "factor"  # the unperturbed answer passes
    solve = op._factor_solve
    error = op._center(np.sin(np.arange(500.0)))  # orthogonal to the ones, as answers are
    for scale, converged in ((1e-14, True), (1e-7, False)):
        def perturbed(rhs, scale=scale):
            return solve(rhs) + scale * (error if rhs.ndim == 1 else error[:, None])
        monkeypatch.setattr(op, "_factor_solve", perturbed)
        v = perturbed(op._center(b))  # the answer solve_orthogonal judges
        r = op.matrix @ v - op._center(b)
        backward = np.linalg.norm(r) / (2 * op.degree.max() * np.linalg.norm(v)
                                        + np.linalg.norm(op._center(b)))
        assert (backward <= DEFAULT_TOL) == converged
        if converged:
            got, report = op.solve_orthogonal(b)
            assert got.tobytes() == v.tobytes() and report.backend == "factor"
            continue
        residual = np.linalg.norm(r) / np.linalg.norm(op._center(b))
        with pytest.raises(LaplacianError, match=re.escape(
                f"Laplacian solve on 500 nodes did not reach 1e-10 (factor residual "
                f"{residual:.2e} after 0 iterations)")):
            op.solve_orthogonal(b)
        with pytest.raises(LaplacianError, match="factor residual"):
            unit_columns(op, [0, 250, 499])


@example(long=40, sizes=[1, 2], band=4, parallel=0, seed=1)
@example(long=200, sizes=[1, 30, 1, 60], band=1, parallel=12, seed=2)
@given(long=st.integers(40, 200), sizes=st.lists(st.just(1) | st.integers(2, 60), max_size=4),
       band=st.integers(1, 4), parallel=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_two_level_cg_on_long_multigraphs(long, sizes, band, parallel, seed):
    # components side by side, the first ``long`` nodes long, a size of 1 being a node
    # without edges, with ``parallel`` edges repeated: n > ITER_FLOOR band, so CG's
    # preconditioner has its coarse level
    rng = np.random.default_rng(seed)
    sizes = [long] + sizes
    edges, offset = [], 0
    for size in sizes:
        if size > 1:
            i, j, w = banded_edges(rng, size, min(band, size - 1), 0)
            edges.append((i + offset, j + offset, w))
        offset += size
    ei, ej, w = (np.concatenate(part) for part in zip(*edges))
    again = rng.integers(0, len(ei), size=parallel)
    op = LaplacianOperator(offset, np.append(ei, ei[again]), np.append(ej, ej[again]),
                           np.append(w, rng.uniform(0.5, 2.0, size=parallel)))
    n, L = op.n, op.matrix.toarray()
    assert op.ncomp == len(sizes) and n > ITER_FLOOR * op.band
    pinv = np.linalg.pinv(L)
    b = op._center(rng.normal(size=n))
    x, _, res = op._cg(b, DEFAULT_TOL)
    assert res <= DEFAULT_TOL and np.allclose(x, pinv @ b, atol=1e-8)
    # the coarse level: greedy aggregates in node order, each a node and its neighbours not
    # yet taken, and L_c = P^T L P
    agg, coarse = op._coarse
    P = np.equal.outer(agg, np.arange(coarse.n)).astype(np.float64)
    first = np.unique(agg, return_index=True)[1]
    assert np.all(np.diff(first) > 0)
    for a, k in enumerate(first):
        assert set(np.flatnonzero(agg == a)) <= {k} | set(np.flatnonzero(L[k]))
    assert np.allclose(coarse.matrix.toarray(), P.T @ L @ P, rtol=1e-12, atol=1e-12)
    # one symmetric map, positive on each component's range
    y, z = op._center(rng.normal(size=(2, n)).T).T
    My, Mz = op._precondition(y), op._precondition(z)
    assert abs(z @ My - y @ Mz) <= 1e-12 * np.sqrt((y @ My) * (z @ Mz))
    for c in range(op.ncomp):
        here = op.components == c
        if here.sum() > 1:
            u = np.where(here, rng.normal(size=n), 0.0)
            u[here] -= u[here].mean()
            assert u @ op._precondition(u) > 0
    # a search direction: the residual is orthogonal to the Krylov space that holds v
    v, _, res = op._cg(b, SEARCH_TOL)
    assert res <= SEARCH_TOL
    energy = v @ L @ v
    assert energy > 0 and abs(b @ v - energy) <= 1e-9 * energy


@example(n=40, band=2, jacobi=True, tol=SEARCH_TOL, seed=1)
@example(n=260, band=4, jacobi=False, tol=SEARCH_TOL, seed=2)
@given(n=st.integers(40, 260), band=st.integers(1, 4), jacobi=st.booleans(),
       tol=st.sampled_from([0.9, 0.5, SEARCH_TOL, 1e-2, 1e-6]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_cold_cg_iterate_is_a_descent_direction(n, band, jacobi, tol, seed):
    # CG from 0 leaves a residual orthogonal to the Krylov space that holds its iterate v,
    # so b^T v = v^T L v > 0 at any tolerance, under either preconditioner: with an edge
    # from end to end the band is n - 1 and Jacobi runs alone, without it the coarse level
    rng = np.random.default_rng(seed)
    ei, ej, w = banded_edges(rng, n, band, 0)
    if jacobi:
        ei, ej, w = np.append(ei, 0), np.append(ej, n - 1), np.append(w, 1.0)
    op = LaplacianOperator(n, ei, ej, w)
    assert (n > ITER_FLOOR * op.band) != jacobi
    b = op._center(rng.normal(size=n))
    v, iterations, res = op._cg(b, tol)
    assert ("_coarse" in vars(op)) != jacobi
    assert iterations >= 1 and res <= tol
    energy = v @ (op.matrix @ v)
    assert energy > 0 and abs(b @ v - energy) <= 1e-9 * energy


def jacobi_cg(op, b, tol):
    """Cold deflated CG with the Jacobi preconditioner alone, as every CG solve ran before the
    coarse level: x, the iterations and the relative residual."""
    inv_diag = np.divide(1.0, op.degree, out=np.zeros(op.n), where=op.degree > 0)
    bnorm = op._norms(b)
    x, r = np.zeros(op.n), b.copy()
    z = op._center(inv_diag * r)
    p = z.copy()
    rz = r @ z
    for it in range(1, 10 * op.n + 1):
        Ap = op.matrix @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = op._relative(op._norms(r), bnorm)
        if res <= tol:
            break
        z = op._center(inv_diag * r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return op._center(x), it, float(res)


@pytest.mark.parametrize("n, p", [(400, 0.02), (2000, 0.01)])
def test_expanders_keep_plain_jacobi_cg(n, p):
    # an expander's band is nearly n, so CG's price counts ITER_FLOOR iterations and its
    # preconditioner gets no coarse level: answers as plain Jacobi-CG gave them, bit for bit
    graph = generate_special("er", rng=np.random.default_rng(0), n=n, p=p)
    op = LaplacianOperator(n, graph.edge_i, graph.edge_j, graph.counts)
    assert n <= ITER_FLOOR * op.band
    g = np.random.default_rng(1).normal(size=n)
    b = op._center(g)
    for tol in (SEARCH_TOL, DEFAULT_TOL):
        x, iterations, residual = op._cg(b, tol)
        want = jacobi_cg(op, b, tol)
        assert x.tobytes() == want[0].tobytes() and (iterations, residual) == want[1:]
    v, report = op.solve_orthogonal(g)
    assert report.backend == "cg" and v.tobytes() == jacobi_cg(op, b, DEFAULT_TOL)[0].tobytes()
    assert "_coarse" not in vars(op)


@pytest.mark.parametrize("side", [50, 100])
def test_two_level_cg_iterations_on_2d_grids(side):
    # L_G/4 of a grid2d r=4 graph; with Jacobi alone a cold solve took 85 / 168 iterations at
    # 1e-10 and 21 / 40 at 1e-2 (sides 50 / 100), growing with the side
    graph = generate_grid(GridSpec(kind="grid2d", n=side * side, r=4, p=0.8), L=50,
                          rng=np.random.default_rng(5))
    op = LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, 0.25 * graph.counts)
    b = op._center(np.random.default_rng(1).normal(size=graph.n))
    for tol, most in ((DEFAULT_TOL, 40), (1e-2, 10)):
        x, iterations, residual = op._cg(b, tol)
        assert iterations <= most and residual <= tol
        assert np.linalg.norm(op.matrix @ x - b) <= tol * np.linalg.norm(b)
