"""Laplacian operator, pseudo-inverse solves, and effective resistances."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlrank import (GridSpec, LaplacianError, LaplacianOperator, assemble, generate_grid,
                     generate_special)


def dense_resistance(op: LaplacianOperator, k: int, l: int) -> float:
    pinv = np.linalg.pinv(op.dense())
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
    return assemble(n, zip(ei.tolist(), ej.tolist(), w.tolist()))


def test_series_law():
    # resistances 1, 2, 3 in series: conductances 1, 1/2, 1/3
    op = assemble(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0 / 3.0)])
    assert op.effective_resistance(0, 3) == pytest.approx(6.0, abs=1e-10)


def test_parallel_law():
    op = assemble(2, [(0, 1, 1.0 + 3.0)])  # parallel conductances merge
    assert op.effective_resistance(0, 1) == pytest.approx(0.25, abs=1e-12)


def test_parallel_edges_merge_at_assembly():
    op = assemble(2, [(0, 1, 1.0), (0, 1, 3.0)])
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
        op = assemble(n, zip(i.tolist(), j.tolist(), w.tolist()))
        drop = rng.integers(len(i))
        w2 = w.copy()
        w2[drop] *= 0.3  # decrease one edge weight
        op2 = assemble(n, zip(i.tolist(), j.tolist(), w2.tolist()))
        for k in range(n):
            for l in range(k + 1, n):
                assert op2.effective_resistance(k, l) >= \
                    op.effective_resistance(k, l) - 1e-9


def test_solve_orthogonal_output():
    rng = np.random.default_rng(3)
    op = random_operator(rng, n=12)
    b = rng.normal(size=12)
    b -= b.mean()
    x, report = op.solve_orthogonal(b, tol=1e-12)
    assert report.converged
    assert abs(x.sum()) <= 1e-12 * max(np.linalg.norm(x), 1.0) * 12
    assert np.linalg.norm(op.matvec(x) - b) <= 1e-8 * np.linalg.norm(b)


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
    op = assemble(n, zip(ei.tolist(), ej.tolist(), w.tolist()))
    pinv = np.linalg.pinv(op.dense())
    for k, l in [(0, n - 1), (3, 77), (120, 121)]:
        e = np.zeros(n)
        e[k], e[l] = 1.0, -1.0
        want = float(e @ pinv @ e)
        assert op.effective_resistance(k, l, tol=1e-12) == \
            pytest.approx(want, rel=1e-8)


def test_resistance_matrix_symmetric_pairs():
    op = assemble(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 0.5)])
    table = op.resistance_matrix()
    assert len(table) == 6
    assert table[(0, 1)] == pytest.approx(dense_resistance(op, 0, 1), rel=1e-9)
    sub = op.resistance_matrix(pairs=[(2, 0)])
    assert set(sub) == {(0, 2)}


def test_disconnected_solve_rejected():
    op = assemble(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not op.connected
    with pytest.raises(LaplacianError):
        op.effective_resistance(0, 3)


def test_invalid_weights_rejected():
    with pytest.raises(LaplacianError):
        assemble(2, [(0, 1, -1.0)])
    with pytest.raises(LaplacianError):
        assemble(2, [(0, 0, 1.0)])


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
    matrix = op.matrix
    monkeypatch.setattr(op, "matvec", lambda x: -(matrix @ x))
    b = np.zeros(op.n)
    b[0], b[-1] = 1.0, -1.0
    _, report = op.solve_orthogonal(b)
    assert not report.converged
    assert report.iterations == 1
    assert report.backend == "cg"


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
    assert np.allclose(op.dense(), want, atol=1e-12)
    assert np.allclose(op.degree, np.diag(want), atol=1e-12)
    x = rng.normal(size=n)
    assert np.allclose(op.matvec(x), want @ x, atol=1e-12)


def test_pinv_columns_match_dense_pinv():
    rng = np.random.default_rng(11)
    op = random_operator(rng, n=10)
    cols = op.pinv_columns([0, 4, 9], tol=1e-12)
    pinv = np.linalg.pinv(op.dense())
    assert np.allclose(cols, pinv[:, [0, 4, 9]], atol=1e-10)


def banded_operator(rng, n, band, long_edges):
    # a spanning path, random edges of length at most ``band`` including one
    # of exactly that length, and ``long_edges`` edges of any length
    i = rng.integers(0, n - band, size=2 * n)
    j = i + rng.integers(1, band + 1, size=2 * n)
    li = rng.integers(0, n, size=long_edges)
    lj = rng.integers(0, n, size=long_edges)
    ok = li != lj
    ei = np.concatenate([np.arange(n - 1), i, [0], np.minimum(li, lj)[ok]])
    ej = np.concatenate([np.arange(1, n), j, [band], np.maximum(li, lj)[ok]])
    return LaplacianOperator(n, ei, ej, rng.uniform(0.5, 2.0, size=len(ei)))


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
    pinv = np.linalg.pinv(op.dense())
    b = rng.normal(size=op.n)
    x, report = op.solve_orthogonal(b)
    assert report.backend == backend and report.converged
    assert np.allclose(x, pinv @ b, atol=1e-8)
    nodes = [0, 7, 259]
    assert np.allclose(op.pinv_columns(nodes), pinv[:, nodes], atol=1e-8)


def test_single_node_operator():
    op = LaplacianOperator(1, [], [], [])
    x, report = op.solve_orthogonal(np.array([3.0]))
    assert x.tolist() == [0.0] and report.converged and report.backend == "factor"
    assert op.pinv_columns([0]).tolist() == [[0.0]]
    assert op.resistance_matrix() == {}


def test_disconnected_rejected_before_factoring():
    op = assemble(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert op.factored
    with pytest.raises(LaplacianError):
        op.solve_orthogonal(np.array([1.0, 0.0, 0.0, -1.0]))
    with pytest.raises(LaplacianError):
        op.pinv_columns([0, 3])
    assert "_factor" not in vars(op)


@given(n=st.integers(2, 60) | st.integers(201, 400), band=st.integers(1, 12) | st.integers(1, 399),
       long_edges=st.sampled_from([0, 20]), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_properties_on_random_connected_graphs(n, band, long_edges, seed):
    rng = np.random.default_rng(seed)
    op = banded_operator(rng, n, min(band, n - 1), long_edges)
    b = rng.normal(size=n)
    b -= b.mean()
    x, report = op.solve_orthogonal(b)
    assert report.converged and report.backend == ("factor" if op.factored else "cg")
    assert np.linalg.norm(op.matvec(x) - b) <= 1e-10 * np.linalg.norm(b)
    assert abs(x.sum()) <= 1e-10 * max(np.linalg.norm(x), 1.0)
    assert np.allclose(x, np.linalg.pinv(op.dense()) @ b, atol=1e-8)


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
    op = LaplacianOperator(offset, np.concatenate(ei), np.concatenate(ej), np.concatenate(w),
                           blocks=blocks)
    assert op.connected and op.ncomp == len(sizes)
    b = rng.normal(size=offset)
    x, report = op.solve_orthogonal(b)
    assert report.backend == backend and report.converged
    nodes = [0, sizes[0], offset - 1]
    cols = op.pinv_columns(nodes)
    for a, sub in enumerate(ops):
        here = blocks == a
        pinv = np.linalg.pinv(sub.dense())
        assert np.allclose(x[here], pinv @ b[here], atol=1e-8)
        for c, node in enumerate(nodes):
            want = pinv[:, node - here.argmax()] if here[node] else 0.0
            assert np.allclose(cols[here, c], want, atol=1e-8)
    with pytest.raises(LaplacianError):
        op.effective_resistance(0, offset - 1)


def test_block_labels_must_match_components():
    assert LaplacianOperator(4, [0, 2], [1, 3], np.ones(2), blocks=[0, 0, 1, 1]).connected
    # one block over two components; an edge joining two blocks (with and
    # without the component count matching the block count)
    for n, ei, ej, blocks in ((4, [0, 2], [1, 3], [0, 0, 0, 0]),
                              (4, [0, 1, 2], [1, 2, 3], [0, 0, 1, 1]),
                              (5, [0, 1, 2], [1, 2, 3], [0, 0, 1, 1, 1])):
        op = LaplacianOperator(n, ei, ej, np.ones(len(ei)), blocks=blocks)
        assert not op.connected
        with pytest.raises(LaplacianError):
            op.solve_orthogonal(np.arange(n, dtype=np.float64))


def test_wide_band_grid_factors_for_several_columns():
    # a 20x20 grid with r=3 has band 60: single solves run CG, but three
    # columns cost more on CG than one banded factor
    graph = generate_grid(GridSpec(kind="grid2d", n=400, r=3), L=1)
    op = LaplacianOperator(400, graph.edge_i, graph.edge_j,
                           np.random.default_rng(5).uniform(0.5, 2.0, graph.num_edges))
    assert not op.factored
    b = np.random.default_rng(6).standard_normal(400)
    assert op.solve_orthogonal(b)[1].backend == "cg"
    nodes = [0, 57, 399]
    cols = op.pinv_columns(nodes)
    assert "_factor" in vars(op)
    pinv = np.linalg.pinv(op.dense())
    assert np.allclose(cols, pinv[:, nodes], atol=1e-8)
    with pytest.raises(LaplacianError, match="factor residual"):
        op.pinv_columns(nodes, tol=1e-30)  # each factor column must still meet tol
    # once built, the factor serves every later solve, each still checked against tol
    v, report = op.solve_orthogonal(b)
    assert report.backend == "factor" and report.converged and report.residual <= 1e-10
    assert np.allclose(v, pinv @ b, atol=1e-8)
    assert op.effective_resistance(0, 399) == pytest.approx(
        pinv[0, 0] - 2 * pinv[0, 399] + pinv[399, 399], abs=1e-8)
    assert not op.solve_orthogonal(b, tol=1e-30)[1].converged
    assert np.allclose(op.pinv_columns([5]), pinv[:, [5]], atol=1e-8)


def test_erdos_renyi_columns_stay_on_cg(monkeypatch):
    # an expander's band is nearly n while CG needs few iterations: five columns stay on CG
    graph = generate_special("er", rng=np.random.default_rng(0), n=400, p=0.02)
    assert graph.connected
    op = LaplacianOperator(400, graph.edge_i, graph.edge_j, graph.counts)
    assert op.band > 300 and not op.factored
    calls = []
    solve = LaplacianOperator.solve_orthogonal

    def counted(self, b, tol=1e-10, max_iter=None):
        calls.append(tol)
        return solve(self, b, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(LaplacianOperator, "solve_orthogonal", counted)
    nodes = [0, 100, 200, 300, 399]
    cols = op.pinv_columns(nodes)
    assert len(calls) == len(nodes) and "_factor" not in vars(op)
    assert np.allclose(cols, np.linalg.pinv(op.dense())[:, nodes], atol=1e-8)

