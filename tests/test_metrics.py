"""Error reports, concentration-bound quantities, and locality rates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlrank import (GridSpec, ModelError, ScoreVector, bound_quantities,
                     error_report, generate_grid, generate_special, locality_bound,
                     make_scores, oracle_laplacian, sigmoid_derivative)
from btlrank.laplacian import SELINV_BLOCK, LaplacianError
from btlrank.metrics import PAIR_BLOCK


def test_error_report_basic_relations():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        rep = error_report(ScoreVector(a, gauge="raw"), ScoreVector(b, gauge="raw"))
        assert rep.linf <= rep.max_pairwise <= 2.0 * rep.linf + 1e-12
        assert rep.linf <= rep.l2 + 1e-12


def test_error_report_gauge_invariance():
    rng = np.random.default_rng(2)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    r1 = error_report(ScoreVector(a, gauge="raw"), ScoreVector(b, gauge="raw"))
    r2 = error_report(ScoreVector(a + 3.7, gauge="raw"),
                      ScoreVector(b - 1.2, gauge="raw"))
    assert r1.linf == pytest.approx(r2.linf, abs=1e-12)
    assert r1.max_pairwise == pytest.approx(r2.max_pairwise, abs=1e-12)
    assert r1.l2 == pytest.approx(r2.l2, abs=1e-12)


score = st.floats(-1e3, 1e3, allow_nan=False)


@given(vectors=st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.lists(score, min_size=n, max_size=n), st.lists(score, min_size=n, max_size=n))),
    shift=score)
def test_error_report_bounds_and_shift_invariance(vectors, shift):
    a, b = (np.array(v) for v in vectors)
    rep = error_report(ScoreVector(a, gauge="raw"), ScoreVector(b, gauge="raw"))
    # rounding in the centering, far below any score difference that matters
    slack = 1e-9 * (1.0 + np.abs(a).max() + np.abs(b).max() + abs(shift))
    assert rep.linf <= rep.max_pairwise + slack
    assert rep.max_pairwise <= 2.0 * rep.linf + slack
    for moved in (error_report(ScoreVector(a + shift, gauge="raw"), ScoreVector(b, gauge="raw")),
                  error_report(ScoreVector(a, gauge="raw"), ScoreVector(b + shift, gauge="raw"))):
        for name in ("linf", "max_pairwise", "l2"):
            assert getattr(moved, name) == pytest.approx(getattr(rep, name), abs=slack)


def test_error_report_exact_match_and_pairs():
    s = make_scores("sine", 6, 2)
    rep = error_report(s, s, pairs=[(0, 5), (1, 2)])
    assert rep.linf == 0.0
    assert np.allclose(rep.pair_errors, 0.0)
    shifted = ScoreVector(s.values.copy())
    rep2 = error_report(shifted, s, pairs=[(0, 5)])
    assert rep2.pair_errors.shape == (1,)


def test_error_report_nonfinite_is_infinite():
    bad = ScoreVector(np.array([np.inf, 0.0, -np.inf]), gauge="raw")
    good = make_scores("linear", 3, 1)
    rep = error_report(bad, good)
    assert math.isinf(rep.linf) and math.isinf(rep.l2) and rep.pair_errors is None
    # a caller indexing per-pair errors gets inf for each requested pair, not None
    pairs = error_report(bad, good, pairs=[(0, 2), (1, 1)]).pair_errors
    assert pairs.tolist() == [math.inf, math.inf]
    assert error_report(good, bad, pairs=[]).pair_errors.shape == (0,)


@pytest.mark.parametrize("pair", [(0, -1), (-1, 0), (0, 40), (99, 3)])
def test_error_report_rejects_pairs_outside_the_nodes(pair):
    s = make_scores("sine", 40, 4)
    with pytest.raises(ModelError, match=r"pair node ids must lie in 0\.\.39"):
        error_report(s, s, pairs=[(0, 1), pair])


def test_error_report_pair_errors_match_the_pairwise_differences():
    rng = np.random.default_rng(6)
    a, b = (ScoreVector.zero_sum(rng.normal(size=40)) for _ in range(2))
    pairs = [(0, 39), (5, 5), (17, 3), (39, 0)]
    delta = (a.values - a.values.mean()) - (b.values - b.values.mean())
    want = [abs(delta[k] - delta[l]) for k, l in pairs]
    assert error_report(a, b, pairs=pairs).pair_errors.tolist() == want
    assert error_report(a, b, pairs=[]).pair_errors.shape == (0,)


def test_error_report_length_mismatch():
    with pytest.raises(ModelError):
        error_report(make_scores("linear", 3, 1), make_scores("linear", 4, 1))


def test_bound_two_node_closed_form():
    graph = generate_special("line", n=2, L=5)
    truth = ScoreVector(np.array([0.5, -0.5]))
    delta = 0.1
    q = bound_quantities(graph, truth, delta=delta)
    z = sigmoid_derivative(1.0)
    omega = 1.0 / (5.0 * z)
    kappa_e = math.e
    assert q.omega[0] == pytest.approx(omega, rel=1e-9)
    assert q.B[0] == pytest.approx(
        math.sqrt(omega * kappa_e * math.log(2.0 / delta)), rel=1e-9)
    assert q.kappa_E == pytest.approx(kappa_e, rel=1e-12)
    # V for the only pair is L * |omega| aggregated over the single edge
    assert q.V[0] == pytest.approx(1.0 / z, rel=1e-9)


def test_bound_tree_v_is_path_sum():
    # on a tree, the pseudo-inverse inner products vanish off the k-l path,
    # so V_kl = sum over path edges of 1/z_e
    graph = generate_special("line", n=5, L=3)
    truth = make_scores("sine", 5, 2)
    q = bound_quantities(graph, truth, delta=0.2, pairs=[(0, 4), (1, 2)])
    theta = truth.values
    z = sigmoid_derivative(theta[graph.edge_i] - theta[graph.edge_j])
    assert q.V[0] == pytest.approx(float((1.0 / z).sum()), rel=1e-8)
    assert q.V[1] == pytest.approx(1.0 / z[1], rel=1e-8)


def test_bound_line_follows_a_reversed_labelling():
    # a gap of 40 per edge: s (1 - s) underflowed to 0 on the edges that go down
    graph = generate_special("line", n=3, L=5)
    pairs = [(0, 1), (0, 2), (1, 2)]
    up = bound_quantities(graph, ScoreVector.zero_sum([0.0, 40.0, 80.0]), 0.1, pairs=pairs)
    down = bound_quantities(graph, ScoreVector.zero_sum([80.0, 40.0, 0.0]), 0.1, pairs=pairs)
    # reversing the labels maps the pair (0, 1) to (1, 2) and keeps (0, 2)
    for got, want in ((down.omega, up.omega), (down.Q, up.Q), (down.V, up.V)):
        assert np.allclose(got, want[::-1], rtol=1e-12, atol=0.0)


def test_bound_c0_scales_b_linearly():
    graph = generate_special("complete", n=6, L=4)
    truth = make_scores("sine", 6, 2)
    q1 = bound_quantities(graph, truth, delta=0.1, C0=1.0, pairs=[(0, 5)])
    q2 = bound_quantities(graph, truth, delta=0.1, C0=2.5, pairs=[(0, 5)])
    assert q2.B[0] == pytest.approx(2.5 * q1.B[0], rel=1e-12)
    assert q2.omega[0] == pytest.approx(q1.omega[0], rel=1e-12)


def test_bound_delta_validation():
    graph = generate_special("line", n=3, L=1)
    truth = make_scores("linear", 3, 1)
    for bad in (0.0, 0.5, 0.9, -0.1):
        with pytest.raises(ModelError):
            bound_quantities(graph, truth, delta=bad)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ModelError, match="C0 must be finite and positive"):
            bound_quantities(graph, truth, delta=0.1, C0=bad)
    # a negative id would otherwise index from the end and name another node's pair
    for pair in [(-1, 0), (0, 3), (3, 3)]:
        with pytest.raises(ModelError, match=r"pair node ids must lie in 0\.\.2"):
            bound_quantities(graph, truth, delta=0.1, pairs=[(0, 1), pair])


def test_bound_csv(tmp_path):
    graph = generate_special("complete", n=4, L=2)
    truth = make_scores("sine", 4, 1)
    q = bound_quantities(graph, truth, delta=0.1, pairs=[(0, 3), (1, 2)])
    path = tmp_path / "bounds.csv"
    q.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,l,omega,B,Q,V"
    assert len(lines) == 3


def test_locality_bound_values():
    got = locality_bound("grid1d", 500, 20, 0.5, 30)
    assert got == pytest.approx(5.0 * math.sqrt(500 / 400 + 1.0)
                                * math.sqrt(1.0 / (20 * 0.5 * 30)), rel=1e-12)
    assert got == pytest.approx(0.4330, abs=1e-4)
    got2d = locality_bound("grid2d", 400, 5, 0.5, 30)
    assert got2d == pytest.approx(6.0 * math.sqrt(math.log(400) / 25 + 1.0)
                                  * math.sqrt(1.0 / (25 * 0.5 * 30)), rel=1e-12)


def test_locality_bound_validation():
    with pytest.raises(ModelError):
        locality_bound("grid3d", 100, 4, 0.5, 10)
    with pytest.raises(ModelError):
        locality_bound("grid1d", 100, 4, 0.0, 10)
    with pytest.raises(ModelError):
        locality_bound("grid1d", 1, 4, 0.5, 10)


def test_bound_csv_fields_are_plain_numbers(tmp_path):
    graph = generate_special("complete", n=4, L=2)
    truth = make_scores("sine", 4, 1)
    q = bound_quantities(graph, truth, delta=0.1, pairs=[(0, 3), (1, 2)])
    path = tmp_path / "bounds.csv"
    q.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    values = np.array([[float(field) for field in row[2:]] for row in rows])
    assert np.array_equal(values, np.column_stack([q.omega, q.B, q.Q, q.V]))


def test_bound_all_pairs_match_dense_pseudo_inverse():
    graph = generate_special("complete", n=5, L=3)
    truth = make_scores("sine", 5, 2)
    q = bound_quantities(graph, truth, delta=0.1)
    theta = truth.values
    z = sigmoid_derivative(theta[graph.edge_i] - theta[graph.edge_j])
    lap = np.zeros((5, 5))
    for i, j, w in zip(graph.edge_i, graph.edge_j, graph.counts * z):
        lap[[i, j], [i, j]] += w
        lap[i, j] -= w
        lap[j, i] -= w
    pinv = np.linalg.pinv(lap)
    assert len(q.pairs) == 10
    for (k, l), omega in zip(q.pairs, q.omega):
        assert omega == pytest.approx(pinv[k, k] + pinv[l, l] - 2 * pinv[k, l], rel=1e-9)


def test_bound_aggregates_match_pairwise_loop():
    # more pairs and edges than one block of PAIR_BLOCK, so several blocks run
    graph = generate_grid(GridSpec(kind="grid1d", n=40, r=4, p=0.8), L=5,
                          rng=np.random.default_rng(4))
    truth = make_scores("sine", 40, 4)
    q = bound_quantities(graph, truth, delta=0.1)
    P = oracle_laplacian(graph, truth).pinv_columns(range(40))
    ei, ej = graph.edge_i, graph.edge_j
    B_edge = np.sqrt((P[ei, ei] + P[ej, ej] - 2 * P[ei, ej]) * q.kappa_E * math.log(40 / 0.1))

    def aggregates(k, l):
        v = P[:, k] - P[:, l]
        inner = graph.counts * np.abs(v[ei] - v[ej])
        return (B_edge ** 2 * inner).sum(), inner.sum()

    want = np.array([aggregates(k, l) for k, l in q.pairs])
    assert len(q.pairs) > PAIR_BLOCK
    assert np.allclose(q.Q, want[:, 0], rtol=1e-12, atol=0)
    assert np.allclose(q.V, want[:, 1], rtol=1e-12, atol=0)

    # the edge check Q <= 4B, through pairs=: three full blocks of edge pairs and a tail block
    assert graph.num_edges > 3 * PAIR_BLOCK and graph.num_edges % PAIR_BLOCK
    q_edge = np.array([aggregates(k, l)[0] for k, l in zip(ei, ej)])
    # Q / 4B grows linearly in C0; at C0_star its largest edge value is exactly 1
    ratio = q_edge / (4.0 * B_edge)
    c0_star = 1.0 / ratio.max()

    def edges_hold(order, C0):
        edges = np.column_stack([ei, ej])[order]
        q = bound_quantities(graph, truth, delta=0.1, C0=C0, pairs=edges)
        return bool(np.all(q.Q <= 4.0 * q.B + 1e-12))

    E = graph.num_edges
    assert not edges_hold(np.arange(E), 1.0) and c0_star < 1.0
    # the worst edge sits in a full block as generated, and last (in the tail block) once rolled
    assert ratio.argmax() < E - E % PAIR_BLOCK
    for order in (np.arange(E), np.roll(np.arange(E), E - 1 - int(ratio.argmax()))):
        assert edges_hold(order, c0_star * (1 - 1e-6))
        assert not edges_hold(order, c0_star * (1 + 1e-6))


def dense_bound_quantities(graph, truth, delta, pairs):
    """omega, B, Q and V of ``pairs`` from the dense pseudo-inverse of the oracle Laplacian."""
    ei, ej = graph.edge_i, graph.edge_j
    gaps = truth.values[ei] - truth.values[ej]
    lap = np.zeros((graph.n, graph.n))
    np.add.at(lap, (ei, ej), -graph.counts * sigmoid_derivative(gaps))
    lap += lap.T
    lap -= np.diag(lap.sum(axis=1))
    P = np.linalg.pinv(lap, hermitian=True)
    scale = math.exp(np.abs(gaps).max()) * math.log(graph.n / delta)
    k, l = np.array(pairs).T
    omega = P[k, k] + P[l, l] - 2 * P[k, l]
    B_edge = np.sqrt((P[ei, ei] + P[ej, ej] - 2 * P[ei, ej]) * scale)
    T = P[:, k] - P[:, l]
    inner = graph.counts[:, None] * np.abs(T[ei] - T[ej])
    return omega, np.sqrt(omega * scale), (B_edge ** 2) @ inner, inner.sum(axis=0)


@pytest.mark.parametrize("spec, scores", [(GridSpec(kind="grid1d", n=300, r=6, p=0.8), "sine"),
                                          (GridSpec(kind="grid2d", n=400, r=3, p=0.8),
                                           "linear2d")])
def test_bound_quantities_match_the_dense_pseudo_inverse(spec, scores):
    # grid1d takes ten selected-inversion blocks of SELINV_BLOCK nodes, grid2d blocks of its
    # band; the pairs include the last node, the columns' ground, in either order
    graph = generate_grid(spec, L=5, rng=np.random.default_rng(spec.n))
    truth = make_scores(scores, spec.n, spec.r)
    n, band = spec.n, oracle_laplacian(graph, truth).band
    assert (band < SELINV_BLOCK) == (spec.kind == "grid1d")
    edges = np.column_stack([graph.edge_i, graph.edge_j])
    for pairs in ([(0, n - 1), (n - 1, 17), (5, 200), (3, 3)], edges):
        q = bound_quantities(graph, truth, delta=0.1, pairs=pairs)
        ordered = np.sort(np.asarray(pairs), axis=1)
        assert q.pairs == [tuple(p) for p in ordered.tolist()]
        want = dense_bound_quantities(graph, truth, 0.1, ordered)
        for got, expected in zip((q.omega, q.B, q.Q, q.V), want):
            assert np.allclose(got, expected, rtol=1e-10, atol=0)
    # demo 06's edge check gives the dense answer
    assert np.array_equal(q.Q <= 4 * q.B + 1e-12, want[2] <= 4 * want[1] + 1e-12)


def test_bound_quantities_of_every_pair_match_the_dense_pseudo_inverse():
    graph = generate_grid(GridSpec(kind="grid1d", n=30, r=3, p=0.8), L=5,
                          rng=np.random.default_rng(11))
    truth = make_scores("sine", 30, 3)
    q = bound_quantities(graph, truth, delta=0.1)
    assert q.pairs == list(zip(*(ids.tolist() for ids in np.triu_indices(30, k=1))))
    want = dense_bound_quantities(graph, truth, 0.1, q.pairs)
    for got, expected in zip((q.omega, q.B, q.Q, q.V), want):
        assert np.allclose(got, expected, rtol=1e-10, atol=0)


def test_bound_pairs_refuse_a_resistance_that_cancelled():
    # two 30-cliques compared 10^6 times as often as their bridge: every edge's resistance
    # meets Foster's identity, but the pair (0, 1), grounded across the bridge, cancels
    truth = ScoreVector.zero_sum(np.zeros(60))
    kept = generate_special("barbell", clique1=30, clique2=30, L=10 ** 4, L_st=1)
    assert bound_quantities(kept, truth, 0.1, pairs=[(0, 1), (0, 59)]).omega[0] > 0
    graph = generate_special("barbell", clique1=30, clique2=30, L=10 ** 6, L_st=1)
    with pytest.raises(LaplacianError, match=r"^the resistance of pair \(0, 1\) cancelled"):
        bound_quantities(graph, truth, 0.1, pairs=[(0, 1), (0, 59)])


def test_a_one_pair_bound_holds_no_n_by_n_array():
    # an n x n L^+ would take 3.2 GB here; the factor, the edge arrays and two columns take
    # O(E + n band) bytes (20 MB measured)
    n = 20_000
    graph = generate_grid(GridSpec(kind="grid1d", n=n, r=10, p=0.8), L=5,
                          rng=np.random.default_rng(3))
    truth = make_scores("sine", n, 10)
    band = oracle_laplacian(graph, truth).band
    tracemalloc.start()
    try:
        q = bound_quantities(graph, truth, delta=0.1, pairs=[(0, n - 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (graph.num_edges + n * (band + 1))
    assert np.all(np.isfinite([q.omega, q.B, q.Q, q.V])) and np.all(q.omega > 0)
