"""Error reports, concentration-bound quantities, and locality rates."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlrank import (ComparisonGraph, GridSpec, ModelError, ScoreVector, bound_quantities,
                     error_report, generate_grid, generate_special, locality_bound,
                     make_scores, oracle_laplacian, sigmoid_derivative)
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
    assert math.isinf(rep.linf) and math.isinf(rep.l2)


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
    with pytest.raises(ModelError):
        bound_quantities(graph, truth, delta=0.1, C0=0.0)


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
    # custom constant override
    assert locality_bound("grid1d", 500, 20, 0.5, 30, const=1.0) \
        == pytest.approx(got / 5.0, rel=1e-12)


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

    # the edge check: three full blocks of edges and a tail block
    assert graph.num_edges > 3 * PAIR_BLOCK and graph.num_edges % PAIR_BLOCK
    q_edge = np.array([aggregates(k, l)[0] for k, l in zip(ei, ej)])
    # Q / 4B grows linearly in C0; at C0_star its largest edge value is exactly 1
    ratio = q_edge / (4.0 * B_edge)
    c0_star = 1.0 / ratio.max()
    assert not q.edge_ok and c0_star < 1.0
    # the worst edge sits in a full block as generated, and last (in the tail block) once rolled
    E = graph.num_edges
    assert ratio.argmax() < E - E % PAIR_BLOCK
    for order in (np.arange(E), np.roll(np.arange(E), E - 1 - int(ratio.argmax()))):
        edges = ComparisonGraph(40, ei[order], ej[order], graph.counts[order])
        below = bound_quantities(edges, truth, delta=0.1, C0=c0_star * (1 - 1e-6), pairs=[(0, 1)])
        above = bound_quantities(edges, truth, delta=0.1, C0=c0_star * (1 + 1e-6), pairs=[(0, 1)])
        assert below.edge_ok and not above.edge_ok
