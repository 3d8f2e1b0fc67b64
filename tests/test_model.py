"""Scores, sampling, sufficient statistics, and the oracle Laplacian."""

import math

import numpy as np
import pytest

from btlrank import (ComparisonData, ComparisonGraph, GraphError, LaplacianOperator,
                     ModelError, ScoreVector, dynamic_range, exact_comparisons,
                     generate_special, logit, make_scores, oracle_laplacian,
                     sample_comparisons, sigmoid, sigmoid_derivative,
                     sigmoid_roots)


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    # logit inverts sigmoid; the float y loses ~ULP e^{|x|} of x at large |x|
    for x in np.linspace(-30, 30, 61):
        assert logit(sigmoid(x)) == pytest.approx(
            x, abs=1e-12 + 4e-16 * math.exp(abs(x)))
    # stable at large inputs, no overflow warnings
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)


def test_sigmoid_bits_match_two_branch_formula():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0,
                  np.inf, -np.inf, 0.3, -2.5, 36.7, -745.2])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    got = sigmoid(x)
    assert got.tobytes() == want.tobytes()
    assert [sigmoid(v) for v in x.tolist()] == want.tolist()
    assert np.isnan(sigmoid(np.nan))


def test_sigmoid_derivative_lower_bound():
    # sigma'(x) >= 1/(4 e^{|x|}) on a grid
    xs = np.linspace(-20, 20, 401)
    assert np.all(sigmoid_derivative(xs) >= 1.0 / (4.0 * np.exp(np.abs(xs))))
    assert sigmoid_derivative(1.0) == pytest.approx(0.196612, abs=1e-6)


def test_sigmoid_derivative_is_even_bit_for_bit():
    xs = np.linspace(0.0, 745.0, 74501)
    z = sigmoid_derivative(xs)
    assert np.array_equal(z, sigmoid_derivative(-xs))
    assert sigmoid_derivative(0.0) == 0.25
    # e / (1 + e)^2 with e = exp(-|x|) stays positive where s (1 - s) rounds to 0
    assert np.all(z > 0.0) and np.all(np.diff(z) <= 0.0)


def test_logit_example_and_errors():
    assert logit(0.7) == pytest.approx(math.log(7.0 / 3.0), abs=1e-12)
    assert logit(0.7) == pytest.approx(0.847298, abs=1e-6)
    for bad in (0.0, 1.0):
        with pytest.raises(ModelError):
            logit(bad)


def test_make_scores_linear_gauge():
    s = make_scores("linear", 3, 1)
    assert np.allclose(s.values, [-1.0, 0.0, 1.0])
    assert s.gauge == "zero-sum"


def test_make_scores_sine_zero_sum():
    s = make_scores("sine", 2, 1)
    assert abs(s.values.sum()) <= 1e-9 * 2


def test_make_scores_linear_edge_range():
    from btlrank import GridSpec, generate_grid

    graph = generate_grid(GridSpec(kind="grid1d", n=100, r=10), L=1)
    s = make_scores("linear", 100, 10)
    kappa, kappa_e = dynamic_range(graph, s)
    assert kappa_e <= math.e + 1e-12


def test_make_scores_linear2d():
    s = make_scores("linear2d", 9, 2)
    raw = s.values - s.values.min()
    # node (i1, i2) at flat index 3 i1 + i2 carries (i1 + i2) / 2
    assert raw[0] == pytest.approx(0.0)
    assert raw[8] == pytest.approx(2.0)
    assert raw[5] == pytest.approx(raw[7])


def test_dynamic_range_examples():
    line = generate_special("line", n=3)
    const = ScoreVector(np.zeros(3))
    k, ke = dynamic_range(line, const)
    assert k == 1.0 and ke == 1.0
    lin = make_scores("linear", 3, 1)
    k, ke = dynamic_range(line, lin)
    assert k == pytest.approx(math.e ** 2, rel=1e-12)
    assert ke == pytest.approx(math.e, rel=1e-12)
    complete = generate_special("complete", n=5)
    rng = np.random.default_rng(3)
    v = rng.normal(size=5)
    k, ke = dynamic_range(complete, ScoreVector(v - v.mean()))
    assert k == pytest.approx(ke, rel=1e-12)


def test_sample_comparisons_deterministic_and_concentrated():
    graph = generate_special("complete", n=6, L=100_000)
    scores = make_scores("sine", 6, 2)
    d1 = sample_comparisons(graph, scores, np.random.default_rng(11))
    d2 = sample_comparisons(graph, scores, np.random.default_rng(11))
    assert np.array_equal(d1.wins, d2.wins)
    p = sigmoid(scores.values[graph.edge_i] - scores.values[graph.edge_j])
    slack = 4.0 * np.sqrt(p * (1.0 - p) / graph.counts)
    assert np.all(np.abs(d1.y - p) <= slack)


def test_sample_single_comparison_binary():
    graph = generate_special("line", n=4, L=1)
    scores = make_scores("linear", 4, 1)
    data = sample_comparisons(graph, scores, np.random.default_rng(0))
    assert set(np.unique(data.wins)).issubset({0, 1})


def test_fair_coin_concentration():
    graph = generate_special("line", n=2, L=10 ** 6)
    data = sample_comparisons(graph, ScoreVector(np.zeros(2)),
                              np.random.default_rng(5))
    assert abs(data.y[0] - 0.5) <= 0.002


def test_model_weights_and_oracle_laplacian():
    graph = generate_special("line", n=2, L=3)
    scores = ScoreVector(np.array([0.5, -0.5]))
    op = oracle_laplacian(graph, scores)
    dense = op.dense()
    # the edge weight is L z with the model weight z = sigmoid'(theta_0 - theta_1)
    assert -dense[0, 1] / 3.0 == pytest.approx(sigmoid_derivative(1.0), rel=1e-12)
    assert dense[0, 0] == pytest.approx(3.0 * sigmoid_derivative(1.0), rel=1e-12)
    assert dense[0, 0] == pytest.approx(0.589836, abs=1e-6)
    apart = ComparisonGraph(4, np.array([0, 2]), np.array([1, 3]), np.array([3, 3]))
    with pytest.raises(GraphError, match="connected"):
        oracle_laplacian(apart, ScoreVector(np.zeros(4)))


def test_surrogate_is_quarter_of_oracle_at_zero_scores():
    graph = generate_special("complete", n=5, L=7)
    zero = ScoreVector(np.zeros(5))
    lz = oracle_laplacian(graph, zero).dense()
    lg = LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, graph.counts).dense()
    assert np.allclose(lz, 0.25 * lg, atol=1e-12)


def test_sandwich_property():
    # Lz <= LG <= 4 kappa_E Lz in the PSD order, via extremal Rayleigh quotients
    rng = np.random.default_rng(21)
    for _ in range(5):
        graph = generate_special("er", rng=rng, n=12, p=0.6, L=3)
        if not graph.connected:
            continue
        v = rng.normal(size=12)
        scores = ScoreVector(v - v.mean())
        lz = oracle_laplacian(graph, scores).dense()
        lg = LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, graph.counts).dense()
        _, kappa_e = dynamic_range(graph, scores)
        for diff in (lg - lz, 4.0 * kappa_e * lz - lg):
            w = np.linalg.eigvalsh(diff)
            assert w.min() >= -1e-9


def test_data_roundtrip_and_y_convention(tmp_path):
    graph = generate_special("complete", n=4, L=9)
    scores = make_scores("linear", 4, 2)
    data = sample_comparisons(graph, scores, np.random.default_rng(2))
    path = tmp_path / "data.csv"
    data.to_csv(path)
    back = ComparisonData.from_csv(path, graph)
    assert np.array_equal(back.wins, data.wins)
    assert np.allclose(back.y, data.wins / graph.counts)


def test_exact_comparisons_matches_probabilities():
    graph = generate_special("ring", n=5, L=10)
    scores = make_scores("sine", 5, 1)
    data = exact_comparisons(graph, scores)
    p = sigmoid(scores.values[graph.edge_i] - scores.values[graph.edge_j])
    assert np.allclose(data.y, p, atol=1e-15)


def test_scores_json_roundtrip(tmp_path):
    s = make_scores("sine", 7, 2)
    path = tmp_path / "scores.json"
    s.to_json(path)
    back = ScoreVector.from_json(path)
    assert np.allclose(back.values, s.values, atol=1e-15)


def test_make_scores_validation():
    with pytest.raises(ModelError):
        make_scores("linear", 1, 1)
    with pytest.raises(ModelError):
        make_scores("linear2d", 10, 2)
    with pytest.raises(ModelError):
        make_scores("custom", 3, 1)
    with pytest.raises(ModelError):
        make_scores("nope", 3, 1)


@pytest.mark.parametrize("rows", [
    ["0,1,2,4", "0,2,3,4", "2,3,1,4"],  # (0, 2) is not an edge
    ["0,1,2,4", "0,1,3,4", "2,3,1,4"],  # (0, 1) twice hides the missing (1, 2)
    ["0,1,2,4", "1,2,3,5", "2,3,1,4"],  # sample count differs from the graph's
    ["0,1,2,4", "1,2,3,4"],  # too few rows
])
def test_data_csv_rejects_rows_that_do_not_match_the_edges(tmp_path, rows):
    graph = generate_special("line", n=4, L=4)
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["i,j,wins,L"] + rows) + "\n")
    with pytest.raises(ModelError):
        ComparisonData.from_csv(path, graph)


def test_data_csv_rows_in_any_order(tmp_path):
    graph = generate_special("line", n=4, L=4)
    path = tmp_path / "data.csv"
    path.write_text("i,j,wins,L\n2,3,1,4\n0,1,2.5,4\n1,2,0,4\n")
    assert ComparisonData.from_csv(path, graph).wins.tolist() == [2.5, 0.0, 1.0]


def scalar_root(w, b, target):
    """Bisection for sum_t w_t sigmoid(x + b_t) = target on [-1000, 1000]."""
    lo, hi = -1000.0, 1000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (w * sigmoid(mid + b)).sum() >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_sigmoid_roots_match_scalar_bisection():
    rng = np.random.default_rng(4)
    sizes = np.array([1, 2, 5, 1, 3, 8])  # mixed group sizes, in shuffled order
    k = len(sizes)
    group = rng.permutation(np.repeat(np.arange(k), sizes))
    w = rng.integers(1, 40, size=len(group)).astype(np.float64)
    b = rng.uniform(-3.0, 3.0, size=len(group))
    b[group == 1] += 80.0  # offsets beyond +-60
    b[group == 3] -= 80.0
    weight = np.bincount(group, w, k)
    target = np.array([0.5, 0.2, 0.9, 0.3, 1e-9, 0.6]) * weight
    for x0 in (None, rng.normal(scale=100.0, size=k)):
        x = sigmoid_roots(group, w, b, target, k, x0=x0)
        for a in range(k):
            sel = group == a
            assert x[a] == pytest.approx(scalar_root(w[sel], b[sel], target[a]),
                                         rel=1e-12, abs=1e-10)
    assert x[1] < -70.0 and x[3] > 70.0
    target[0] = 0.0  # no root: the sum only tends to 0
    with pytest.raises(ModelError):
        sigmoid_roots(group, w, b, target, k)


def test_data_csv_bytes(tmp_path):
    graph = ComparisonGraph(n=4, edge_i=np.array([0, 1, 2]), edge_j=np.array([1, 3, 3]),
                            counts=np.array([5, 3, 10]))
    path = tmp_path / "d.csv"
    ComparisonData(graph, np.array([2.0, 0.0, 10.0])).to_csv(path)
    assert path.read_bytes() == b"i,j,wins,L\n0,1,2,5\n1,3,0,3\n2,3,10,10\n"
    ComparisonData(graph, np.array([0.1, 3.0, 7.25])).to_csv(path)
    assert path.read_bytes() == b"i,j,wins,L\n0,1,0.1,5\n1,3,3,3\n2,3,7.25,10\n"


def test_nan_wins_are_rejected(tmp_path):
    graph = ComparisonGraph(n=3, edge_i=np.array([0, 1]), edge_j=np.array([1, 2]),
                            counts=np.array([10, 10]))
    # NaN fails both range comparisons, so only a finiteness check catches it
    with pytest.raises(ModelError, match=r"wins must be finite; edge \(1,2\) has nan"):
        ComparisonData(graph, np.array([3.0, np.nan]))
    path = tmp_path / "d.csv"
    path.write_text("i,j,wins,L\n0,1,nan,10\n1,2,4,10\n")
    with pytest.raises(ModelError, match="wins must be finite"):
        ComparisonData.from_csv(path, graph)


def test_zero_sum_scores_must_be_finite(tmp_path):
    path = tmp_path / "scores.json"
    path.write_text("[0.0, 1.0, -Infinity]")  # a spectral underflow output
    with pytest.raises(ModelError, match=r"nodes \[2\] are \[-inf\]"):
        ScoreVector.from_json(path)
    with pytest.raises(ModelError, match=r"nodes \[0\] are \[nan\]"):
        ScoreVector(np.array([np.nan, 0.0]))
    raw = ScoreVector(np.array([0.0, 1.0, -np.inf]), gauge="raw")
    assert raw.values[2] == -np.inf


def test_zero_sum_gauge_scales_with_magnitude():
    # centering a large score leaves a rounding residue far above an absolute 1e-9 * n
    scores = ScoreVector.zero_sum([0.0, 0.0, 25715218.0])
    assert scores.values.sum() != 0.0
    assert np.array_equal(scores.values, np.array([0.0, 0.0, 25715218.0]) - 25715218.0 / 3)
    with pytest.raises(ModelError, match="gauge violated"):
        ScoreVector(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ModelError, match="gauge violated"):
        ScoreVector(np.array([0.0, 1e6, -1e6 + 1.0]))


def test_zero_sum_centers_scores_whose_sum_overflows():
    # the sum 2e308 exceeds float64; the mean and every centered score do not
    scores = ScoreVector.zero_sum([1e308, 1e308, 0.0])
    third = 1e308 / 3
    assert np.allclose(scores.values, [third, third, -2 * third], rtol=1e-15, atol=0.0)
    # a zero-sum vector whose partial sums overflow still passes the gauge check
    assert ScoreVector(np.array([1.5e308, 1.5e308, -1.5e308, -1.5e308])).n == 4
    # the centered form of these scores is beyond float64: say so, not "scores are -inf"
    with pytest.raises(ModelError, match="centered scores exceed the float64 range"):
        ScoreVector.zero_sum([1.7e308, 1.7e308, -1.7e308])
