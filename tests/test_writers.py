"""The graph, data, score and partition writers, byte for byte against per-row reference
formatters, and their round trips through the readers."""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlrank import (ComparisonData, ComparisonGraph, GridSpec, ModelError, ScoreVector,
                     exact_comparisons, generate_grid, grid_partition, make_scores,
                     sample_comparisons)
from btlrank import graphs


def reference_graph_csv(graph: ComparisonGraph) -> bytes:
    text = f"i,j,L\n# n={graph.n}\n"
    for i, j, c in zip(graph.edge_i.tolist(), graph.edge_j.tolist(), graph.counts.tolist()):
        text += f"{i},{j},{c}\n"
    return text.encode()


def reference_data_csv(data: ComparisonData) -> bytes:
    text = "i,j,wins,L\n"
    for i, j, w, c in zip(data.graph.edge_i.tolist(), data.graph.edge_j.tolist(),
                          data.wins.tolist(), data.graph.counts.tolist()):
        text += f"{i},{j},{int(w) if w.is_integer() else repr(w)},{c}\n"
    return text.encode()


def reference_json(obj, path) -> bytes:
    with open(path, "w") as f:
        json.dump(obj, f)
    return path.read_bytes()


@st.composite
def datasets(draw):
    """A graph on up to 12 nodes, possibly edgeless, with integral or fractional wins."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    counts = draw(st.lists(st.integers(1, 10**6), min_size=len(edges), max_size=len(edges)))
    integral = draw(st.booleans())
    wins = []
    for c in counts:
        if integral:
            wins.append(float(draw(st.integers(0, c))))
        else:
            w = draw(st.sampled_from([0.1, 7.25, 1e-05, 3.0]) | st.floats(0.0, float(c)))
            wins.append(min(w, float(c)))
    ei = np.array([i for i, _ in edges], dtype=np.int64)
    ej = np.array([j for _, j in edges], dtype=np.int64)
    graph = ComparisonGraph(n, ei, ej, np.array(counts, dtype=np.int64))
    return ComparisonData(graph, np.array(wins))


score = st.floats(-1e300, 1e300) | st.sampled_from([np.inf, -np.inf, np.nan, 0.1, 1e-05])


@given(data=datasets(), chunk=st.integers(1, 4),
       values=st.lists(score, min_size=1, max_size=30))
def test_writers_match_per_row_reference(tmp_path_factory, data, chunk, values):
    tmp = tmp_path_factory.mktemp("writers")
    graph = data.graph
    with mock.patch.object(graphs, "_CHUNK_ROWS", chunk):  # several chunks on small graphs
        graph.to_csv(tmp / "g.csv")
        data.to_csv(tmp / "d.csv")
    assert (tmp / "g.csv").read_bytes() == reference_graph_csv(graph)
    assert (tmp / "d.csv").read_bytes() == reference_data_csv(data)
    back = ComparisonGraph.from_csv(tmp / "g.csv")
    assert back.n == graph.n
    for name in ("edge_i", "edge_j", "counts"):
        assert np.array_equal(getattr(back, name), getattr(graph, name))
    assert np.array_equal(ComparisonData.from_csv(tmp / "d.csv", graph).wins, data.wins)

    scores = ScoreVector(np.array(values), gauge="raw")
    scores.to_json(tmp / "s.json")
    assert (tmp / "s.json").read_bytes() == reference_json(values, tmp / "ref.json")
    assert np.array_equal(json.loads((tmp / "s.json").read_text()), values, equal_nan=True)
    if not np.all(np.isfinite(scores.values)):
        with pytest.raises(ModelError, match="finite"):
            ScoreVector.from_json(tmp / "s.json")
    else:
        assert np.array_equal(ScoreVector.from_json(tmp / "s.json").values,
                              ScoreVector.zero_sum(scores.values).values)


def test_writers_span_several_chunks(tmp_path):
    # sum_{d=1..7} (10000 - d) = 69,972 rows, more than one chunk
    spec = GridSpec(kind="grid1d", n=10_000, r=7)
    graph = generate_grid(spec, L=20)
    assert graph.num_edges > graphs._CHUNK_ROWS
    truth = make_scores("sine", 10_000, 7)
    graph.to_csv(tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_bytes() == reference_graph_csv(graph)
    for data in (sample_comparisons(graph, truth, np.random.default_rng(3)),
                 exact_comparisons(graph, truth)):
        data.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == reference_data_csv(data)
        assert np.array_equal(ComparisonData.from_csv(tmp_path / "d.csv", graph).wins, data.wins)
    truth.to_json(tmp_path / "s.json")
    assert (tmp_path / "s.json").read_bytes() == reference_json(truth.values.tolist(),
                                                                tmp_path / "ref.json")
    part = grid_partition(spec, "overlapping")
    part.to_json(tmp_path / "p.json")
    assert (tmp_path / "p.json").read_bytes() == reference_json(
        [s.tolist() for s in part.subsets], tmp_path / "ref.json")



# 0, 9, 10, 99, 100, ..., 10^12, and 2^32 - 1, 2^32, 2^40: every digit count from 1 to 13
BOUNDARIES = sorted({0, 2 ** 32 - 1, 2 ** 32, 2 ** 40}
                    | {10 ** k + d for k in range(1, 13) for d in (-1, 0)})


def boundary_data() -> ComparisonData:
    """Node ids, counts and integral wins on both sides of every digit-count boundary."""
    rows = [(c, w) for c in BOUNDARIES[1:] for w in {0, c - 1, c, BOUNDARIES[1]} if w <= c]
    # node ids up to 10^7 + 1, eight digits; the first pairs of them in lexicographic order
    ids = sorted({b + d for b in BOUNDARIES if b <= 10 ** 7 for d in (0, 1)})
    pairs = list(itertools.combinations(ids, 2))[:len(rows)]
    graph = ComparisonGraph(ids[-1] + 1, np.array([i for i, _ in pairs]),
                            np.array([j for _, j in pairs]), np.array([c for c, _ in rows]))
    return ComparisonData(graph, np.array([w for _, w in rows], dtype=np.float64))


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_int_writers_cross_every_digit_count(tmp_path, chunk):
    data = boundary_data()
    graph = data.graph
    fields = np.concatenate([graph.edge_i, graph.edge_j, graph.counts, data.wins.astype(np.int64)])
    assert set(BOUNDARIES) <= set(fields.tolist())
    assert set(BOUNDARIES[:15]) <= set(graph.edge_i.tolist()) | set(graph.edge_j.tolist())
    edgeless = ComparisonGraph(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                               np.array([], dtype=np.int64))
    with mock.patch.object(graphs, "_CHUNK_ROWS", chunk):
        for case in (data, ComparisonData(edgeless, np.array([]))):
            case.graph.to_csv(tmp_path / "g.csv")
            case.to_csv(tmp_path / "d.csv")
            assert (tmp_path / "g.csv").read_bytes() == reference_graph_csv(case.graph)
            assert (tmp_path / "d.csv").read_bytes() == reference_data_csv(case)
            back = ComparisonGraph.from_csv(tmp_path / "g.csv")
            assert back.n == case.graph.n and np.array_equal(back.counts, case.graph.counts)
            assert np.array_equal(ComparisonData.from_csv(tmp_path / "d.csv", back).wins,
                                  case.wins)
        # the largest int64 has 19 digits
        widest = ComparisonGraph(3, np.array([0, 1]), np.array([1, 2]),
                                 np.array([np.iinfo(np.int64).max, 10 ** 18]))
        widest.to_csv(tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == reference_graph_csv(widest)
