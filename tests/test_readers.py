"""The graph and data CSV readers against the ``np.loadtxt`` reader they replace: the same
arrays for every valid file, the same errors and exit codes for malformed ones."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlrank import ComparisonData, ComparisonGraph, GraphError
from btlrank.cli import main

GRAPH_ROW = [("i", np.int64), ("j", np.int64), ("L", np.int64)]
DATA_ROW = [("i", np.int64), ("j", np.int64), ("wins", np.float64), ("L", np.int64)]


def loadtxt_graph(path):
    """(n, edge_i, edge_j, counts) as a plain ``np.loadtxt`` read of the body gives them."""
    with open(path) as f:
        f.readline()
        start = f.tell()
        meta = f.readline()
        f.seek(start)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(f, delimiter=",", ndmin=1, dtype=GRAPH_ROW)
    ei, ej = rows["i"], rows["j"]
    n = int(meta[4:]) if meta.startswith("# n=") else int(np.append(ei, ej).max(initial=0)) + 1
    return n, ei, ej, rows["L"]


def loadtxt_wins(path, graph):
    """The wins column of a ``np.loadtxt`` read, put in the graph's edge order."""
    with open(path) as f:
        f.readline()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(f, delimiter=",", ndmin=1, dtype=DATA_ROW)
    where = dict(zip(zip(rows["i"].tolist(), rows["j"].tolist()), rows["wins"].tolist()))
    return np.array([where[e] for e in zip(graph.edge_i.tolist(), graph.edge_j.tolist())],
                    dtype=np.float64)


def same(a, b) -> bool:
    """Equal values, dtype and bytes: -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


@st.composite
def csv_files(draw):
    """Graph and data CSV text in the layouts a reader may meet."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([pair for pair, kept in zip(pairs, keep) if kept]))
    counts = [draw(st.integers(1, 10**6) | st.integers(2**53, 2**62)) for _ in edges]
    if draw(st.booleans()):  # sampled data: integral wins
        wins = [str(draw(st.integers(0, c))) for c in counts]
    else:  # exact data: what the writer emits for fractional wins
        wins = []
        for c in counts:
            w = min(draw(st.sampled_from([0.1, 7.25, 1e-05, 3.0]) | st.floats(0.0, float(c))),
                    float(c))
            wins.append(str(int(w)) if w.is_integer() else repr(w))
    sep = draw(st.sampled_from([",", ", "]))
    end = draw(st.sampled_from(["\n", ""]))  # with and without a trailing newline
    meta = [f"# n={n}"] if draw(st.booleans()) else []
    graph = meta + [f"{i}{sep}{j}{sep}{c}" for (i, j), c in zip(edges, counts)]
    data = [f"{i}{sep}{j}{sep}{w}{sep}{c}" for (i, j), w, c in zip(edges, wins, counts)]
    data = draw(st.permutations(data)) if draw(st.booleans()) else data
    return ("i,j,L\n" + "\n".join(graph) + (end if graph else ""),
            "i,j,wins,L\n" + "\n".join(data) + (end if data else ""))


@given(files=csv_files())
def test_readers_match_loadtxt(tmp_path_factory, files):
    tmp = tmp_path_factory.mktemp("readers")
    (tmp / "g.csv").write_text(files[0])
    (tmp / "d.csv").write_text(files[1])
    graph = ComparisonGraph.from_csv(tmp / "g.csv")
    n, ei, ej, counts = loadtxt_graph(tmp / "g.csv")
    assert graph.n == n
    for got, want in [(graph.edge_i, ei), (graph.edge_j, ej), (graph.counts, counts)]:
        assert same(got, want)
    assert same(ComparisonData.from_csv(tmp / "d.csv", graph).wins,
                loadtxt_wins(tmp / "d.csv", graph))


GRAPH = b"i,j,L\n# n=4\n0,1,5\n1,2,5\n2,3,5\n"
DATA = b"i,j,wins,L\n0,1,2,5\n1,2,3,5\n2,3,4,5\n"

# (graph file, data file); each is malformed, or valid only to the general reader
ODD_FILES = [
    pytest.param(b"i,j,L\n# n=4\n0,1\n1,2,5,2\n3,5,0\n",
                 b"i,j,wins,L\n0,1,2\n1,2,3,5,2\n3,4,5,0\n", id="ragged rows, right field total"),
    pytest.param(b"i,j,L\n# n=4\n0,1,5\n1,,5\n2,3,5\n",
                 b"i,j,wins,L\n0,1,,5\n1,2,3,5\n2,3,4,5\n", id="empty field"),
    pytest.param(b"i,j,L\n# n=4\n0,1,5\n1,2,9223372036854775808\n2,3,5\n",
                 b"i,j,wins,L\n0,1,2,5\n1,2,3,9223372036854775808\n2,3,4,5\n",
                 id="int64 overflow"),
    pytest.param(GRAPH.replace(b"\n", b"\r\n"), DATA.replace(b"\n", b"\r\n"), id="CRLF endings"),
    pytest.param(b"i,j,L\n# n=4\n0,1,5\n# x\n1,2,5\n2,3,5\n",
                 b"i,j,wins,L\n0,1,2,5\n# x\n1,2,3,5\n2,3,4,5\n", id="comment line"),
    pytest.param(b"i,j,L\n# n=4\n0,1,5\n\n1,2,5\n2,3,5\n",
                 b"i,j,wins,L\n0,1,2,5\n1,2,3,5\n\n2,3,4,5\n", id="blank line"),
    pytest.param(GRAPH.replace(b"# n=4", b"# n= +4 "), DATA, id="node count with sign and spaces"),
]


@pytest.mark.parametrize("graph_bytes, data_bytes", ODD_FILES)
def test_odd_files_read_or_fail_as_loadtxt_does(tmp_path, graph_bytes, data_bytes):
    good_graph = tmp_path / "good.csv"
    good_graph.write_bytes(GRAPH)
    good = ComparisonGraph.from_csv(good_graph)
    g, d, out = tmp_path / "g.csv", tmp_path / "d.csv", str(tmp_path / "out")
    g.write_bytes(graph_bytes)
    d.write_bytes(data_bytes)
    cases = [(lambda: ComparisonGraph.from_csv(g), lambda: loadtxt_graph(g),
              ["resistance", "--graph", str(g), "--out", out]),
             (lambda: ComparisonData.from_csv(d, good), lambda: loadtxt_wins(d, good),
              ["estimate", "--method", "mle-precond", "--graph", str(good_graph),
               "--data", str(d), "--out", out])]
    for read, reference, argv in cases:
        try:
            want = reference()
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read()
            assert got.type is type(exc) and str(got.value) == str(exc)
            assert main(argv) == 1
            continue
        got = read()
        if isinstance(got, ComparisonGraph):
            assert got.n == want[0]
            assert all(same(a, b) for a, b in zip((got.edge_i, got.edge_j, got.counts), want[1:]))
        else:
            assert same(got.wins, want)
        assert main(argv) == 0


def test_a_node_count_line_that_is_not_an_int64_is_refused(tmp_path, capsys):
    # int() refused the first with a message that named no file, and the second escaped main
    # as an OverflowError from the int64 edge keys
    g, out = tmp_path / "g.csv", tmp_path / "out.csv"
    for line in ("# n=abc", "# n=99999999999999999999999"):
        g.write_text(f"i,j,L\n{line}\n0,1,5\n")
        message = f"{g}, line 2: {line!r} is not an int64 node count"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            ComparisonGraph.from_csv(g)
        assert main(["resistance", "--graph", str(g), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    g.write_text(f"i,j,L\n# n={2 ** 63 - 1}\n0,1,5\n")  # the largest int64 still reads
    assert ComparisonGraph.from_csv(g).n == 2 ** 63 - 1


@pytest.mark.parametrize("top", [2 ** 63 - 1, 10 ** 12])
def test_node_ids_past_the_edge_key_range_are_refused(tmp_path, capsys, top):
    # without a "# n=" line n is top + 1: the first escaped main as an OverflowError from the
    # edge keys i n + j, the second as an allocation of n floats (7.28 TiB)
    g, out = tmp_path / "g.csv", tmp_path / "r.csv"
    g.write_text(f"i,j,L\n0,{top},5\n")
    message = (f"a graph of n={top + 1} nodes with an edge at node {top} is too large: "
               "its edge keys i*n + j do not fit in int64")
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        ComparisonGraph.from_csv(g)
    assert main(["resistance", "--graph", str(g), "--pairs", "0,1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_the_edge_key_range_is_exact():
    # the largest key, (n - 2) n + n - 1 with an edge at the last node, fits up to this n
    n = 3_037_000_500
    assert ComparisonGraph(n, [n - 2], [n - 1], [1]).n == n
    with pytest.raises(GraphError, match="do not fit in int64"):
        ComparisonGraph(n + 1, [n - 1], [n], [1])
    # a larger n reads while the keys of its edges fit, and is refused where they would wrap
    assert ComparisonGraph(2 ** 62, [0], [1], [1]).n == 2 ** 62
    with pytest.raises(GraphError, match="do not fit in int64"):
        ComparisonGraph(2 ** 62, [2], [3], [1])


def test_header_only_files_read_without_warnings(tmp_path):
    (tmp_path / "g.csv").write_text("i,j,L\n# n=5\n")
    (tmp_path / "d.csv").write_text("i,j,wins,L\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = ComparisonGraph.from_csv(tmp_path / "g.csv")
        data = ComparisonData.from_csv(tmp_path / "d.csv", graph)
    assert graph.n == 5 and graph.num_edges == 0 and not graph.connected
    assert same(graph.edge_i, np.empty(0, np.int64)) and same(data.wins, np.empty(0))
