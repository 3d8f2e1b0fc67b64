"""Grid generators, special topologies, partitions, and super-graphs."""

import re

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from btlrank import (ComparisonGraph, GraphError, GridSpec, LaplacianOperator, Partition,
                     generate_grid, generate_special, grid_partition, partition_grid)
from btlrank.graphs import SPECIAL_KINDS, _components, _eligible_pairs
from graph_helpers import edge_index_map, subgraph_edges


def connected(sup) -> bool:
    """Whether the super-graph given as a strict upper COO matrix is connected."""
    return LaplacianOperator(sup.shape[0], sup.row, sup.col, sup.data).connected


def test_grid1d_dense_edge_count():
    graph = generate_grid(GridSpec(kind="grid1d", n=100, r=5), L=1)
    # sum_{d=1..5} (100 - d) = 485
    assert graph.num_edges == 485
    assert graph.connected
    assert np.all(graph.counts == 1)


@pytest.mark.parametrize("order", ["sorted", "shuffled", "shuffled-and-flipped"])
def test_components_match_the_undirected_search(order):
    # sparse draws leave isolated nodes and several components, dense ones a single one
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        i, j = np.triu_indices(n, k=1)
        keep = rng.random(len(i)) < rng.choice([0.0, 0.02, 0.08, 0.3])
        ei, ej = i[keep], j[keep]
        if order != "sorted":  # out of edge_i order takes the sorting branch
            perm = rng.permutation(len(ei))
            ei, ej = ei[perm], ej[perm]
        if order == "shuffled-and-flipped":  # edges given from either end
            flip = rng.random(len(ei)) < 0.5
            ei, ej = np.where(flip, ej, ei), np.where(flip, ei, ej)
        want = connected_components(coo_matrix((np.ones(len(ei)), (ei, ej)), shape=(n, n)),
                                    directed=False)
        got = _components(n, ei, ej)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        if order == "sorted":
            graph = ComparisonGraph(n, ei, ej, np.ones(len(ei), dtype=np.int64))
            assert graph.connected == (want[0] == 1)


def test_grid2d_lattice_edge_count():
    graph = generate_grid(GridSpec(kind="grid2d", n=25, r=1), L=1)
    # the 5x5 lattice: 2 * 5 * 4 edges
    assert graph.num_edges == 40
    assert graph.connected


def test_grid2d_manhattan_radius():
    graph = generate_grid(GridSpec(kind="grid2d", n=25, r=2), L=1)
    side = 5
    pairs = set(zip(graph.edge_i.tolist(), graph.edge_j.tolist()))
    for (a, b) in pairs:
        d = abs(a // side - b // side) + abs(a % side - b % side)
        assert 1 <= d <= 2
    # node (2,2) has a full Manhattan ball of 12 neighbors
    center = 2 * side + 2
    assert graph.degrees()[center] == 12


def test_grid_probability_thins_edges():
    spec = GridSpec(kind="grid1d", n=200, r=4, p=0.5)
    graph = generate_grid(spec, L=3, rng=np.random.default_rng(0))
    dense = generate_grid(GridSpec(kind="grid1d", n=200, r=4), L=3)
    assert 0.35 * dense.num_edges <= graph.num_edges <= 0.65 * dense.num_edges
    assert np.all(graph.counts == 3)
    with pytest.raises(GraphError):
        generate_grid(spec)  # p < 1 without an rng


def reference_eligible_pairs(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pair generator as it was written per kind, kept verbatim as the reference."""
    if spec.kind == "grid1d":
        ii, jj = [], []
        for d in range(1, spec.r + 1):
            i = np.arange(spec.n - d)
            ii.append(i)
            jj.append(i + d)
        return np.concatenate(ii), np.concatenate(jj)
    side = spec.side
    coords = np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, 2)
    ii, jj = [], []
    # offsets (d1, d2) with d1 > 0, or d1 == 0 and d2 > 0, |d1|+|d2| <= r
    for d1 in range(0, spec.r + 1):
        lo = 1 if d1 == 0 else -(spec.r - d1)
        for d2 in range(lo, spec.r - d1 + 1):
            c1 = coords[:, 0] + d1
            c2 = coords[:, 1] + d2
            ok = (c1 < side) & (c2 >= 0) & (c2 < side)
            a = np.nonzero(ok)[0]
            b = c1[ok] * side + c2[ok]
            ii.append(a)
            jj.append(b)
    i = np.concatenate(ii)
    j = np.concatenate(jj)
    lo_, hi_ = np.minimum(i, j), np.maximum(i, j)
    return lo_, hi_


def reference_generate_grid(spec: GridSpec, L: int = 1, rng: np.random.Generator | None = None
                            ) -> ComparisonGraph:
    """``generate_grid`` verbatim, on the reference pairs."""
    ii, jj = reference_eligible_pairs(spec)
    if spec.p < 1.0:
        if rng is None:
            raise GraphError("p < 1 requires an rng")
        keep = rng.random(len(ii)) < spec.p
        ii, jj = ii[keep], jj[keep]
    order = np.argsort(ii * spec.n + jj)  # unique keys: the (i, j) lexicographic order
    ii, jj = ii[order], jj[order]
    return ComparisonGraph(n=spec.n, edge_i=ii, edge_j=jj,
                           counts=np.full(len(ii), int(L), dtype=np.int64))


def reference_window_starts(n: int, width: int, stride: int) -> list[int]:
    if n <= width:
        return [0]
    return list(range(0, n - width + 1, stride))


def reference_grid_partition(spec: GridSpec, mode: str) -> Partition:
    """The window partition as it was written per kind, kept verbatim as the reference."""
    strides = {"overlapping": spec.r, "disjoint": 2 * spec.r}
    if mode not in strides:
        raise GraphError(f"unknown partition mode {mode!r}")
    width, stride = 2 * spec.r, strides[mode]
    side = spec.side
    starts = reference_window_starts(side, width, stride)
    # the windows along one axis; the last absorbs the tail instead of emitting a short one
    windows = [np.arange(s, side if k == len(starts) - 1 else s + width)
               for k, s in enumerate(starts)]
    if spec.kind == "grid1d":
        subsets = windows
    else:
        subsets = [(rows[:, None] * side + cols[None, :]).ravel()
                   for rows in windows for cols in windows]
    return Partition(subsets=subsets, n=spec.n)


# side <= 2r (one window per axis), a last window that absorbs a tail, r >= side, the
# smallest lattices, and grids of the benchmark's shapes
LATTICES = [("grid1d", 2, 1), ("grid1d", 6, 3), ("grid1d", 5, 8), ("grid1d", 23, 4),
            ("grid1d", 5000, 10), ("grid2d", 4, 1), ("grid2d", 49, 4), ("grid2d", 25, 6),
            ("grid2d", 121, 2), ("grid2d", 169, 3), ("grid2d", 10000, 4)]


@pytest.mark.parametrize("kind, n, r", LATTICES)
def test_the_lattice_rule_is_the_per_kind_reference(kind, n, r):
    spec = GridSpec(kind=kind, n=n, r=r)
    for got, want in zip(_eligible_pairs(spec), reference_eligible_pairs(spec)):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    for mode in ("overlapping", "disjoint"):
        got, want = grid_partition(spec, mode), reference_grid_partition(spec, mode)
        assert len(got.subsets) == len(want.subsets)
        for a, b in zip(got.subsets, want.subsets):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # the keep mask is drawn in pair order, so a thinned grid pins that order
    for p in (1.0, 0.7, 0.2):
        thin = GridSpec(kind=kind, n=n, r=r, p=p)
        got = generate_grid(thin, L=3, rng=np.random.default_rng(n + r))
        want = reference_generate_grid(thin, L=3, rng=np.random.default_rng(n + r))
        for a, b in ((got.edge_i, want.edge_i), (got.edge_j, want.edge_j),
                     (got.counts, want.counts)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("kind, n, r", [("grid1d", 300, 6), ("grid2d", 400, 3)])
@pytest.mark.parametrize("p", [1.0, 0.6])
def test_grid_edges_are_in_lexicographic_order(kind, n, r, p):
    spec = GridSpec(kind=kind, n=n, r=r, p=p)
    graph = generate_grid(spec, L=2, rng=np.random.default_rng(5))
    # the same draws, ordered by a lexsort on (i, j)
    ii, jj = reference_eligible_pairs(spec)
    if p < 1:
        keep = np.random.default_rng(5).random(len(ii)) < p
        ii, jj = ii[keep], jj[keep]
    order = np.lexsort((jj, ii))
    assert np.array_equal(graph.edge_i, ii[order]) and np.array_equal(graph.edge_j, jj[order])
    assert graph.edge_i.dtype == graph.edge_j.dtype == np.int64


def test_grid_spec_validation():
    with pytest.raises(GraphError):
        GridSpec(kind="grid2d", n=10, r=1)
    with pytest.raises(GraphError):
        GridSpec(kind="grid1d", n=10, r=0)
    with pytest.raises(GraphError):
        GridSpec(kind="grid1d", n=10, r=1, p=0.0)
    with pytest.raises(GraphError):
        GridSpec(kind="hex", n=10, r=1)


def test_special_graph_shapes():
    assert generate_special("line", n=6).num_edges == 5
    assert generate_special("ring", n=6).num_edges == 6
    assert generate_special("complete", n=6).num_edges == 15
    tree = generate_special("tree", n=20, rng=np.random.default_rng(4))
    assert tree.num_edges == 19 and tree.connected
    barbell = generate_special("barbell", clique1=4, clique2=5, L=2, L_st=1)
    assert barbell.num_edges == 6 + 10 + 1
    assert barbell.connected
    bridge = edge_index_map(barbell)[(3, 4)]
    assert barbell.counts[bridge] == 1


def test_each_special_kind_builds_from_the_parameters_it_requires():
    given = {"n": 6, "p": 0.5, "rng": np.random.default_rng(2), "clique1": 3, "clique2": 4}
    for kind, required in SPECIAL_KINDS.items():
        graph = generate_special(kind, **{name: given[name] for name in required})
        assert graph.n in (6, 7) and graph.num_edges > 0


@pytest.mark.parametrize("kind, params, missing", [
    ("line", {}, "n"), ("barbell", {"L": 2}, "clique1, clique2"),
    ("barbell", {"clique1": 3, "n": 7}, "clique2"), ("er", {"n": 5, "p": 0.5}, "rng"),
    ("tree", {"rng": np.random.default_rng(1)}, "n")])
def test_a_missing_special_parameter_is_named(kind, params, missing):
    with pytest.raises(GraphError, match=f"^{kind} requires {missing}$"):
        generate_special(kind, **params)


@pytest.mark.parametrize("kind, params, message", [
    ("er", {"n": 10, "p": 1.5}, "edge probability must be in (0, 1], got p=1.5"),
    ("er", {"n": 10, "p": -0.2}, "edge probability must be in (0, 1], got p=-0.2"),
    ("er", {"n": 10, "p": 0.0}, "edge probability must be in (0, 1], got p=0.0"),
    ("er", {"n": 10, "p": np.nan}, "edge probability must be in (0, 1], got p=nan"),
    ("er", {"n": 0, "p": 0.5}, "er needs n >= 1, got n=0"),
    ("line", {"n": 0}, "line needs n >= 1, got n=0"),
    ("ring", {"n": -3}, "ring needs n >= 3, got n=-3"),
    ("complete", {"n": 0}, "complete needs n >= 1, got n=0"),
    ("tree", {"n": 1}, "tree needs n >= 2, got n=1"),
    ("ring", {"n": 1}, "ring needs n >= 3, got n=1"),
    ("ring", {"n": 2}, "ring needs n >= 3, got n=2")])
def test_special_kinds_reject_an_out_of_range_n_or_p(kind, params, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        generate_special(kind, rng=np.random.default_rng(0), **params)


@pytest.mark.parametrize("clique1, clique2, name, size", [(0, 3, "clique1", 0),
                                                          (3, -1, "clique2", -1)])
def test_a_barbell_clique_of_no_node_is_refused_by_name(clique1, clique2, name, size):
    with pytest.raises(GraphError, match=f"^barbell needs {name} >= 1, got {name}={size}$"):
        generate_special("barbell", clique1=clique1, clique2=clique2)


def test_er_connectivity_flag():
    rng = np.random.default_rng(0)
    sparse = generate_special("er", rng=rng, n=40, p=0.02)
    assert not sparse.connected
    dense = generate_special("er", rng=rng, n=40, p=0.5)
    assert dense.connected


def test_graph_csv_roundtrip(tmp_path):
    graph = generate_grid(GridSpec(kind="grid1d", n=30, r=3, p=0.7), L=5,
                          rng=np.random.default_rng(1))
    path = tmp_path / "g.csv"
    graph.to_csv(path)
    back = ComparisonGraph.from_csv(path)
    assert back.n == graph.n
    assert np.array_equal(back.edge_i, graph.edge_i)
    assert np.array_equal(back.edge_j, graph.edge_j)
    assert np.array_equal(back.counts, graph.counts)


def test_partition_grid1d_overlapping():
    spec = GridSpec(kind="grid1d", n=64, r=8)
    graph = generate_grid(spec, L=1)
    part, sup = partition_grid(graph, spec, "overlapping")
    # windows of width 2r with stride r: starts 0, 8, 16, ..., 48
    assert part.m == 7
    assert np.array_equal(part.subsets[0], np.arange(16))
    assert np.array_equal(part.subsets[1], np.arange(8, 24))
    # every node is covered; adjacent windows overlap in r nodes
    assert np.all(part.membership_counts() >= 1)
    overlap = np.intersect1d(part.subsets[0], part.subsets[1])
    assert len(overlap) == 8
    # the super-graph of an overlapping 1D partition is a path
    assert sup.shape == (7, 7)
    assert connected(sup)
    deg = np.bincount(sup.row, minlength=7) + np.bincount(sup.col, minlength=7)
    assert sorted(deg.tolist()) == [1, 1, 2, 2, 2, 2, 2]
    assert np.all(sup.data == 8)


def test_partition_grid1d_tail_absorbed():
    spec = GridSpec(kind="grid1d", n=70, r=8)
    graph = generate_grid(spec, L=1)
    part, _ = partition_grid(graph, spec, "overlapping")
    covered = np.zeros(70, dtype=bool)
    for subset in part.subsets:
        covered[subset] = True
    assert covered.all()
    assert part.subsets[-1][-1] == 69


def test_partition_grid1d_disjoint():
    spec = GridSpec(kind="grid1d", n=64, r=8)
    graph = generate_grid(spec, L=1)
    part, sup = partition_grid(graph, spec, "disjoint")
    assert np.all(part.membership_counts() == 1)
    assert connected(sup)


def test_partition_grid2d_overlapping_lattice():
    spec = GridSpec(kind="grid2d", n=144, r=3)
    graph = generate_grid(spec, L=1)
    part, sup = partition_grid(graph, spec, "overlapping")
    # 2r x 2r blocks with stride r over a 12 x 12 board: 3 x 3 windows
    assert part.m == 9
    assert np.all(part.membership_counts() >= 1)
    assert connected(sup)


def test_partition_validation_and_roundtrip(tmp_path):
    subsets = [np.array([0, 1, 2]), np.array([2, 3, 4])]
    part = Partition(subsets=subsets, n=5)
    path = tmp_path / "p.json"
    part.to_json(path)
    back = Partition.from_json(path, n=5)
    assert back.m == 2 and not back.disjoint  # node 2 repeats
    assert np.array_equal(back.subsets[1], subsets[1])
    assert Partition(subsets=[np.array([0, 1]), np.array([2, 3, 4])], n=5).disjoint
    with pytest.raises(GraphError):
        Partition(subsets=subsets, n=6)  # node 5 uncovered
    with pytest.raises(GraphError, match="unknown partition mode"):
        grid_partition(GridSpec(kind="grid1d", n=10, r=2), "overlap")


@pytest.mark.parametrize("subsets", [
    [np.arange(5), np.array([2, 3, 4, 5, 6])],  # sorted, as grid windows are
    [np.array([4, 0, 2]), np.array([6, 5, 3, 1])],  # unsorted
    [np.array([0, 1, 1, 2]), np.array([3, 3]), np.array([6, 4, 5, 4])],  # repeats
    [np.array([0, 1]), np.array([2, 2, 3]), np.arange(3, 7)],  # a repeat opens a subset
    [[2, 0, 1], np.array([3, 4, 5, 6], dtype=np.int32), [6, 5, 5, 6]],  # lists, int32
])
def test_partition_subsets_are_fresh_unique_copies(subsets):
    part = Partition(subsets=subsets, n=7)
    for given_, kept in zip(subsets, part.subsets):
        assert kept.dtype == np.int64
        assert np.array_equal(kept, np.unique(given_))
        if isinstance(given_, np.ndarray):
            assert not np.shares_memory(kept, given_)
    for a, b in zip(part.subsets, part.subsets[1:]):
        assert not np.shares_memory(a, b)
    assert part.disjoint == (sum(len(s) for s in part.subsets) == 7)
    # the membership stacks the kept subsets, and each entry names its subset
    M = part.membership
    assert np.array_equal(M.indices, np.concatenate(part.subsets))
    assert np.diff(M.indptr).tolist() == [len(s) for s in part.subsets]
    assert part.entry_subset.tolist() == [a for a, s in enumerate(part.subsets) for _ in s]
    if part.disjoint:
        assert part.node_subset.tolist() == [next(a for a, s in enumerate(part.subsets)
                                                   if i in s) for i in range(7)]
    else:
        with pytest.raises(GraphError, match="cross edges need a disjoint partition"):
            part.node_subset


def test_overlap_supergraph_weights():
    part = Partition(subsets=[np.array([0, 1, 2]), np.array([2, 3, 4]),
                              np.array([3, 4, 5, 6])], n=7)
    counts = part.shared_weights()
    shared = dict(zip(zip(counts.row.tolist(), counts.col.tolist()), counts.data.tolist()))
    assert shared == {(0, 1): 1.0, (1, 2): 2.0}
    # weighted, entry (a, b) sums the weights of the shared nodes
    weighted = part.shared_weights(np.arange(1.0, 8.0))
    assert weighted.data.tolist() == [3.0, 4.0 + 5.0]


def test_cross_edge_supergraph_counts():
    graph = generate_special("line", n=6)
    part = Partition(subsets=[np.array([0, 1, 2]), np.array([3, 4, 5])], n=6)
    cross, group, sup = part.cross_edges(graph)
    # single cross edge (2, 3), in super-edge 0 between subsets 0 and 1
    assert cross.tolist() == [2] and group.tolist() == [0]
    assert graph.edge_i[cross[0]] == 2 and graph.edge_j[cross[0]] == 3
    assert sup.shape == (2, 2)
    assert (sup.row.tolist(), sup.col.tolist(), sup.data.tolist()) == ([0], [1], [1])
    with pytest.raises(GraphError, match="disjoint"):
        Partition([np.array([0, 1, 2, 3]), np.array([3, 4, 5])], n=6).cross_edges(graph)


def test_cross_edges_past_the_int32_key_range():
    # 50,000 windows of a 100,000-node path: a key a * m + b passes 2^31 once m > 46,340
    spec = GridSpec(kind="grid1d", n=100_000, r=1)
    graph = generate_grid(spec, L=1)
    part = grid_partition(spec, "disjoint")
    assert part.m == 50_000
    cross, group, sup = part.cross_edges(graph)
    assert cross.tolist() == list(range(1, graph.num_edges, 2))
    assert group.tolist() == list(range(49_999))
    assert sup.row.tolist() == list(range(49_999))
    assert sup.col.tolist() == list(range(1, 50_000))
    assert sup.data.tolist() == [1] * 49_999


def test_graph_requires_canonical_edges():
    with pytest.raises(GraphError):
        ComparisonGraph(3, np.array([1]), np.array([1]), np.array([1]))


@pytest.mark.parametrize("ei, ej, counts", [
    ([0, 0, 1], [1, 1, 2], [1, 1, 1]),  # sorted, the repeats adjacent
    ([0, 1, 0, 2], [1, 2, 1, 3], [1, 1, 1, 1]),  # unsorted, the repeats apart
    ([0, 0], [1, 1], [3, 5]),  # one edge with two counts
])
def test_graph_rejects_repeated_edges(ei, ej, counts):
    with pytest.raises(GraphError, match="duplicate edges"):
        ComparisonGraph(4, np.array(ei), np.array(ej), np.array(counts))


def test_graph_accepts_unsorted_distinct_edges():
    graph = ComparisonGraph(4, np.array([1, 0, 2, 0]), np.array([2, 1, 3, 3]), np.ones(4))
    assert graph.num_edges == 4 and graph.connected


def assert_shared_weights_are_pairwise_intersections(part):
    want = []
    for a in range(part.m):
        for b in range(a + 1, part.m):
            shared = np.intersect1d(part.subsets[a], part.subsets[b])
            if len(shared):
                want.append((a, b, len(shared)))
    weights = part.shared_weights()
    assert list(zip(weights.row.tolist(), weights.col.tolist())) == \
        [(a, b) for a, b, _ in want]
    assert np.array_equal(weights.data, [size for _, _, size in want])


def test_overlap_supergraph_matches_pairwise_intersections():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(1, 8))
        subsets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                   for _ in range(m)]
        uncovered = np.setdiff1d(np.arange(n), np.concatenate(subsets))
        if len(uncovered):
            subsets.append(uncovered)
        assert_shared_weights_are_pairwise_intersections(
            Partition(subsets=subsets, n=n))
    for spec in (GridSpec(kind="grid1d", n=70, r=4), GridSpec(kind="grid2d", n=196, r=3),
                 GridSpec(kind="grid2d", n=100, r=2)):
        graph = generate_grid(spec, L=1)
        part, sup = partition_grid(graph, spec, "overlapping")
        assert connected(sup)
        assert_shared_weights_are_pairwise_intersections(part)


def test_partition_rejects_out_of_range_nodes():
    with pytest.raises(GraphError):
        Partition(subsets=[np.array([0, 1, 5])], n=5)
    with pytest.raises(GraphError):
        Partition(subsets=[np.array([-1, 0, 1, 2, 3, 4])], n=5)
    with pytest.raises(GraphError):
        Partition(subsets=[], n=5)


@pytest.mark.parametrize("subsets, named", [([[0, 1, 2, 3, 4], []], [1]),
                                            ([[0, 1], [], [2, 3, 4], []], [1, 3])])
def test_partition_rejects_empty_subsets(subsets, named):
    with pytest.raises(GraphError, match=re.escape(f"partition subsets {named} are empty")):
        Partition(subsets=[np.array(s, dtype=np.int64) for s in subsets], n=5)


def test_graph_csv_keeps_trailing_isolated_nodes(tmp_path):
    graph = ComparisonGraph(5, np.array([0, 1]), np.array([1, 2]), np.array([3, 4]))
    path = tmp_path / "g.csv"
    graph.to_csv(path)
    back = ComparisonGraph.from_csv(path)
    assert back.n == 5 and not back.connected
    assert np.array_equal(back.counts, graph.counts)
    # a file without the n line infers n from the largest index
    path.write_text("i,j,L\n0,1,3\n1,2,4\n")
    assert ComparisonGraph.from_csv(path).n == 3


@pytest.mark.parametrize("kind,n,r", [("grid1d", 70, 4), ("grid2d", 144, 3)])
@pytest.mark.parametrize("mode", ["overlapping", "disjoint"])
def test_inside_edges_columns_match_subgraph_edges(kind, n, r, mode):
    spec = GridSpec(kind=kind, n=n, r=r, p=0.7)
    graph = generate_grid(spec, L=1, rng=np.random.default_rng(6))
    part, _ = partition_grid(graph, spec, mode)
    inside_i, inside_j = part.inside_edges(graph)
    assert inside_i.shape == inside_j.shape == (graph.num_edges, part.m)
    assert np.array_equal(inside_i.indptr, inside_j.indptr)
    assert np.array_equal(inside_i.indices, inside_j.indices)
    offsets = part.membership.indptr
    for a, nodes in enumerate(part.subsets):
        at = slice(inside_i.indptr[a], inside_i.indptr[a + 1])
        edges = inside_i.indices[at]
        assert np.array_equal(edges, subgraph_edges(graph, nodes))
        # 1 + the place of each endpoint in the stacked subsets
        for ends, inside in ((graph.edge_i, inside_i), (graph.edge_j, inside_j)):
            place = inside.data[at] - 1 - offsets[a]
            assert np.array_equal(place, np.searchsorted(nodes, ends[edges]))


@pytest.mark.parametrize("kind,n,r", [("grid1d", 70, 4), ("grid2d", 144, 3), ("grid2d", 100, 2)])
@pytest.mark.parametrize("mode", ["overlapping", "disjoint"])
def test_grid_partition_matches_partition_grid(kind, n, r, mode):
    spec = GridSpec(kind=kind, n=n, r=r, p=0.7)
    graph = generate_grid(spec, L=1, rng=np.random.default_rng(8))
    part, sup = partition_grid(graph, spec, mode)
    alone = grid_partition(spec, mode)
    assert alone.disjoint == (mode == "disjoint") and alone.m == part.m
    assert all(np.array_equal(a, b) for a, b in zip(alone.subsets, part.subsets))
    if mode == "disjoint":
        # the cross edges of each block pair, from a label written subset by subset
        label = np.empty(n, dtype=np.int64)
        for a, s in enumerate(part.subsets):
            label[s] = a
        la, lb = label[graph.edge_i], label[graph.edge_j]
        cross, group, counts = part.cross_edges(graph)
        assert np.array_equal(cross, np.flatnonzero(la != lb))
        assert np.array_equal(counts.toarray(), sup.toarray())
        # super-edges in row-major order, each with the edges of its block pair
        assert np.all(np.diff(sup.row * part.m + sup.col) > 0)
        assert np.array_equal(sup.row[group], np.minimum(la, lb)[cross])
        assert np.array_equal(sup.col[group], np.maximum(la, lb)[cross])
        assert np.array_equal(sup.data, np.bincount(group, minlength=sup.nnz))
    else:
        assert np.array_equal(sup.toarray(), part.shared_weights().toarray())
        with pytest.raises(GraphError, match="disjoint"):
            part.cross_edges(graph)
