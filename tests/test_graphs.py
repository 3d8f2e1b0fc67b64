"""Grid generators, special topologies, partitions, and super-graphs."""

import numpy as np
import pytest

from btlrank import (ComparisonGraph, GraphError, GridSpec, LaplacianOperator, Partition,
                     generate_grid, generate_special, grid_partition, partition_grid)
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
    part = Partition(subsets=subsets, mode="overlapping", n=5)
    path = tmp_path / "p.json"
    part.to_json(path)
    back = Partition.from_json(path, n=5, mode="overlapping")
    assert back.m == 2
    assert np.array_equal(back.subsets[1], subsets[1])
    with pytest.raises(GraphError):
        Partition(subsets=subsets, mode="disjoint", n=5)  # node 2 repeats
    with pytest.raises(GraphError):
        Partition(subsets=subsets, mode="overlapping", n=6)  # node 5 uncovered


def test_overlap_supergraph_weights():
    part = Partition(subsets=[np.array([0, 1, 2]), np.array([2, 3, 4]),
                              np.array([3, 4, 5, 6])],
                     mode="overlapping", n=7)
    counts = part.shared_weights()
    shared = dict(zip(zip(counts.row.tolist(), counts.col.tolist()), counts.data.tolist()))
    assert shared == {(0, 1): 1.0, (1, 2): 2.0}
    # weighted, entry (a, b) sums the weights of the shared nodes
    weighted = part.shared_weights(np.arange(1.0, 8.0))
    assert weighted.data.tolist() == [3.0, 4.0 + 5.0]


def test_cross_edge_supergraph_counts():
    graph = generate_special("line", n=6)
    part = Partition(subsets=[np.array([0, 1, 2]), np.array([3, 4, 5])],
                     mode="disjoint", n=6)
    cross, group, sup = part.cross_edges(graph)
    # single cross edge (2, 3), in super-edge 0 between subsets 0 and 1
    assert cross.tolist() == [2] and group.tolist() == [0]
    assert graph.edge_i[cross[0]] == 2 and graph.edge_j[cross[0]] == 3
    assert sup.shape == (2, 2)
    assert (sup.row.tolist(), sup.col.tolist(), sup.data.tolist()) == ([0], [1], [1])
    with pytest.raises(GraphError, match="disjoint"):
        Partition(part.subsets, mode="overlapping", n=6).cross_edges(graph)


def test_graph_requires_canonical_edges():
    with pytest.raises(GraphError):
        ComparisonGraph(3, np.array([1]), np.array([1]), np.array([1]))
    with pytest.raises(GraphError):
        ComparisonGraph(3, np.array([0, 0]), np.array([1, 1]), np.array([1, 1]))


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
            Partition(subsets=subsets, mode="overlapping", n=n))
    for spec in (GridSpec(kind="grid1d", n=70, r=4), GridSpec(kind="grid2d", n=196, r=3),
                 GridSpec(kind="grid2d", n=100, r=2)):
        graph = generate_grid(spec, L=1)
        part, sup = partition_grid(graph, spec, "overlapping")
        assert connected(sup)
        assert_shared_weights_are_pairwise_intersections(part)


def test_partition_rejects_out_of_range_nodes():
    with pytest.raises(GraphError):
        Partition(subsets=[np.array([0, 1, 5])], mode="overlapping", n=5)
    with pytest.raises(GraphError):
        Partition(subsets=[np.array([-1, 0, 1, 2, 3, 4])], mode="overlapping", n=5)
    with pytest.raises(GraphError):
        Partition(subsets=[], mode="overlapping", n=5)


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
    inside = part.inside_edges(graph)
    assert inside.shape == (graph.num_edges, part.m)
    assert np.all(inside.data == 1.0)
    for a, nodes in enumerate(part.subsets):
        column = inside.indices[inside.indptr[a]:inside.indptr[a + 1]]
        assert np.array_equal(column, subgraph_edges(graph, nodes))


@pytest.mark.parametrize("kind,n,r", [("grid1d", 70, 4), ("grid2d", 144, 3), ("grid2d", 100, 2)])
@pytest.mark.parametrize("mode", ["overlapping", "disjoint"])
def test_grid_partition_matches_partition_grid(kind, n, r, mode):
    spec = GridSpec(kind=kind, n=n, r=r, p=0.7)
    graph = generate_grid(spec, L=1, rng=np.random.default_rng(8))
    part, sup = partition_grid(graph, spec, mode)
    alone = grid_partition(spec, mode)
    assert alone.mode == mode and alone.m == part.m
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
