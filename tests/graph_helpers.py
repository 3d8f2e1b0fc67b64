"""Edge lookups on a ComparisonGraph that only the tests use."""

import numpy as np


def edge_index_map(graph) -> dict[tuple[int, int], int]:
    """Index of each edge (i, j), i < j, of ``graph``."""
    return {(int(i), int(j)): k for k, (i, j) in enumerate(zip(graph.edge_i, graph.edge_j))}


def subgraph_edges(graph, nodes) -> np.ndarray:
    """Indices of the edges of ``graph`` with both endpoints in ``nodes``."""
    mask = np.zeros(graph.n, dtype=bool)
    mask[nodes] = True
    return np.nonzero(mask[graph.edge_i] & mask[graph.edge_j])[0]
