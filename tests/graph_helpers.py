"""Edge lookups on a ComparisonGraph, and columns of a Laplacian's pseudo-inverse, that only
the tests use."""

import numpy as np

from btlrank.laplacian import DEFAULT_TOL


def edge_index_map(graph) -> dict[tuple[int, int], int]:
    """Index of each edge (i, j), i < j, of ``graph``."""
    return {(int(i), int(j)): k for k, (i, j) in enumerate(zip(graph.edge_i, graph.edge_j))}


def subgraph_edges(graph, nodes) -> np.ndarray:
    """Indices of the edges of ``graph`` with both endpoints in ``nodes``."""
    mask = np.zeros(graph.n, dtype=bool)
    mask[nodes] = True
    return np.nonzero(mask[graph.edge_i] & mask[graph.edge_j])[0]


def unit_columns(op, nodes, tol=DEFAULT_TOL) -> np.ndarray:
    """Columns L^+ e_k of the operator ``op`` for k in ``nodes``, as an n x len(nodes) array,
    from one ``solve_orthogonal`` call."""
    return op.solve_orthogonal(np.equal.outer(np.arange(op.n), nodes), tol)[0]
