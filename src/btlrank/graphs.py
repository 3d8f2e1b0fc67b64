"""Comparison graphs, grid generators, and partitions for divide-and-conquer."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, diags, triu
from scipy.sparse.csgraph import connected_components


_GRAPH_ROW = [("i", np.int64), ("j", np.int64), ("L", np.int64)]
_CHUNK_ROWS = 1 << 16  # rows per write: bounds the tuple and the string held at once
_INT64_MAX = np.iinfo(np.int64).max


class GraphError(ValueError):
    """Raised for malformed graph specifications or inputs."""


def write_csv(path, header, rows) -> None:
    """Header, then rows, one per line; a field holding a comma is quoted, None is blank."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _int_table(body: str, width: int) -> np.ndarray | None:
    """``body`` as a (rows, width) int64 array when each of its lines holds ``width``
    unsigned decimal integers joined by commas, as the writers emit them; else None.

    Deleting the digits must leave exactly one ``",,...,\\n"`` separator line per
    row, which rules out any other character and ragged rows. The integers are
    then parsed in one ``np.fromstring`` pass. An empty field makes it raise (older
    numpy stops short instead) and an integer beyond int64 saturates; either
    returns None.
    """
    raw = body.encode()
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    separators = raw.translate(None, b"0123456789")
    rows, extra = divmod(len(separators), width)
    if extra or separators != (b"," * (width - 1) + b"\n") * rows:
        return None
    try:
        values = np.fromstring(raw.replace(b"\n", b","), dtype=np.int64, sep=",")
    except ValueError:
        return None
    if len(values) != rows * width or np.any(values == _INT64_MAX):
        return None
    return values.reshape(rows, width)


def _read_rows(body: str, dtype: list) -> list[np.ndarray]:
    """The columns of the CSV rows in ``body``, one per ``(name, type)`` field of ``dtype``.

    A body of unsigned integers only, after an optional first comment line,
    takes ``_int_table``; every graph file and every file of sampled data is
    one. Any other body goes to ``np.loadtxt``, which gives the same arrays and
    raises on malformed rows.
    """
    # loadtxt skips a comment line, such as the graph writer's "# n=" line
    table = _int_table(body.partition("\n")[2] if body.startswith("#") else body, len(dtype))
    if table is not None:
        return [table[:, k].astype(kind) for k, (_, kind) in enumerate(dtype)]
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=1, dtype=dtype)
    return [np.ascontiguousarray(rows[name]) for name, _ in dtype]


def _write_rows(f, row: str, columns: list[list]) -> None:
    """Write one ``row % values`` line per index of the equal-length ``columns``.

    Each chunk of rows is formatted by one ``%`` on the repeated template,
    from the columns interleaved into one flat tuple, and written at once.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [col[start:start + _CHUNK_ROWS] for col in columns]
        flat = [None] * (width * len(chunk[0]))
        for k, col in enumerate(chunk):
            flat[k::width] = col
        f.write(row * len(chunk[0]) % tuple(flat))


@dataclass(frozen=True)
class ComparisonGraph:
    """Undirected graph whose edge (i, j) carries a positive sample count.

    Edges are stored as parallel arrays ``edge_i < edge_j`` with per-edge
    counts. Nodes are indexed ``0..n-1``.
    """

    n: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        ei = np.asarray(self.edge_i, dtype=np.int64)
        ej = np.asarray(self.edge_j, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if not (len(ei) == len(ej) == len(counts)):
            raise GraphError("edge arrays must have equal length")
        if self.n < 1:
            raise GraphError("graph needs at least one node")
        if len(ei) and (ei.min() < 0 or ej.max() >= self.n):
            raise GraphError("edge index out of range")
        if np.any(ei >= ej):
            raise GraphError("edges must satisfy i < j (no self-loops)")
        if np.any(counts < 1):
            raise GraphError("all sample counts must be >= 1")
        # a sort finds repeats many times faster than np.unique's hashing on large key sets
        if np.any(np.diff(np.sort(ei * self.n + ej)) == 0):
            raise GraphError("duplicate edges are not allowed")
        object.__setattr__(self, "edge_i", ei)
        object.__setattr__(self, "edge_j", ej)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def connected(self) -> bool:
        """Whether every node is reachable from every other; computed on first read."""
        adj = coo_matrix((np.ones(self.num_edges), (self.edge_i, self.edge_j)),
                         shape=(self.n, self.n))
        return connected_components(adj, directed=False)[0] == 1

    @property
    def num_edges(self) -> int:
        return len(self.edge_i)

    @property
    def total_samples(self) -> int:
        return int(self.counts.sum())

    def degrees(self) -> np.ndarray:
        return (np.bincount(self.edge_i, minlength=self.n)
                + np.bincount(self.edge_j, minlength=self.n))

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(f"i,j,L\n# n={self.n}\n")
            _write_rows(f, "%d,%d,%d\n",
                        [self.edge_i.tolist(), self.edge_j.tolist(), self.counts.tolist()])

    @classmethod
    def from_csv(cls, path) -> "ComparisonGraph":
        """Read ``to_csv`` output; without its ``# n=`` line, n is one past the largest index."""
        with open(path) as f:
            header = f.readline().strip()
            if header.replace(" ", "") != "i,j,L":
                raise GraphError(f"unexpected graph CSV header: {header!r}")
            body = f.read()
        ei, ej, counts = _read_rows(body, _GRAPH_ROW)
        end = body.find("\n") + 1
        meta = body[:end] if end else body  # the first line, as readline returns it
        n = int(meta[4:]) if meta.startswith("# n=") else int(np.append(ei, ej).max(initial=0)) + 1
        return cls(n=n, edge_i=ei, edge_j=ej, counts=counts)


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a 1D or 2D locality grid.

    ``kind`` is ``"grid1d"`` or ``"grid2d"``; nodes within radius ``r``
    (absolute difference for 1D, Manhattan distance for 2D) are connected
    independently with probability ``p``. For 2D grids ``n`` must be a
    perfect square; node (i1, i2) is flattened row-major to i1*sqrt(n)+i2.
    """

    kind: str
    n: int
    r: int
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("grid1d", "grid2d"):
            raise GraphError(f"unknown grid kind {self.kind!r}")
        if self.kind == "grid2d":
            side = math.isqrt(self.n)
            if side * side != self.n:
                raise GraphError("grid2d requires a perfect-square node count")
        if self.n < 2:
            raise GraphError("need at least two nodes")
        if self.r < 1:
            raise GraphError("radius must be >= 1")
        if not (0.0 < self.p <= 1.0):
            raise GraphError("edge probability must be in (0, 1]")

    @property
    def side(self) -> int:
        return math.isqrt(self.n) if self.kind == "grid2d" else self.n


def _eligible_pairs(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
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


def generate_grid(spec: GridSpec, L=1, rng: np.random.Generator | None = None) -> ComparisonGraph:
    """Sample a Grid1D/Grid2D comparison graph.

    ``L`` is either a constant sample count or a callable ``(i, j) -> count``.
    With ``p == 1`` the result is deterministic and ``rng`` is unused.
    """
    ii, jj = _eligible_pairs(spec)
    if spec.p < 1.0:
        if rng is None:
            raise GraphError("p < 1 requires an rng")
        keep = rng.random(len(ii)) < spec.p
        ii, jj = ii[keep], jj[keep]
    order = np.lexsort((jj, ii))
    ii, jj = ii[order], jj[order]
    if callable(L):
        counts = np.array([L(int(a), int(b)) for a, b in zip(ii, jj)], dtype=np.int64)
    else:
        counts = np.full(len(ii), int(L), dtype=np.int64)
    return ComparisonGraph(n=spec.n, edge_i=ii, edge_j=jj, counts=counts)


def generate_special(kind: str, rng: np.random.Generator | None = None, **params) -> ComparisonGraph:
    """Build a named topology: er, line, ring, complete, barbell, or tree.

    An Erdos-Renyi draw may come out disconnected; the caller should check
    the ``connected`` flag.
    """
    L = int(params.pop("L", 1))
    if kind == "er":
        n, p = int(params["n"]), float(params["p"])
        if rng is None:
            raise GraphError("er requires an rng")
        i, j = np.triu_indices(n, k=1)
        keep = rng.random(len(i)) < p
        i, j = i[keep], j[keep]
        return ComparisonGraph(n, i, j, np.full(len(i), L))
    if kind == "line":
        n = int(params["n"])
        i = np.arange(n - 1)
        return ComparisonGraph(n, i, i + 1, np.full(n - 1, L))
    if kind == "ring":
        n = int(params["n"])
        i = np.concatenate([np.arange(n - 1), [0]])
        j = np.concatenate([np.arange(1, n), [n - 1]])
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        return ComparisonGraph(n, lo, hi, np.full(n, L))
    if kind == "complete":
        n = int(params["n"])
        i, j = np.triu_indices(n, k=1)
        return ComparisonGraph(n, i, j, np.full(len(i), L))
    if kind == "barbell":
        n1, n2 = int(params["clique1"]), int(params["clique2"])
        L_st = int(params.get("L_st", L))
        i1, j1 = np.triu_indices(n1, k=1)
        i2, j2 = np.triu_indices(n2, k=1)
        ei = np.concatenate([i1, i2 + n1, [n1 - 1]])
        ej = np.concatenate([j1, j2 + n1, [n1]])
        counts = np.concatenate([np.full(len(i1), L), np.full(len(i2), L), [L_st]])
        lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
        order = np.lexsort((hi, lo))
        return ComparisonGraph(n1 + n2, lo[order], hi[order], counts[order])
    if kind == "tree":
        n = int(params["n"])
        if rng is None:
            raise GraphError("tree requires an rng")
        if n == 2:
            return ComparisonGraph(2, np.array([0]), np.array([1]), np.array([L]))
        # uniform random labeled tree via a Pruefer sequence
        prufer = rng.integers(0, n, size=n - 2)
        degree = np.ones(n, dtype=np.int64)
        for v in prufer:
            degree[v] += 1
        edges = []
        import heapq

        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in prufer:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, int(v)), max(leaf, int(v))))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, int(v))
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((min(u, w), max(u, w)))
        edges.sort()
        ei = np.array([e[0] for e in edges])
        ej = np.array([e[1] for e in edges])
        return ComparisonGraph(n, ei, ej, np.full(n - 1, L))
    raise GraphError(f"unknown special graph kind {kind!r}")


@dataclass(frozen=True)
class Partition:
    """Node subsets covering the graph, overlapping or disjoint."""

    subsets: list[np.ndarray]
    mode: str  # "overlapping" or "disjoint"
    n: int

    def __post_init__(self):
        if self.mode not in ("overlapping", "disjoint"):
            raise GraphError(f"unknown partition mode {self.mode!r}")
        subsets = [np.unique(np.asarray(s, dtype=np.int64)) for s in self.subsets]
        if not subsets or any(len(s) and (s[0] < 0 or s[-1] >= self.n) for s in subsets):
            raise GraphError("partition needs subsets of nodes in 0..n-1")
        object.__setattr__(self, "subsets", subsets)
        counts = self.membership_counts()
        if np.any(counts < 1):
            raise GraphError("partition must cover every node")
        if self.mode == "disjoint" and np.any(counts > 1):
            raise GraphError("disjoint partition has overlapping subsets")

    @property
    def m(self) -> int:
        return len(self.subsets)

    def membership_counts(self) -> np.ndarray:
        """s_i = number of subsets containing node i."""
        return np.bincount(self.membership.indices, minlength=self.n)

    @cached_property
    def membership(self) -> csc_matrix:
        """n x m indicator M: M[i, a] = 1 when node i is in subset a.

        Stored by column, so column a holds exactly ``subsets[a]`` and
        per-subset values laid out like ``subsets`` can share its index arrays.
        """
        indptr = np.cumsum([0] + [len(s) for s in self.subsets])
        return csc_matrix((np.ones(indptr[-1]), np.concatenate(self.subsets), indptr),
                          shape=(self.n, self.m))

    def inside_edges(self, graph: ComparisonGraph) -> csc_matrix:
        """E x m indicator: entry (e, a) is 1 when both endpoints of edge e lie in subset a.

        Column a lists the edges with both endpoints in subset a, in
        increasing order.
        """
        member = self.membership.tocsr()
        inside = member[graph.edge_i].multiply(member[graph.edge_j]).tocsc()
        inside.sort_indices()
        return inside

    def shared_weights(self, node_weights=None) -> coo_matrix:
        """Strict upper triangle of M^T diag(w) M, in row-major order.

        Entry (a, b) sums the node weights w over the nodes subsets a and b
        share; without weights it counts them.
        """
        M = self.membership
        W = M if node_weights is None else diags(node_weights) @ M
        return triu(M.T @ W, k=1, format="csr").tocoo()

    def cross_edges(self, graph: ComparisonGraph) -> tuple[np.ndarray, np.ndarray, coo_matrix]:
        """The edges of ``graph`` between two subsets of a disjoint partition.

        Returns the cross-edge indices in increasing order, the super-edge of
        each as an index into the entries of the third value, and that value:
        the strict upper triangle, in row-major order, of the m x m matrix
        whose entry (a, b) counts the edges between subsets a and b.
        """
        if self.mode != "disjoint":
            raise GraphError("cross edges need a disjoint partition")
        # each node lies in one subset, the one entry of its membership row
        label = self.membership.tocsr().indices
        la, lb = label[graph.edge_i], label[graph.edge_j]
        cross = np.flatnonzero(la != lb)
        keys = np.minimum(la, lb)[cross] * self.m + np.maximum(la, lb)[cross]
        pairs, group, count = np.unique(keys, return_inverse=True, return_counts=True)
        return cross, group, coo_matrix((count, (pairs // self.m, pairs % self.m)),
                                        shape=(self.m, self.m))

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps([s.tolist() for s in self.subsets]))

    @classmethod
    def from_json(cls, path, n: int, mode: str) -> "Partition":
        with open(path) as f:
            subsets = json.load(f)
        return cls(subsets=[np.array(s) for s in subsets], mode=mode, n=n)


def _window_starts(n: int, width: int, stride: int) -> list[int]:
    if n <= width:
        return [0]
    return list(range(0, n - width + 1, stride))


def grid_partition(spec: GridSpec, mode: str) -> Partition:
    """Window partition of a grid: width 2r, stride r (overlapping) or 2r (disjoint).

    The last window along each axis is extended to absorb leftover nodes,
    so all windows have at least 2r nodes per axis.
    """
    r = spec.r
    width = 2 * r
    stride = r if mode == "overlapping" else width
    side = spec.side
    starts = _window_starts(side, width, stride)
    # the windows along one axis; the last absorbs the tail instead of emitting a short one
    windows = [np.arange(s, side if k == len(starts) - 1 else s + width)
               for k, s in enumerate(starts)]
    if spec.kind == "grid1d":
        subsets = windows
    else:
        subsets = [(rows[:, None] * side + cols[None, :]).ravel()
                   for rows in windows for cols in windows]
    return Partition(subsets=subsets, mode=mode, n=spec.n)


def partition_grid(graph: ComparisonGraph, spec: GridSpec, mode: str) -> tuple[Partition, coo_matrix]:
    """``grid_partition`` and its super-graph as a strict upper COO matrix on the
    subsets: shared node counts (overlapping) or cross-edge counts (disjoint)."""
    part = grid_partition(spec, mode)
    if mode == "overlapping":
        return part, part.shared_weights()
    return part, part.cross_edges(graph)[2]
