"""Comparison graphs, grid generators, and partitions for divide-and-conquer."""

from __future__ import annotations

import csv
import heapq
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix, diags, triu
from scipy.sparse.csgraph import connected_components


_GRAPH_ROW = [("i", np.int64), ("j", np.int64), ("L", np.int64)]
_CHUNK_ROWS = 1 << 16  # rows per write: bounds the arrays and the bytes held at once
_POWERS = 10 ** np.arange(19, dtype=np.int64)  # 1, 10, ..., 10^18; an int64 has up to 19 digits
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


def _int_lines(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of equal-length, non-empty columns of non-negative int64s.

    Rendered in whole-array passes. Each field's digit count is one
    ``searchsorted`` against the powers of ten, and a cumulative sum over the
    line lengths places each separator. Each column's digits come from integer
    division, the highest place first, and land left of their separator; a short
    field's leading zeros land on bytes of an earlier field, whose lower places
    are written afterwards. The separators go in last.
    """
    tops, cols, sizes = [], [], []
    for col in columns:
        top = max(int(np.searchsorted(_POWERS, col.max(), side="right")), 1)
        # below 10^9 the arithmetic runs in uint32, several times faster than in int64
        kind = np.uint32 if top < 10 else np.int64
        powers = _POWERS[:top].astype(kind)
        col = col.astype(kind)
        tops.append(top)
        cols.append((col, powers))
        sizes.append(np.searchsorted(powers[1:], col, side="right") + 2)  # digits, separator
    line = sum(sizes)
    sep = np.cumsum(line) - line - 1  # just before each line
    seps = []
    for size in sizes:
        sep = sep + size
        seps.append(sep)
    pad = max(tops)  # room for the first field's leading zeros
    out = np.empty(pad + sep[-1] + 1, dtype=np.uint8)
    higher = [None] * len(columns)  # each column divided by the place above
    for k in range(pad - 1, -1, -1):
        place = out[pad - 1 - k:]  # indexed by separator, the byte k + 1 places to its left
        for c, (col, powers) in enumerate(cols):
            if k < tops[c]:
                q = col // powers[k]
                digit = q if higher[c] is None else q - 10 * higher[c]
                place[seps[c]] = digit.astype(np.uint8) + 48  # bytes scatter faster
                higher[c] = q
    body = out[pad:]
    for sep in seps[:-1]:
        body[sep] = ord(",")
    body[seps[-1]] = ord("\n")
    return body.tobytes()


def _write_rows(f, columns: list, row: str | None = None) -> None:
    """Write one CSV line per index of the equal-length ``columns`` to the binary file ``f``.

    Chunks of up to ``_CHUNK_ROWS`` rows are rendered and written at once. Without
    ``row`` the columns are non-negative int64 arrays, rendered by ``_int_lines``;
    with it, a chunk is one ``%`` on the repeated template ``row``, from the
    columns interleaved into one flat tuple.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [col[start:start + _CHUNK_ROWS] for col in columns]
        if row is None:
            f.write(_int_lines(chunk))
            continue
        flat = [None] * (width * len(chunk[0]))
        for k, col in enumerate(chunk):
            flat[k::width] = col
        f.write((row * len(chunk[0]) % tuple(flat)).encode())


def _components(n: int, edge_i: np.ndarray, edge_j: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on n nodes with edges (edge_i, edge_j):
    their number and the label of each node.

    The edges go in as one CSR with rows by edge_i (upper-triangular when edge_i < edge_j),
    sorted only when edge_i is out of order; its weak components are the undirected ones,
    found without the symmetrized copy that an undirected search makes.
    """
    if np.any(edge_i[1:] < edge_i[:-1]):
        order = np.argsort(edge_i, kind="stable")
        edge_i, edge_j = edge_i[order], edge_j[order]
    indptr = np.searchsorted(edge_i, np.arange(n + 1))
    adj = csr_matrix((np.ones(len(edge_j)), edge_j, indptr), shape=(n, n))
    return connected_components(adj, connection="weak")


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
        # strictly increasing keys, as the generators and writers leave them, are unique;
        # otherwise a sort finds repeats many times faster than np.unique's hashing
        keys = ei * self.n + ej
        if np.any(keys[1:] <= keys[:-1]) and np.any(np.diff(np.sort(keys)) == 0):
            raise GraphError("duplicate edges are not allowed")
        object.__setattr__(self, "edge_i", ei)
        object.__setattr__(self, "edge_j", ej)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def connected(self) -> bool:
        """Whether every node is reachable from every other; computed on first read."""
        return _components(self.n, self.edge_i, self.edge_j)[0] == 1

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
        with open(path, "wb") as f:
            f.write(f"i,j,L\n# n={self.n}\n".encode())
            _write_rows(f, [self.edge_i, self.edge_j, self.counts])

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


GRID_KINDS = ("grid1d", "grid2d")  # GRID_KINDS[d - 1] is the d-dimensional lattice


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a 1D or 2D locality grid: a lattice of ``dims`` axes of ``side`` nodes.

    ``kind`` is ``"grid1d"`` or ``"grid2d"``; nodes within radius ``r``
    (L1 distance of their coordinates: absolute difference for 1D, Manhattan
    distance for 2D) are connected independently with probability ``p``. For
    2D grids ``n`` must be a perfect square; node (i1, i2) is flattened
    row-major to i1*sqrt(n)+i2.
    """

    kind: str
    n: int
    r: int
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise GraphError(f"unknown grid kind {self.kind!r}")
        if self.n < 2:
            raise GraphError(f"need at least two nodes, got n={self.n}")
        if self.side ** self.dims != self.n:
            raise GraphError(f"grid2d requires a perfect-square node count, got n={self.n}")
        if self.r < 1:
            raise GraphError(f"radius must be >= 1, got r={self.r}")
        if not (0.0 < self.p <= 1.0):
            raise GraphError(f"edge probability must be in (0, 1], got p={self.p}")

    @property
    def dims(self) -> int:
        return GRID_KINDS.index(self.kind) + 1

    @property
    def side(self) -> int:
        return round(self.n ** (1 / self.dims))


def _lattice_nodes(axes, side: int) -> np.ndarray:
    """The nodes whose coordinate on each axis is in that axis's array: their product,
    flattened row-major, so in index order when each array increases."""
    return reduce(lambda rows, cols: (rows[:, None] * side + cols).ravel(), axes)


def _eligible_pairs(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of nodes within L1 distance r, as (i, j) arrays with i < j.

    The offsets with L1 norm at most r whose first non-zero coordinate is
    positive run in lexicographic order. For each, i runs over the nodes that
    stay inside the lattice in index order, and j = i + offset . strides,
    with strides (side, 1) in 2D and (1,) in 1D. For p < 1 ``generate_grid``
    draws its keep mask in this order.
    """
    side, r = spec.side, spec.r
    strides = [side ** k for k in range(spec.dims - 1, -1, -1)]
    ii, jj = [], []
    for offset in product(range(-r, r + 1), repeat=spec.dims):
        lead = next((d for d in offset if d), 0)
        if lead <= 0 or sum(map(abs, offset)) > r:
            continue
        i = _lattice_nodes([np.arange(max(-d, 0), side - max(d, 0)) for d in offset], side)
        ii.append(i)
        jj.append(i + sum(d * s for d, s in zip(offset, strides)))
    return np.concatenate(ii), np.concatenate(jj)


def generate_grid(spec: GridSpec, L: int = 1, rng: np.random.Generator | None = None
                  ) -> ComparisonGraph:
    """Sample a Grid1D/Grid2D comparison graph with L samples on every edge.

    With ``p == 1`` the result is deterministic and ``rng`` is unused.
    """
    ii, jj = _eligible_pairs(spec)
    if spec.p < 1.0:
        if rng is None:
            raise GraphError("p < 1 requires an rng")
        keep = rng.random(len(ii)) < spec.p
        ii, jj = ii[keep], jj[keep]
    order = np.argsort(ii * spec.n + jj)  # unique keys: the (i, j) lexicographic order
    ii, jj = ii[order], jj[order]
    return ComparisonGraph(n=spec.n, edge_i=ii, edge_j=jj,
                           counts=np.full(len(ii), int(L), dtype=np.int64))


# each special kind and the parameters of generate_special it requires; L (default 1) and
# barbell's bridge count L_st (default L) are optional
SPECIAL_KINDS = {"er": ("n", "p", "rng"), "line": ("n",), "ring": ("n",), "complete": ("n",),
                 "barbell": ("clique1", "clique2"), "tree": ("n", "rng")}


def generate_special(kind: str, rng: np.random.Generator | None = None, *, n: int | None = None,
                     p: float | None = None, L: int = 1, clique1: int | None = None,
                     clique2: int | None = None, L_st: int | None = None) -> ComparisonGraph:
    """Build a named topology of ``SPECIAL_KINDS`` from the parameters that kind requires,
    ignoring the others; a required one left None, n < 1 (n < 2 for a tree, n < 3 for a
    ring), a barbell clique of no node or an er p outside (0, 1] raises ``GraphError``
    naming it.

    An Erdos-Renyi draw may come out disconnected; the caller should check
    the ``connected`` flag.
    """
    if kind not in SPECIAL_KINDS:
        raise GraphError(f"unknown special graph kind {kind!r}")
    given = {"n": n, "p": p, "rng": rng, "clique1": clique1, "clique2": clique2}
    missing = [name for name in SPECIAL_KINDS[kind] if given[name] is None]
    if missing:
        raise GraphError(f"{kind} requires {', '.join(missing)}")
    L = int(L)
    if kind == "barbell":  # two cliques and the bridge (clique1 - 1, clique1), in key order
        n1, n2 = int(clique1), int(clique2)
        for name, size in (("clique1", n1), ("clique2", n2)):
            if size < 1:
                raise GraphError(f"barbell needs {name} >= 1, got {name}={size}")
        i1, j1 = np.triu_indices(n1, k=1)
        i2, j2 = np.triu_indices(n2, k=1)
        counts = np.full(len(i1) + 1 + len(i2), L)
        counts[len(i1)] = L if L_st is None else int(L_st)
        return ComparisonGraph(n1 + n2, np.concatenate([i1, [n1 - 1], i2 + n1]),
                               np.concatenate([j1, [n1], j2 + n1]), counts)
    n, least = int(n), {"tree": 2, "ring": 3}.get(kind, 1)
    if n < least:
        raise GraphError(f"{kind} needs n >= {least}, got n={n}")
    if kind == "er":
        if not (0.0 < float(p) <= 1.0):
            raise GraphError(f"edge probability must be in (0, 1], got p={p}")
        i, j = np.triu_indices(n, k=1)
        keep = rng.random(len(i)) < float(p)
        return ComparisonGraph(n, i[keep], j[keep], np.full(keep.sum(), L))
    if kind == "line":
        i = np.arange(n - 1)
        return ComparisonGraph(n, i, i + 1, np.full(n - 1, L))
    if kind == "ring":  # the path, then the closing edge (0, n - 1)
        i = np.append(np.arange(n - 1), 0)
        return ComparisonGraph(n, i, np.append(np.arange(1, n), n - 1), np.full(n, L))
    if kind == "complete":
        i, j = np.triu_indices(n, k=1)
        return ComparisonGraph(n, i, j, np.full(len(i), L))
    # tree: uniform random labeled, decoded from a Pruefer sequence
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.bincount(prufer, minlength=n) + 1
    leaves = np.flatnonzero(degree == 1).tolist()  # sorted, so already a heap
    edges = []
    for v in prufer.tolist():
        edges.append(sorted((heapq.heappop(leaves), v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    ei, ej = np.array(sorted(edges + [leaves])).T  # the last two leaves make the last edge
    return ComparisonGraph(n, ei, ej, np.full(n - 1, L))


@dataclass(frozen=True)
class Partition:
    """Node subsets covering the graph; ``disjoint`` says whether each node lies in one.

    Each subset is a 1-D sequence of node ids, kept sorted and without repeats.
    ``membership`` is the n x m indicator M stored by column, so its ``indices``
    stack the subsets, subset a at ``indptr[a]:indptr[a + 1]``; per-subset values
    are one vector in that order, and ``entry_subset`` names each entry's subset.
    """

    subsets: list[np.ndarray]
    n: int
    disjoint: bool = field(init=False)
    membership: csc_matrix = field(init=False, repr=False, compare=False)
    entry_subset: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the subsets become slices of one fresh int64 array; only unsorted input is sorted
        sizes = np.array([len(s) for s in self.subsets], dtype=np.int64)
        empty = np.flatnonzero(sizes == 0)
        if len(empty):
            raise GraphError(f"partition subsets {empty.tolist()} are empty")
        flat = (np.concatenate(self.subsets, dtype=np.int64, casting="unsafe") if len(sizes)
                else sizes)
        if not len(flat) or flat.min() < 0 or flat.max() >= self.n:
            raise GraphError("partition needs subsets of nodes in 0..n-1")
        owner = np.repeat(np.arange(len(sizes)), sizes)
        if np.any((flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])):
            keys = np.unique(owner * self.n + flat)  # by subset, then node, each pair once
            owner, flat = keys // self.n, keys % self.n
        indptr = np.searchsorted(owner, np.arange(len(sizes) + 1))
        object.__setattr__(self, "subsets",
                           [flat[a:b] for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())])
        object.__setattr__(self, "membership", csc_matrix(
            (np.ones(len(flat)), flat, indptr), shape=(self.n, len(sizes))))
        object.__setattr__(self, "entry_subset", owner)
        counts = self.membership_counts()
        if np.any(counts < 1):
            raise GraphError("partition must cover every node")
        object.__setattr__(self, "disjoint", bool(np.all(counts == 1)))

    @property
    def m(self) -> int:
        return len(self.subsets)

    def membership_counts(self) -> np.ndarray:
        """s_i = number of subsets containing node i."""
        return np.bincount(self.membership.indices, minlength=self.n)

    @cached_property
    def node_subset(self) -> np.ndarray:
        """The subset holding each node of a disjoint partition, as int64."""
        if not self.disjoint:
            raise GraphError("cross edges need a disjoint partition")
        label = np.empty(self.n, dtype=np.int64)
        label[self.membership.indices] = self.entry_subset
        return label

    def inside_edges(self, graph: ComparisonGraph) -> tuple[csc_matrix, csc_matrix]:
        """Two E x m matrices with an entry (e, a) for each subset a holding both ends of edge e.

        The entry of the first is 1 + the place of ``edge_i[e]`` in the stacked
        subsets, where node k of subset a is at ``membership.indptr[a] + k``; the
        second holds the same for ``edge_j[e]``. Column a lists its edges in
        increasing order, and the two store their entries in the same order.
        """
        M = self.membership
        place = csc_matrix((np.arange(1, M.nnz + 1), M.indices, M.indptr), shape=M.shape).tocsr()
        at_i, at_j = place[graph.edge_i], place[graph.edge_j]
        return at_i.multiply(at_j > 0).tocsc(), at_j.multiply(at_i > 0).tocsc()

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
        # int64 labels: the keys below outgrow int32 once m > 46,340
        la, lb = self.node_subset[graph.edge_i], self.node_subset[graph.edge_j]
        cross = np.flatnonzero(la != lb)
        keys = np.minimum(la, lb)[cross] * self.m + np.maximum(la, lb)[cross]
        pairs, group, count = np.unique(keys, return_inverse=True, return_counts=True)
        return cross, group, coo_matrix((count, (pairs // self.m, pairs % self.m)),
                                        shape=(self.m, self.m))

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps([s.tolist() for s in self.subsets]))

    @classmethod
    def from_json(cls, path, n: int) -> "Partition":
        """Read ``to_json`` output: a JSON list of lists of integer node ids."""
        with open(path) as f:
            subsets = json.load(f)
        if not (isinstance(subsets, list) and all(
                isinstance(s, list) and all(type(v) is int for v in s) for s in subsets)):
            raise GraphError(f"{path}: a partition must be lists of integer node ids")
        return cls(subsets=[np.array(s, dtype=np.int64) for s in subsets], n=n)


PARTITION_MODES = ("overlapping", "disjoint")  # PARTITION_MODES[k] starts a window every (k + 1) r


def grid_partition(spec: GridSpec, mode: str) -> Partition:
    """Window partition of a grid: width 2r, stride r (overlapping) or 2r (disjoint).

    Windows along one axis start every stride from 0 up to side - 2r; the
    last is extended to absorb leftover nodes, so all windows have at least
    2r nodes per axis (the whole axis when side <= 2r). Each subset is the
    product of one window per axis, flattened row-major.
    """
    if mode not in PARTITION_MODES:
        raise GraphError(f"unknown partition mode {mode!r}")
    width, stride, side = 2 * spec.r, (PARTITION_MODES.index(mode) + 1) * spec.r, spec.side
    starts = range(0, max(side - width, 0) + 1, stride)
    windows = [np.arange(s, side if s == starts[-1] else s + width) for s in starts]
    return Partition(subsets=[_lattice_nodes(axes, side)
                              for axes in product(windows, repeat=spec.dims)], n=spec.n)


def partition_grid(graph: ComparisonGraph, spec: GridSpec, mode: str) -> tuple[Partition, coo_matrix]:
    """``grid_partition`` and its super-graph as a strict upper COO matrix on the
    subsets: shared node counts (overlapping) or cross-edge counts (disjoint)."""
    part = grid_partition(spec, mode)
    if mode == "overlapping":
        return part, part.shared_weights()
    return part, part.cross_edges(graph)[2]
