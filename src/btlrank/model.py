"""Ground-truth scores, Bernoulli comparison sampling, and the oracle Laplacian."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import ComparisonGraph, GraphError, _read_rows, _write_rows
from .laplacian import LaplacianOperator

GAUGE_TOL = 1e-9
SCORE_KINDS = ("sine", "linear", "linear2d")  # the ground truths make_scores builds
_DATA_ROW = [("i", np.int64), ("j", np.int64), ("wins", np.float64), ("L", np.int64)]


class ModelError(ValueError):
    pass


class SolverError(RuntimeError):
    """A numerical method diverged or did not reach its tolerance."""


def sigmoid(x):
    """Numerically stable sigmoid, valid for arbitrarily large |x|."""
    x = np.asarray(x, dtype=np.float64)
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows;
    # e <= 1, so max(e, x >= 0) picks the numerator as np.where would, bit for bit
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid_derivative(x):
    """sigmoid(x) (1 - sigmoid(x)), as e / (1 + e)^2 with e = exp(-|x|): even in x
    bit for bit, exactly 1/4 at 0, free of cancellation, and positive up to |x| = 745."""
    e = np.exp(-np.abs(np.asarray(x, dtype=np.float64)))
    out = e / (1.0 + e) ** 2
    if np.ndim(x) == 0:
        return float(out)
    return out


def logit(y):
    """Inverse sigmoid; y must lie strictly inside (0, 1)."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y > 0.0) & (y < 1.0)):  # NaN fails both comparisons
        raise ModelError("logit requires values strictly inside (0, 1); "
                         "a 0/1 win fraction signals too few samples on an edge")
    out = np.log(y) - np.log1p(-y)
    if out.ndim == 0:
        return float(out)
    return out


class SigmoidRoots:
    """Solver for sum_{t in group a} w_t sigmoid(x_a + b_t) = target_a, a = 0..k-1,
    prepared once for many offsets b.

    Each left side rises from 0 to the group weight W_a, so the root lies
    in [logit(target/W) - max b, logit(target/W) - min b], where every
    sigmoid is at most, or at least, target/W. Safeguarded Newton keeps
    that bracket: a step that leaves it, or is not under half the step
    before last, is replaced by bisection, and a group stops moving once
    its step is below 1e-13 (1 + |x|). A group whose target exceeds W/2
    is solved for -x against W - target, so the sums stay on the accurate
    small side. Every group needs a term and every target must lie
    strictly inside (0, W_a).

    Construction sorts the terms by group with a stable argsort and keeps
    all that does not depend on b. A call takes b in that term order,
    ``b[order]`` for b in the order given. Each group keeps its terms'
    order, so every sum, and so every root, is bit-identical to a solve on
    the unsorted terms.
    """

    def __init__(self, group, w, target, k: int):
        group = np.asarray(group)
        self.order = np.argsort(group, kind="stable")
        self.group = group[self.order]
        self.w = np.asarray(w, dtype=np.float64)[self.order]
        target = np.asarray(target, dtype=np.float64)
        sizes = np.bincount(self.group, minlength=k)
        if np.any(sizes == 0):
            raise ModelError(f"sigmoid_roots: groups {np.flatnonzero(sizes == 0)[:10].tolist()} "
                             "have no terms")
        self.starts = np.cumsum(sizes) - sizes
        total = np.bincount(self.group, self.w, k)
        self.sign = np.where(target > 0.5 * total, -1.0, 1.0)
        self.target = np.where(self.sign < 0, total - target, target)
        self.term_sign = self.sign[self.group]
        self.logit = logit(self.target / total)[self.group]
        self.k = k

    def __call__(self, b, x0=None) -> np.ndarray:
        """The k roots for offsets b in term order, from x0 (clipped into the bracket)
        or from the bracket's midpoint."""
        group, w, target, k = self.group, self.w, self.target, self.k
        b = self.term_sign * b
        ends = self.logit - b
        lo, hi = np.minimum.reduceat(ends, self.starts), np.maximum.reduceat(ends, self.starts)
        x = 0.5 * (lo + hi) if x0 is None else np.clip(self.sign * x0, lo, hi)
        last = older = hi - lo
        done = np.zeros(k, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):  # df underflows far out
            for _ in range(100):
                s = sigmoid(x[group] + b)
                ws = w * s
                f = np.bincount(group, ws, k) - target
                step = f / np.bincount(group, ws * (1.0 - s), k)
                lo, hi = np.where(f <= 0, x, lo), np.where(f >= 0, x, hi)
                nxt = x - step
                newton = (lo <= nxt) & (nxt <= hi) & (np.abs(step) <= 0.5 * older)
                nxt = np.where(done, x, np.where(newton, nxt, 0.5 * (lo + hi)))
                older, last = last, np.abs(nxt - x)
                x = nxt
                done = last <= 1e-13 * (1.0 + np.abs(x))
                if done.all():
                    return self.sign * x
        raise SolverError("sigmoid_roots: no convergence in 100 iterations")


def sigmoid_roots(group, w, b, target, k: int, x0=None) -> np.ndarray:
    """Solve sum_{t in group a} w_t sigmoid(x_a + b_t) = target_a for a = 0..k-1
    (see ``SigmoidRoots``) for one set of offsets b."""
    roots = SigmoidRoots(group, w, target, k)
    return roots(np.asarray(b)[roots.order], x0)


@dataclass(frozen=True)
class ScoreVector:
    """Length-n score vector; the zero-sum gauge pins the BTL shift ambiguity."""

    values: np.ndarray
    gauge: str = "zero-sum"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.gauge not in ("zero-sum", "raw"):
            raise ModelError(f"unknown gauge {self.gauge!r}")
        if self.gauge == "zero-sum":
            # the raw gauge keeps -inf, which spectral underflow produces; a sum is no gauge then
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise ModelError(f"zero-sum gauge needs finite scores; nodes {bad[:10].tolist()} "
                                 f"are {values[bad[:10]].tolist()}")
            # centering rounds in proportion to the magnitude, so the tolerance scales with
            # it; summing the scaled values cannot overflow
            scale = np.abs(values).max(initial=1.0)
            if abs((values / scale).sum()) > GAUGE_TOL * max(len(values), 1):
                raise ModelError("zero-sum gauge violated")

    @classmethod
    def zero_sum(cls, values) -> "ScoreVector":
        values = np.asarray(values, dtype=np.float64)
        if np.all(np.isfinite(values)):  # otherwise __post_init__ names the bad entries
            with np.errstate(over="ignore", invalid="ignore"):
                mean = values.mean()
                if len(values) and not np.isfinite(mean):  # the sum overflowed; a scaled one cannot
                    scale = np.abs(values).max()
                    mean = (values / scale).mean() * scale
                centered = values - mean
            if not np.all(np.isfinite(centered)):
                raise ModelError("zero-sum gauge: the centered scores exceed the float64 range; "
                                 f"scores span {values.min():g} to {values.max():g}")
            values = centered
        return cls(values, gauge="zero-sum")

    @property
    def n(self) -> int:
        return len(self.values)

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            # dumps encodes in C in one shot; dump goes through the pure-Python iterencode
            f.write(json.dumps(self.values.tolist()))

    @classmethod
    def from_json(cls, path) -> "ScoreVector":
        """Read ``to_json`` output: a JSON list of numbers."""
        with open(path) as f:
            values = json.load(f)
        if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
            raise ModelError(f"{path}: scores must be a JSON list of numbers")
        return cls.zero_sum(np.array(values, dtype=np.float64))


def make_scores(kind: str, n: int, r: int) -> ScoreVector:
    """Build ground-truth scores and shift them to the zero-sum gauge.

    kinds: "sine" (theta_i = sin(i/r)), "linear" (theta_i = i/r), or
    "linear2d" (theta_(i1,i2) = (i1+i2)/r on a row-major sqrt(n) grid).
    ``ScoreVector.zero_sum`` gauges an explicit vector.
    """
    if n < 2 or r < 1:
        raise ModelError("need n >= 2 and r >= 1")
    idx = np.arange(n, dtype=np.float64)
    if kind == "sine":
        raw = np.sin(idx / r)
    elif kind == "linear":
        raw = idx / r
    elif kind == "linear2d":
        side = math.isqrt(n)
        if side * side != n:
            raise ModelError("linear2d requires a perfect-square n")
        i1, i2 = np.divmod(np.arange(n), side)
        raw = (i1 + i2) / r
    else:
        raise ModelError(f"unknown score kind {kind!r}")
    return ScoreVector.zero_sum(raw)


def _node_scores(theta, n: int) -> np.ndarray:
    """``theta``, checked to hold one score per node of an n-node graph."""
    if len(theta) != n:
        raise ModelError(f"score length {len(theta)} must match node count {n}")
    return theta


def _edge_gaps(graph: ComparisonGraph, theta) -> np.ndarray:
    """theta_i - theta_j for each edge (i, j), after checking theta's length."""
    theta = _node_scores(theta, graph.n)
    return theta[graph.edge_i] - theta[graph.edge_j]


def dynamic_range(graph: ComparisonGraph, scores: ScoreVector) -> tuple[float, float]:
    """(kappa, kappa_E): exp of the max score gap over all pairs / over edges."""
    theta = scores.values
    gaps = np.abs(_edge_gaps(graph, theta))
    return float(np.exp(theta.max() - theta.min())), float(np.exp(gaps.max(initial=0.0)))


@dataclass(frozen=True)
class ComparisonData:
    """Per-edge win counts for the edges of a ComparisonGraph.

    ``wins[e]`` counts how often edge_i[e] beat edge_j[e] among counts[e]
    comparisons. Wins are stored as counts, not fractions, so the MLE
    existence check stays exact; ``exact_comparisons`` builds the
    infinite-sample limit with fractional wins.
    """

    graph: ComparisonGraph
    wins: np.ndarray

    def __post_init__(self):
        wins = np.asarray(self.wins, dtype=np.float64)
        if len(wins) != self.graph.num_edges:
            raise ModelError("wins length must match edge count")
        if not np.all(np.isfinite(wins)):
            k = np.argmax(~np.isfinite(wins))
            raise ModelError(f"wins must be finite; edge ({self.graph.edge_i[k]},"
                             f"{self.graph.edge_j[k]}) has {wins[k]}")
        if np.any(wins < 0) or np.any(wins > self.graph.counts):
            raise ModelError("wins must lie in [0, L] per edge")
        object.__setattr__(self, "wins", wins)

    @cached_property
    def y(self) -> np.ndarray:
        """Win fraction of i over j per edge; y_ji = 1 - y_ij by convention."""
        return self.wins / self.graph.counts

    def to_csv(self, path) -> None:
        g = self.graph
        with open(path, "wb") as f:
            f.write(b"i,j,wins,L\n")
            whole = self.wins.astype(np.int64)
            if np.array_equal(whole, self.wins):  # all sampled data
                _write_rows(f, [g.edge_i, g.edge_j, whole, g.counts])
            else:  # str(float) is repr(float), the shortest string that reads back exactly
                wins = [int(w) if w.is_integer() else w for w in self.wins.tolist()]
                _write_rows(f, [g.edge_i.tolist(), g.edge_j.tolist(), wins, g.counts.tolist()],
                            "%d,%d,%s,%d\n")

    @classmethod
    def from_csv(cls, path, graph: ComparisonGraph) -> "ComparisonData":
        """Read ``to_csv`` output: one row per edge of ``graph``, in any order."""
        with open(path) as f:
            header = f.readline().strip().replace(" ", "")
            if header != "i,j,wins,L":
                raise ModelError(f"unexpected data CSV header: {header!r}")
            i, j, wins, counts = _read_rows(f.read(), _DATA_ROW)
        if len(i) != graph.num_edges:
            raise ModelError(f"data CSV has {len(i)} rows for {graph.num_edges} edges")
        if np.array_equal(i, graph.edge_i) and np.array_equal(j, graph.edge_j):
            # to_csv's order: row k holds edge k, so there is nothing to look up
            _reject_rows(counts != graph.counts, i, j, "has a sample count other than the graph's")
            return cls(graph=graph, wins=wins)
        keys = graph.edge_i * graph.n + graph.edge_j
        order = np.argsort(keys)
        e = order[np.searchsorted(keys[order], i * graph.n + j).clip(max=len(keys) - 1)]
        _reject_rows((graph.edge_i[e] != i) | (graph.edge_j[e] != j), i, j,
                     "is not an edge of the graph")
        _reject_rows(counts != graph.counts[e], i, j, "has a sample count other than the graph's")
        if np.any(np.bincount(e, minlength=graph.num_edges) != 1):
            raise ModelError("data CSV repeats an edge, so it does not cover every edge")
        ordered = np.empty(graph.num_edges)
        ordered[e] = wins
        return cls(graph=graph, wins=ordered)


def _require_own_graph(graph: ComparisonGraph, data: ComparisonData) -> None:
    """Raise unless ``data`` was recorded on ``graph``: the same object, or one
    with equal node count, edges and sample counts."""
    other = data.graph
    if other is not graph and not (
            other.n == graph.n and np.array_equal(other.edge_i, graph.edge_i)
            and np.array_equal(other.edge_j, graph.edge_j)
            and np.array_equal(other.counts, graph.counts)):
        raise ModelError("data was recorded on another graph")


def _reject_rows(bad, i, j, what: str) -> None:
    """Raise naming the first data CSV row (i[k], j[k]) that ``bad`` flags."""
    if bad.any():
        k = np.argmax(bad)
        raise ModelError(f"data CSV row ({i[k]},{j[k]}) {what}")


def sample_comparisons(graph: ComparisonGraph, scores: ScoreVector,
                       rng: np.random.Generator) -> ComparisonData:
    """wins_ij ~ Binomial(L_ij, sigmoid(theta_i - theta_j)), independent across edges."""
    p = sigmoid(_edge_gaps(graph, scores.values))
    wins = rng.binomial(graph.counts, p)
    return ComparisonData(graph=graph, wins=wins.astype(np.float64))


def exact_comparisons(graph: ComparisonGraph, scores: ScoreVector) -> ComparisonData:
    """Infinite-sample data: y_ij set analytically to sigmoid(theta_i - theta_j)."""
    return ComparisonData(graph=graph, wins=sigmoid(_edge_gaps(graph, scores.values)) * graph.counts)


def fisher_laplacian(graph: ComparisonGraph, theta=None) -> LaplacianOperator:
    """The Fisher information L(theta), the Hessian of the MLE loss at theta: edge weights
    L_ij sigmoid'(theta_i - theta_j), in (0, L_ij / 4]. Without theta it is L(0), whose
    weights 0.25 L_ij (sigmoid'(0) = 1/4) are formed with no gather and no exp."""
    w = 0.25 * graph.counts if theta is None else (
        graph.counts * sigmoid_derivative(_edge_gaps(graph, theta)))
    return LaplacianOperator(graph.n, graph.edge_i, graph.edge_j, w)


def oracle_laplacian(graph: ComparisonGraph, scores: ScoreVector) -> LaplacianOperator:
    """The Fisher information at the ground truth, L_z; the graph must be connected."""
    op = fisher_laplacian(graph, scores.values)
    if not op.connected:
        raise GraphError("oracle laplacian requires a connected graph")
    return op
