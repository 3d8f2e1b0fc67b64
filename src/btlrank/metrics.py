"""Error metrics, per-pair concentration-bound quantities, and closed-form
locality rates for grid graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ComparisonGraph, write_csv
from .laplacian import _pair_table
from .model import ModelError, ScoreVector, dynamic_range, oracle_laplacian

PAIR_BLOCK = 32  # pairs per block in bound_quantities: each temporary holds E x PAIR_BLOCK floats


@dataclass(frozen=True)
class PairwiseErrorReport:
    """Gauge-invariant distances between two score vectors.

    ``linf`` is the max single-entry error after mean-centering both vectors,
    ``max_pairwise`` the largest error of any score difference, ``l2`` the
    Euclidean norm of the centered error. Always
    linf <= max_pairwise <= 2 linf.
    """

    linf: float
    max_pairwise: float
    l2: float
    pair_errors: np.ndarray | None = None  # |delta_k - delta_l| per requested pair, or inf


def _pair_ids(pairs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``laplacian._pair_table``'s (k, l) with k <= l, checked to lie in 0..n-1."""
    k, l = _pair_table(n, pairs)
    if np.any(k < 0) or np.any(l >= n):
        raise ModelError(f"pair node ids must lie in 0..{n - 1}")
    return k, l


def error_report(estimate: ScoreVector, truth: ScoreVector,
                 pairs=None) -> PairwiseErrorReport:
    a = estimate.values
    b = truth.values
    if len(a) != len(b):
        raise ModelError("score vectors must have equal length")
    if pairs is not None:
        k, l = _pair_ids(pairs, len(a))
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        inf = float("inf")
        return PairwiseErrorReport(inf, inf, inf, None if pairs is None else np.full(len(k), inf))
    delta = (a - a.mean()) - (b - b.mean())
    linf = float(np.abs(delta).max())
    max_pairwise = float(delta.max() - delta.min())
    # (1/n) sum_{k<l} (delta_k - delta_l)^2 == ||delta||^2 when delta is centered
    l2 = float(np.linalg.norm(delta))
    per_pair = None if pairs is None else np.abs(delta[k] - delta[l])
    return PairwiseErrorReport(linf=linf, max_pairwise=max_pairwise, l2=l2,
                               pair_errors=per_pair)


@dataclass(frozen=True)
class BoundQuantities:
    """Per-pair concentration quantities at the ground truth.

    For each requested pair (k, l): the effective resistance ``omega`` in
    the oracle Laplacian, the basic bound ``B``, the resistance-weighted
    edge aggregate ``Q``, and the unweighted aggregate ``V``. Passing the
    graph's edges as ``pairs`` checks Q <= 4 B on every edge.
    """

    pairs: list[tuple[int, int]]
    omega: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    V: np.ndarray
    kappa_E: float

    def to_csv(self, path) -> None:
        write_csv(path, ["k", "l", "omega", "B", "Q", "V"],
                  [(k, l, float(o), float(b), float(q), float(v))
                   for (k, l), o, b, q, v in zip(self.pairs, self.omega, self.B, self.Q, self.V)])


def bound_quantities(graph: ComparisonGraph, truth: ScoreVector, delta: float,
                     C0: float = 1.0, pairs=None) -> BoundQuantities:
    """Evaluate B, Q, V at the ground truth for the requested node pairs.

    B_kl = C0 sqrt(Omega_kl kappa_E log(n / delta)) with Omega taken in the
    oracle Laplacian; Q and V aggregate |(e_k - e_l)^T Lz^+ (e_i - e_j)| over
    edges, Q weighted by L_ij B_ij^2 and V by L_ij. ``delta`` is the failure
    probability and must lie in (0, 0.5).
    """
    if not (0.0 < delta < 0.5):
        raise ModelError("failure probability must lie in (0, 0.5)")
    if not (math.isfinite(C0) and C0 > 0):
        raise ModelError(f"C0 must be finite and positive, not {C0}")
    op = oracle_laplacian(graph, truth)
    n = graph.n
    _, kappa_e = dynamic_range(graph, truth)
    log_term = math.log(n / delta)

    def bound(o):
        return C0 * np.sqrt(o * kappa_e * log_term)

    k_want, l_want = _pair_ids(pairs, n)
    B_edge = bound(op.edge_resistances())
    counts = graph.counts.astype(np.float64)
    edge_weights = np.stack([counts * B_edge ** 2, counts])  # rows give Q and V

    # each pair's column L^+ (e_k - e_l) gives its omega at k and l, and its Q and V (rows)
    # as edge sums of |(e_k - e_l)^T L^+ (e_i - e_j)|
    cols, ck, cl = op._pair_columns(k_want, l_want)
    ei, ej = graph.edge_i, graph.edge_j
    omega, QV = np.empty(len(k_want)), np.empty((2, len(k_want)))
    for s in range(0, len(k_want), PAIR_BLOCK):
        block = slice(s, s + PAIR_BLOCK)
        T = cols[:, ck[block]] - cols[:, cl[block]]
        at = np.arange(T.shape[1])
        omega[block] = T[k_want[block], at] - T[l_want[block], at]
        QV[:, block] = edge_weights @ np.abs(T[ei] - T[ej])
    Q, V = QV
    return BoundQuantities(pairs=list(zip(k_want.tolist(), l_want.tolist())), omega=omega,
                           B=bound(omega), Q=Q, V=V, kappa_E=kappa_e)


def locality_bound(kind: str, n: int, r: int, p: float, L: int) -> float:
    """Closed-form max-error rate for locality grids.

    grid1d: 5 sqrt(n / r^2 + 1) sqrt(1 / (r p L)).
    grid2d: 6 sqrt(log(n) / r^2 + 1) sqrt(1 / (r^2 p L)).
    """
    if n < 2 or r < 1 or L < 1 or not (0.0 < p <= 1.0):
        raise ModelError("need n >= 2, r >= 1, L >= 1, p in (0, 1]")
    if kind == "grid1d":
        return 5.0 * math.sqrt(n / r ** 2 + 1.0) * math.sqrt(1.0 / (r * p * L))
    if kind == "grid2d":
        return 6.0 * math.sqrt(math.log(n) / r ** 2 + 1.0) * math.sqrt(1.0 / (r ** 2 * p * L))
    raise ModelError(f"unknown grid kind {kind!r}")
