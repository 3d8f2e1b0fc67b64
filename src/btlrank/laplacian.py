"""Weighted graph Laplacians: solves orthogonal to the all-ones vector,
pseudo-inverse actions, and effective resistances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix

from .graphs import is_connected

DENSE_LIMIT = 200  # dense eigendecomposition below this size
DEFAULT_TOL = 1e-10
ORTHOGONALITY_SLACK = 1e-12


class LaplacianError(ValueError):
    pass


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool


class LaplacianOperator:
    """L = sum_e w_e (e_i - e_j)(e_i - e_j)^T for positive edge weights.

    Held as one CSR matrix assembled from the edge incidences, so each row
    sums to zero up to rounding. Parallel edges are merged at assembly
    (conductances add). Immutable after construction; concurrent solves
    are safe.
    """

    def __init__(self, n: int, edge_i, edge_j, weights):
        ei = np.asarray(edge_i, dtype=np.int64)
        ej = np.asarray(edge_j, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w <= 0):
            raise LaplacianError("edge weights must be positive")
        if np.any(ei == ej):
            raise LaplacianError("self-loops are not allowed")
        if len(ei) and (min(ei.min(), ej.min()) < 0 or max(ei.max(), ej.max()) >= n):
            raise LaplacianError("edge index out of range")
        # duplicate (row, col) entries are summed by the conversion, which
        # merges parallel edges and accumulates the degrees on the diagonal
        rows = np.concatenate([ei, ej, ei, ej])
        cols = np.concatenate([ej, ei, ei, ej])
        vals = np.concatenate([-w, -w, w, w])
        self.n = n
        self.matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        self.degree = self.matrix.diagonal()
        self.connected = is_connected(n, ei, ej)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def _eigendecomposition(self):
        vals, vecs = np.linalg.eigh(self.dense())
        return vals, vecs

    def pinv_matvec_dense(self, b: np.ndarray) -> np.ndarray:
        vals, vecs = self._eigendecomposition
        coeff = vecs.T @ b
        inv = np.zeros_like(vals)
        cutoff = max(vals.max(), 1.0) * 1e-12
        nz = vals > cutoff
        inv[nz] = 1.0 / vals[nz]
        return vecs @ (coeff * inv)

    def solve_orthogonal(self, b: np.ndarray, tol: float = DEFAULT_TOL,
                         max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
        """Pseudo-inverse action v = L^+ b with v orthogonal to the all-ones vector.

        b is projected onto the subspace orthogonal to ones first. Uses a
        cached dense eigendecomposition for small operators, otherwise
        conjugate gradient with deflation of the ones direction and Jacobi
        preconditioning. CG stops unconverged if a search direction has
        no positive curvature.
        """
        if not self.connected:
            raise LaplacianError("operator is disconnected; pseudo-inverse solve is ambiguous")
        b = np.asarray(b, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise LaplacianError("right-hand side is not finite")
        b = b - b.mean()
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(self.n), SolveReport(0, 0.0, True)
        if self.n <= DENSE_LIMIT:
            v = self.pinv_matvec_dense(b)
            v -= v.mean()
            res = np.linalg.norm(self.matvec(v) - b) / bnorm
            return v, SolveReport(0, float(res), res <= max(tol, 1e-8))
        if max_iter is None:
            max_iter = 10 * self.n
        inv_diag = 1.0 / self.degree
        x = np.zeros(self.n)
        r = b.copy()
        z = inv_diag * r
        z -= z.mean()
        p = z.copy()
        rz = r @ z
        it = 0
        res = 1.0
        for it in range(1, max_iter + 1):
            Ap = self.matvec(p)
            curvature = p @ Ap
            if not curvature > 0:
                break
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * Ap
            res = np.linalg.norm(r) / bnorm
            if res <= tol:
                break
            z = inv_diag * r
            z -= z.mean()
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        x -= x.mean()
        return x, SolveReport(it, float(res), res <= tol)

    def pinv_columns(self, nodes, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Columns L^+ e_k for k in ``nodes`` as an n x len(nodes) array, one solve each."""
        cols = np.zeros((self.n, len(nodes)))
        for c, node in enumerate(nodes):
            b = np.zeros(self.n)
            b[node] = 1.0
            v, report = self.solve_orthogonal(b, tol=tol)
            if not report.converged:
                raise LaplacianError(
                    f"pseudo-inverse column solve did not converge (residual {report.residual:.2e})")
            cols[:, c] = v
        return cols

    def effective_resistance(self, k: int, ell: int, tol: float = DEFAULT_TOL) -> float:
        """Omega_{k,l} = (e_k - e_l)^T L^+ (e_k - e_l); 0 when k == l by convention."""
        if k == ell:
            return 0.0
        b = np.zeros(self.n)
        b[k] = 1.0
        b[ell] = -1.0
        v, report = self.solve_orthogonal(b, tol=tol)
        if not report.converged:
            raise LaplacianError(f"resistance solve did not converge (residual {report.residual:.2e})")
        return float(v[k] - v[ell])

    def resistance_matrix(self, pairs=None, tol: float = DEFAULT_TOL) -> dict[tuple[int, int], float]:
        """Batch effective resistances, one solve per involved node.

        ``pairs`` is an optional list of (k, l); default is all pairs, which
        costs n - 1 solves (the last column follows from the others by
        symmetry of the pseudo-inverse).
        """
        if pairs is None:
            all_pairs = [(k, l) for k in range(self.n) for l in range(k + 1, self.n)]
            needed = list(range(self.n - 1))
        else:
            all_pairs = [(min(k, l), max(k, l)) for k, l in pairs]
            needed = sorted({k for k, _ in all_pairs} | {l for _, l in all_pairs})
        cols = self.pinv_columns(needed, tol=tol)
        if pairs is None:
            # column of the last node from the others: columns of L+ sum to 0
            cols = np.column_stack([cols, -cols.sum(axis=1)])
            needed.append(self.n - 1)
        at = {node: c for c, node in enumerate(needed)}
        out: dict[tuple[int, int], float] = {}
        for k, l in all_pairs:
            ck, cl = at[k], at[l]
            out[(k, l)] = float(cols[k, ck] - cols[l, ck] - cols[k, cl] + cols[l, cl])
        return out


def assemble(n: int, weighted_edges) -> LaplacianOperator:
    """Build a LaplacianOperator from an iterable of (i, j, w) triples."""
    weighted_edges = list(weighted_edges)
    if len(weighted_edges) == 0:
        return LaplacianOperator(n, np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]))
    ei, ej, w = zip(*weighted_edges)
    return LaplacianOperator(n, np.array(ei), np.array(ej), np.array(w, dtype=np.float64))


def resistance_to_csv(resistances: dict[tuple[int, int], float], path) -> None:
    with open(path, "w") as f:
        f.write("k,l,omega\n")
        for (k, l), omega in sorted(resistances.items()):
            f.write(f"{k},{l},{omega!r}\n")
