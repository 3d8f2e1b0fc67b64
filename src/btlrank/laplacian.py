"""Weighted graph Laplacians: solves orthogonal to the all-ones vector,
pseudo-inverse actions, and effective resistances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse import coo_matrix

from .graphs import is_connected

DENSE_LIMIT = 200  # always factor at or below this size
DEFAULT_TOL = 1e-10


class LaplacianError(ValueError):
    pass


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    backend: str  # "factor" (banded Cholesky) or "cg"


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
        self.band = int(np.abs(ei - ej).max(initial=0))
        # a banded Cholesky costs about n band^2 flops and Jacobi-CG at least (n - 1) / band
        # iterations of nnz flops, so with band^3 <= nnz the factor costs at most one CG solve
        self.factored = n <= DENSE_LIMIT or self.band ** 3 <= self.matrix.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def _factor(self) -> np.ndarray:
        """Cholesky factor, in LAPACK upper band storage, of L with the last node grounded."""
        coo = self.matrix.tocoo()
        keep = (coo.row <= coo.col) & (coo.col < self.n - 1)
        ab = np.zeros((self.band + 1, self.n - 1))
        ab[self.band + coo.row[keep] - coo.col[keep], coo.col[keep]] = coo.data[keep]
        try:
            return cholesky_banded(ab)
        except LinAlgError as exc:
            raise LaplacianError(f"grounded Laplacian factorization failed: {exc}") from exc

    def _factor_solve(self, b: np.ndarray) -> np.ndarray:
        """L^+ b for one or many columns b orthogonal to the all-ones vector."""
        x = cho_solve_banded((self._factor, False), b[:-1])
        x = np.concatenate([x, np.zeros((1,) + x.shape[1:])])  # the grounded node
        return x - x.mean(axis=0)

    def solve_orthogonal(self, b: np.ndarray, tol: float = DEFAULT_TOL,
                         max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
        """Pseudo-inverse action v = L^+ b with v orthogonal to the all-ones vector.

        b is projected onto the subspace orthogonal to ones first. Uses the
        cached banded Cholesky factor when ``factored``, otherwise conjugate
        gradient with deflation of the ones direction and Jacobi
        preconditioning. CG stops unconverged if a search direction has
        no positive curvature. On either path ``converged`` means the
        relative residual ||L v - b|| / ||b|| is at most tol.
        """
        if not self.connected:
            raise LaplacianError("operator is disconnected; pseudo-inverse solve is ambiguous")
        b = np.asarray(b, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise LaplacianError("right-hand side is not finite")
        b = b - b.mean()
        bnorm = np.linalg.norm(b)
        backend = "factor" if self.factored else "cg"
        if bnorm == 0.0:
            return np.zeros(self.n), SolveReport(0, 0.0, True, backend)
        if self.factored:
            v = self._factor_solve(b)
            res = float(np.linalg.norm(self.matvec(v) - b) / bnorm)
            return v, SolveReport(0, res, res <= tol, backend)
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
        return x, SolveReport(it, float(res), res <= tol, backend)

    def pinv_columns(self, nodes, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Columns L^+ e_k for k in ``nodes`` as an n x len(nodes) array.

        One multi-column solve on the factor, otherwise one CG solve each.
        """
        if self.factored:
            if not self.connected:
                raise LaplacianError("operator is disconnected; pseudo-inverse solve is ambiguous")
            b = np.full((self.n, len(nodes)), -1.0 / self.n)
            b[np.asarray(nodes, dtype=np.int64), np.arange(len(nodes))] += 1.0
            cols = self._factor_solve(b)
            bnorm = np.sqrt(1.0 - 1.0 / self.n)  # ||e_k - 1/n||, 0 only when n == 1
            worst = np.linalg.norm(self.matrix @ cols - b, axis=0).max(initial=0.0)
            if worst > tol * bnorm:
                raise LaplacianError(
                    f"pseudo-inverse column solve did not converge (residual {worst / bnorm:.2e})")
            return cols
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
        """Batch effective resistances from one L^+ column per involved node.

        ``pairs`` is an optional list of (k, l); default is all pairs.
        """
        if pairs is None:
            pairs = [(k, l) for k in range(self.n) for l in range(k + 1, self.n)]
        all_pairs = [(min(k, l), max(k, l)) for k, l in pairs]
        needed = sorted({node for pair in all_pairs for node in pair})
        cols = self.pinv_columns(needed, tol=tol)
        at = {node: c for c, node in enumerate(needed)}
        out: dict[tuple[int, int], float] = {}
        for k, l in all_pairs:
            ck, cl = at[k], at[l]
            out[(k, l)] = float(cols[k, ck] - cols[l, ck] - cols[k, cl] + cols[l, cl])
        return out


def assemble(n: int, weighted_edges) -> LaplacianOperator:
    """Build a LaplacianOperator from an iterable of (i, j, w) triples."""
    ei, ej, w = np.array(list(weighted_edges), dtype=np.float64).reshape(-1, 3).T
    return LaplacianOperator(n, ei.astype(np.int64), ej.astype(np.int64), w)


def resistance_to_csv(resistances: dict[tuple[int, int], float], path) -> None:
    with open(path, "w") as f:
        f.write("k,l,omega\n")
        for (k, l), omega in sorted(resistances.items()):
            f.write(f"{k},{l},{omega!r}\n")
