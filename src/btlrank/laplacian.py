"""Weighted graph Laplacians: solves orthogonal to the all-ones vector,
pseudo-inverse actions, and effective resistances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

FACTOR_LIMIT = 200  # always factor at or below this size
DEFAULT_TOL = 1e-10


class LaplacianError(ValueError):
    pass


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    backend: str  # "factor" (banded Cholesky) or "cg"

    def __str__(self) -> str:
        return f"{self.backend} residual {self.residual:.2e} after {self.iterations} iterations"


class LaplacianOperator:
    """L = sum_e w_e (e_i - e_j)(e_i - e_j)^T for positive edge weights.

    Held as one CSR matrix assembled from the edge incidences, so each row
    sums to zero up to rounding. Parallel edges are merged at assembly
    (conductances add). Immutable after construction; concurrent solves
    are safe.

    ``blocks`` labels the nodes 0..m-1 of a block-diagonal operator, one
    label per diagonal block. Solves need every block connected and no
    edge between blocks: they then act on each block as its own
    pseudo-inverse, orthogonal to that block's ones vector. Without
    ``blocks`` the whole graph must be connected.
    """

    def __init__(self, n: int, edge_i, edge_j, weights, blocks=None):
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
        self.ncomp, self.components = connected_components(self.matrix, directed=False)
        if blocks is None:
            self.connected = self.ncomp == 1
        else:
            blocks = np.asarray(blocks, dtype=np.int64)
            # components refine the blocks when no edge joins two, and equal them when as many
            self.connected = (self.ncomp == blocks.max(initial=0) + 1
                              and not np.any(blocks[ei] != blocks[ej]))
        self.band = int(np.abs(ei - ej).max(initial=0))
        # a banded Cholesky costs about n band^2 flops and Jacobi-CG at least (n - 1) / band
        # iterations of nnz flops, so with band^3 <= nnz the factor costs at most one CG solve
        largest = n if self.ncomp == 1 else np.bincount(self.components).max()
        self.factored = largest <= FACTOR_LIMIT or self.band ** 3 <= self.matrix.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def _component_mean(self) -> csr_matrix:
        """ncomp x n averaging matrix: row c holds 1/|c| on the nodes of component c."""
        size = np.bincount(self.components)
        return csr_matrix((1.0 / size[self.components], (self.components, np.arange(self.n))),
                          shape=(self.ncomp, self.n))

    def _center(self, x: np.ndarray) -> np.ndarray:
        """x minus its mean over each component, column by column."""
        if self.ncomp == 1:
            return x - x.mean(axis=0)
        return x - (self._component_mean @ x)[self.components]

    def _norms(self, x: np.ndarray):
        """2-norm of x, or with several components the array of its norms on each."""
        if self.ncomp == 1:
            return np.linalg.norm(x)
        return np.sqrt(np.bincount(self.components, x * x, self.ncomp))

    def _relative(self, r: np.ndarray, bnorm) -> float:
        """Largest ||r_c|| / ||b_c|| over the components c, where ``bnorm`` is ``_norms(b)``."""
        if self.ncomp == 1:
            return float(np.linalg.norm(r) / bnorm)
        rnorm = self._norms(r)
        ratio = np.divide(rnorm, bnorm, out=np.where(rnorm > 0, np.inf, 0.0), where=bnorm > 0)
        return float(ratio.max())

    def _require_connected(self) -> None:
        if not self.connected:
            raise LaplacianError("operator is disconnected; pseudo-inverse solve is ambiguous")

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor, in LAPACK upper band storage, of L with the last node of each
        component grounded, and the index (mask or slice) of the nodes it keeps."""
        keep = np.ones(self.n, dtype=bool)
        keep[self.n - 1 - np.unique(self.components[::-1], return_index=True)[1]] = False
        at = np.cumsum(keep) - 1  # position of each kept node in the grounded matrix
        coo = self.matrix.tocoo()
        upper = (coo.row <= coo.col) & keep[coo.row] & keep[coo.col]
        row, col = at[coo.row[upper]], at[coo.col[upper]]
        ab = np.zeros((self.band + 1, self.n - self.ncomp))
        ab[self.band + row - col, col] = coo.data[upper]
        if self.ncomp == 1:
            keep = slice(0, -1)  # a view: no copy of the kept rows
        try:
            return cholesky_banded(ab), keep
        except LinAlgError as exc:
            raise LaplacianError(f"grounded Laplacian factorization failed: {exc}") from exc

    @property
    def _factor_ready(self) -> bool:
        """Whether a solve takes the banded factor: when ``factored``, or once it is built."""
        return self.factored or "_factor" in vars(self)

    def _factor_solve(self, b: np.ndarray) -> np.ndarray:
        """L^+ b for one or many columns b orthogonal to each component's ones vector."""
        factor, keep = self._factor
        x = np.zeros(b.shape)
        x[keep] = cho_solve_banded((factor, False), b[keep])  # grounded nodes stay 0
        return self._center(x)

    def solve_orthogonal(self, b: np.ndarray, tol: float = DEFAULT_TOL,
                         max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
        """Pseudo-inverse action v = L^+ b with v orthogonal to the all-ones vector.

        b is projected onto the subspace orthogonal to ones first. Uses the
        cached banded Cholesky factor when ``factored`` or once ``pinv_columns``
        has built it, otherwise conjugate
        gradient with deflation of the ones direction and Jacobi
        preconditioning. CG stops unconverged if a search direction has
        no positive curvature. On either path ``converged`` means the
        relative residual ||L v - b|| / ||b|| is at most tol. On a
        block-diagonal operator "ones" means each block's ones vector, and
        the residual is the largest over the blocks.
        """
        self._require_connected()
        b = np.asarray(b, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise LaplacianError("right-hand side is not finite")
        b = self._center(b)
        bnorm = self._norms(b)
        backend = "factor" if self._factor_ready else "cg"
        if not np.any(bnorm):
            return np.zeros(self.n), SolveReport(0, 0.0, True, backend)
        if self._factor_ready:
            v = self._factor_solve(b)
            res = self._relative(self.matvec(v) - b, bnorm)
            return v, SolveReport(0, res, res <= tol, backend)
        if max_iter is None:
            max_iter = 10 * self.n
        inv_diag = 1.0 / self.degree
        x = np.zeros(self.n)
        r = b.copy()
        z = self._center(inv_diag * r)
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
            res = self._relative(r, bnorm)
            if res <= tol:
                break
            z = self._center(inv_diag * r)
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        return self._center(x), SolveReport(it, float(res), res <= tol, backend)

    def pinv_columns(self, nodes, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Columns L^+ e_k for k in ``nodes`` as an n x len(nodes) array.

        One multi-column solve on the cached factor when the operator is
        ``factored``, the factor is already built, or one factor costs less
        than len(nodes) CG solves, otherwise one CG solve each.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        # A factor costs about n band^2 and k CG solves at least k (n - 1) / band nnz, as in
        # __init__; at output tolerance CG takes several times that many iterations, each flop
        # slower, and 100 prices both. Measured on a 2-vCPU Xeon (factor, one CG column at 1e-10,
        # crossover in columns), the rule factoring from 2, 1, 1 and 3600 columns:
        #   grid2d 100x100 r=4 p=0.8 (band 400):  0.14 s,  0.094 s (169 iterations), 1.5
        #   grid2d 50x50 r=4 (band 200):         0.019 s, 0.0084 s (85 iterations),  2.2
        #   grid2d 150x150 r=2 (band 300):        0.25 s,   0.33 s (489 iterations), 0.8
        #   ER n=2000 p=0.005 (band 1984):        0.09 s,  0.001 s (21 iterations),   81
        if self._factor_ready or self.band ** 3 <= 100 * len(nodes) * self.matrix.nnz:
            self._require_connected()
            b = np.zeros((self.n, len(nodes)))
            b[nodes, np.arange(len(nodes))] = 1.0
            b = self._center(b)
            cols = self._factor_solve(b)
            resid = np.linalg.norm(self.matrix @ cols - b, axis=0)
            if np.any(resid > tol * np.linalg.norm(b, axis=0)):
                raise LaplacianError("pseudo-inverse column solve did not converge "
                                     f"(factor residual {resid.max():.2e})")
            return cols
        cols = np.zeros((self.n, len(nodes)))
        for c, node in enumerate(nodes):
            b = np.zeros(self.n)
            b[node] = 1.0
            v, report = self.solve_orthogonal(b, tol=tol)
            if not report.converged:
                raise LaplacianError(f"pseudo-inverse column solve did not converge ({report})")
            cols[:, c] = v
        return cols

    def _require_same_component(self, k, ell) -> None:
        if np.any(self.components[k] != self.components[ell]):
            raise LaplacianError("nodes in different blocks have no finite resistance")

    def effective_resistance(self, k: int, ell: int, tol: float = DEFAULT_TOL) -> float:
        """Omega_{k,l} = (e_k - e_l)^T L^+ (e_k - e_l); 0 when k == l by convention."""
        if k == ell:
            return 0.0
        b = np.zeros(self.n)
        b[k] = 1.0
        b[ell] = -1.0
        v, report = self.solve_orthogonal(b, tol=tol)
        self._require_same_component(k, ell)
        if not report.converged:
            raise LaplacianError(f"resistance solve did not converge ({report})")
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
        if all_pairs:
            self._require_same_component(*np.array(all_pairs).T)
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
