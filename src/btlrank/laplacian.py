"""Weighted graph Laplacians: pseudo-inverse solves on any graph, for one
or many columns, and effective resistances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtrtri
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

FACTOR_LIMIT = 200  # always factor at or below this size
SOLVE_COST = 8  # a banded solve column's 4 n band flops, priced as this many n band
DEFAULT_TOL = 1e-10
# Blocks of the selected inversion in ``edge_resistances`` hold max(band, SELINV_BLOCK) nodes.
# A block of B nodes costs one dtrtri and four B x B products, O(n B^2) flops over n / B blocks,
# plus a fixed call overhead per block that larger blocks amortize on narrow bands. On oracle
# Laplacians of grid1d n=10^5 (2-vCPU Xeon, best of 5) a call took 111 / 118 / 139 / 174 ms
# at 24 / 32 / 48 / 64 and band 10, 98 / 101 / 123 / 159 ms at band 2, and 482 ms at 128.
SELINV_BLOCK = 32
# The relative miss of Foster's identity that ``edge_resistances`` takes for rounding. It read
# at most 6e-16 on grids and Erdos-Renyi graphs. On two 30-node cliques joined by one edge it
# read 3.4e-11 at bridge weight 1e-4, every Omega right to 2.3e-9, and 3.4e-7 at 1e-8, where
# the Omega were off by 1.5e-6.
FOSTER_RTOL = 1e-8
# A pair's Omega is the sum of four grounded-column terms, so it loses about the ratio of the
# largest term to |Omega| times the columns' relative error; past CANCEL_LIMIT the pair is
# refused. The ratio read at most 3.8 on the benchmark's pairs, 88 on grid edges and 5e5 on the
# exact answers of a 10^6-node unit path. On the two cliques above, Omega was off by 2.9e-9 at
# ratio 7.5e4 (bridge weight 1e-4), 1.6e-8 at 7.5e5 (1e-5) and 1.3e-5 at 7.5e8 (1e-8).
CANCEL_LIMIT = 1e6


class LaplacianError(ValueError):
    pass


def _pair_table(n: int, pairs=None) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs as unchecked int64 arrays (k, l), each pair ordered k <= l; without
    ``pairs``, every pair k < l of n nodes in row-major order."""
    if pairs is None:
        return np.triu_indices(n, k=1)
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return ids.min(axis=1), ids.max(axis=1)


def _band_panel(factor: np.ndarray, s: int, e: int, e2: int) -> np.ndarray:
    """Rows s:e2 of columns s:e of the lower triangular C held in LAPACK lower band storage
    (factor[d, j] = C[j + d, j]), as a dense (e2 - s) x (e - s) array."""
    m, rows = e - s, e2 - s
    depth = min(len(factor), rows)  # the diagonals that can reach rows s:e2
    # column j of the panel, laid along row j of a (rows + 1)-wide array from its column 0,
    # sits at panel row j + d once the array is read (rows) wide
    skew = np.zeros((m, rows + 1))
    skew[:, :depth] = factor[:depth, s:e].T
    if m + depth > rows + 1:  # entries below row e2 would wrap into the next column
        skew[:, :depth][np.add.outer(np.arange(m), np.arange(depth)) >= rows] = 0.0
    return skew.reshape(-1)[:m * rows].reshape(m, rows).T


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    backend: str  # "factor" (banded Cholesky) or "cg"

    def __str__(self) -> str:
        return f"{self.backend} residual {self.residual:.2e} after {self.iterations} iterations"


class LaplacianOperator:
    """L = sum_e w_e (e_i - e_j)(e_i - e_j)^T for positive edge weights.

    Held as one CSR matrix, ``matrix``, converted from COO triplets: two
    off-diagonal entries per edge and the weighted degrees on the diagonal,
    so each row sums to zero up to rounding. Parallel edges are merged at
    assembly (conductances add). Immutable after construction; concurrent
    solves are safe.

    Solves act as the Moore-Penrose pseudo-inverse L^+ on any graph: on
    each connected component, as that component's own pseudo-inverse,
    orthogonal to its ones vector. A node without edges is a component on
    which L^+ is 0.
    """

    def __init__(self, n: int, edge_i, edge_j, weights):
        ei = np.asarray(edge_i, dtype=np.int64)
        ej = np.asarray(edge_j, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if not np.all((w > 0) & np.isfinite(w)):
            raise LaplacianError("edge weights must be positive and finite")
        if np.any(ei == ej):
            raise LaplacianError("self-loops are not allowed")
        if len(ei) and (min(ei.min(), ej.min()) < 0 or max(ei.max(), ej.max()) >= n):
            raise LaplacianError("edge index out of range")
        lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
        self.n = n
        self.degree = np.bincount(ei, w, n) + np.bincount(ej, w, n)
        off = -w  # each edge's entry off the diagonal: a new array, which the caller cannot change
        self._edges = lo, hi, off
        # scipy's COO-to-CSR conversion is a counting sort by row that keeps each row's arrival
        # order, so with edges sorted by (lo, hi) row k comes out as its lower entries, L[k, k]
        # and its upper entries, canonical without a sort. Other orders are sorted there, and
        # parallel edges summed (conductances add).
        k = np.arange(n)
        self.matrix = csr_matrix((np.concatenate([off, self.degree, off]),
                                  (np.concatenate([hi, k, lo]), np.concatenate([lo, k, hi]))),
                                 shape=(n, n))
        # L is symmetric, so its strong components are its connected components, also
        # numbered by their lowest node; the strong search skips the undirected one's transpose.
        # It needs merged entries: on a CSR row that repeats a column, scipy's does not return
        self.ncomp, self.components = connected_components(self.matrix, connection="strong")
        self.connected = self.ncomp == 1
        self.band = int((hi - lo).max(initial=0))
        self._largest = n if self.ncomp == 1 else int(np.bincount(self.components).max())
        self.factored = self._factor_pays(1, np.inf)  # then every solve takes the factor

    def _factor_pays(self, k: int, tol: float) -> bool:
        """Whether solving k non-zero columns to ``tol`` takes the banded factor."""
        # The factor costs about n band^2 flops, a banded solve column SOLVE_COST n band, and a CG
        # column (n - 1) / band iterations of nnz flops or more, weighted for its iterations and
        # flop speed: 1 at 1e-2, 100 at 1e-10, geometric between. On a 2-vCPU Xeon (factor; solve
        # column, and band times it over the factor, 1.7-3.1 at band 10; CG column at 1e-10):
        #   grid2d 100x100 r=4 p=0.8 (band 400): 0.089 s; 3.7 ms, 17; 64 ms (169 its), factor from 3
        #   grid2d 50x50 r=4 (band 200): 0.0081 s; 0.31 ms, 7.7; 7.5 ms (82 its), factor from 1
        #   grid2d 150x150 r=2 (band 300): 0.15 s; 9.4 ms, 18; 207 ms (471 its), factor from 1
        #   ER n=2000 p=0.005 (band 1994): 0.072 s; 1.4 ms, 40; 1.1 ms (22 its), never factor
        #   ER n=2000 p=0.01 (band 1994): 0.045 s; 1.5 ms, 65; 1.1 ms (16 its), never factor
        weight = (1e-2 / min(max(tol, 1e-10), 1e-2)) ** 0.25
        return ("_factor" in vars(self) or self._largest <= FACTOR_LIMIT
                or self.band ** 3 + SOLVE_COST * k * self.band ** 2 <= weight * k * self.matrix.nnz)

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

    @cached_property
    def _component_sum(self) -> csr_matrix:
        """ncomp x n summing matrix: row c holds 1 on the nodes of component c."""
        return csr_matrix((np.ones(self.n), (self.components, np.arange(self.n))),
                          shape=(self.ncomp, self.n))

    def _norms(self, x: np.ndarray):
        """2-norm of x or of each column, or with several components its norms on each (rows)."""
        if self.ncomp > 1:
            return np.sqrt(self._component_sum @ (x * x))
        # without an axis the norm is one dot product; axis=0 would round a vector's differently
        return np.linalg.norm(x, axis=0) if x.ndim == 2 else np.linalg.norm(x)

    def _relative(self, rnorm, scale) -> float:
        """Largest rnorm / scale over components and columns, both laid out as ``_norms``
        gives them; 0 / 0 counts as 0."""
        if np.ndim(rnorm) == 0:  # one vector, one component: scale > 0, and a CG step is cheaper
            return float(rnorm / scale)
        ratio = np.divide(rnorm, scale, out=np.where(rnorm > 0, np.inf, 0.0), where=scale > 0)
        return float(ratio.max())

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor, in LAPACK lower band storage, of L grounded in place at the
        last node g of each component (row and column g zeroed, L[g, g] = 1), and the
        grounded nodes. LAPACK's upper-storage factor runs 3-5x slower on narrow bands
        once OpenBLAS has a second thread; the lower-storage one does not."""
        ground = self.n - 1 - np.unique(self.components[::-1], return_index=True)[1]
        lo, hi, off = self._edges  # L[hi, lo] sits at ab[hi - lo, lo]; parallel edges add
        size = self.band + 1
        # built as ab.T, so ab is in the Fortran layout LAPACK factors in place
        ab = np.bincount(lo * size + hi - lo, off, self.n * size).reshape(self.n, size).T
        ab[0] = self.degree
        ab[1:, ground] = 0.0  # column g below the diagonal
        d = np.arange(1, self.band + 1)[:, None]
        ab[d, ground - d] = 0.0  # row g; a column left of 0 wraps into the unused end of the band
        ab[0, ground] = 1.0
        try:  # finite by construction: __init__ rejects non-finite weights
            return cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False), ground
        except LinAlgError as exc:
            raise LaplacianError(f"grounded Laplacian factorization failed: {exc}") from exc

    def edge_resistances(self) -> np.ndarray:
        """Omega_e for every edge given to ``__init__``, in input order, parallel edges each
        reading their merged value.

        Selected inversion (Takahashi, Fagan and Chin 1973; Lin et al., "SelInv", ACM TOMS
        2011): the cached factor C C^T = L_g of the grounded Laplacian is block bidiagonal in
        blocks of B = max(band, SELINV_BLOCK) nodes, and the diagonal and first off-diagonal
        blocks of G = L_g^-1, which hold every edge, follow backwards from the last block:
        G_NN = C_NN^-T C_NN^-1, then with X = C_{a+1,a} C_aa^-1, G_{a+1,a} = -G_{a+1,a+1} X
        and G_aa = C_aa^-T C_aa^-1 - G_{a+1,a}^T X. Omega_ij = G_ii + G_jj - 2 G_ij, with G
        read as 0 at the grounded nodes. O(n B^2) flops; besides the factor, O(n + E + B^2)
        memory, as each block's edges are read as its two G blocks form. Foster's identity
        sum_e w_e Omega_e = n - ncomp checks the answer: a relative miss above FOSTER_RTOL
        raises LaplacianError.
        """
        factor, ground = self._factor
        lo, hi, off = self._edges
        n, size = self.n, max(self.band, SELINV_BLOCK)
        order = np.argsort(lo, kind="stable")
        starts = np.arange(0, n, size)
        cut = np.searchsorted(lo[order], np.append(starts, n))  # block a's edges: cut[a]:cut[a+1]
        diag, cross = np.empty(n), np.empty(len(lo))  # G_ii, and G[hi, lo] per edge
        later = None  # G_{a+1,a+1}
        for a in range(len(starts) - 1, -1, -1):
            s = int(starts[a])
            e = min(s + size, n)
            e2, m = min(e + size, n), e - s
            panel = _band_panel(factor, s, e, e2)  # C[s:e2, s:e]
            inv, info = dtrtri(panel[:m], lower=1)
            if info:
                raise LaplacianError(f"grounded Laplacian factor is singular (dtrtri info {info})")
            G = np.empty((e2 - s, m))  # G[s:e2, s:e]
            G[:m] = inv.T @ inv
            if e2 > e:
                X = panel[m:] @ inv
                G[m:] = -(later @ X)
                G[:m] -= G[m:].T @ X
            diag[s:e] = G.diagonal()
            mine = order[cut[a]:cut[a + 1]]
            cross[mine] = G[hi[mine] - s, lo[mine] - s]
            later = G[:m]
        diag[ground] = 0.0
        omega = diag[lo] + diag[hi] - 2.0 * cross
        foster, want = -(off @ omega), n - self.ncomp
        if not abs(foster - want) <= FOSTER_RTOL * max(want, 1):
            raise LaplacianError(f"edge resistances on {n} nodes miss Foster's identity: "
                                 f"sum w Omega = {float(foster)!r}, not {want}")
        return omega

    def _factor_solve(self, b: np.ndarray) -> np.ndarray:
        """L^+ b for one or many finite columns b orthogonal to each component's ones vector."""
        factor, ground = self._factor
        rhs = b.copy(order="F")  # LAPACK's layout, so the solve overwrites it in place
        rhs[ground] = 0.0  # so the grounded nodes solve to 0
        x = cho_solve_banded((factor, True), rhs, overwrite_b=True, check_finite=False)
        return self._center(np.ascontiguousarray(x))  # rows contiguous for the sparse products

    def solve_orthogonal(self, b: np.ndarray, tol: float = DEFAULT_TOL,
                         start: np.ndarray | None = None
                         ) -> tuple[np.ndarray, SolveReport]:
        """Pseudo-inverse action v = L^+ b, for one vector b or each column of an n x k array.

        b is projected orthogonal to each component's ones vector first, and
        so is v. One price picks the backend of the whole call from b's
        non-zero columns, tol and whether the factor is built: the cached
        banded Cholesky factor, or Jacobi-preconditioned CG with the ones
        directions deflated, column by column, which stops a column after
        10 n iterations or at a search direction without positive curvature.
        One report covers every column: ``residual`` is the largest relative
        residual ||L v - b|| / ||b|| over components and columns, and
        ``iterations`` 0 on the factor and the CG total. A solve that misses
        tol raises LaplacianError naming its report: on CG when that residual
        exceeds tol, on the factor when the largest normwise backward error
        ||L v - b|| / (2 max(degree) ||v|| + ||b||) over components and
        columns does.

        ``start``, of b's shape, warm-starts CG: each column begins at the
        multiple of its start closest to L^+ b in the L-norm, one coefficient
        per component (0 where the start has no curvature), at the cost of one
        product that ``iterations`` does not count. A start that already meets
        tol returns after 0 iterations. On a CG iterate v started from x0 that
        way, b^T v >= (||x0||_L^2 + ||v - x0||_L^2) / 2, so v points the way a
        descent step needs at any tolerance; CG-path answers move only within
        tol. The factor ignores ``start``, so its answers are bit-identical.
        """
        b = np.asarray(b, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise LaplacianError("right-hand side is not finite")
        if start is not None:
            start = np.asarray(start, dtype=np.float64)
            if start.shape != b.shape or not np.all(np.isfinite(start)):
                raise LaplacianError("start must be finite and of the right-hand side's shape")
        b = self._center(b)
        k = np.count_nonzero(b.reshape(len(b), -1).any(axis=0))
        backend = "factor" if self._factor_pays(max(k, 1), tol) else "cg"
        if not k:
            return np.zeros_like(b), SolveReport(0, 0.0, backend)
        bnorm = self._norms(b)
        if backend == "factor":
            v = self._factor_solve(b)
            rnorm = self._norms(self.matrix @ v - b)
            # judged by the normwise backward error ||r|| / (||L|| ||v|| + ||b||) (Higham
            # 2002, section 7.1), with ||L|| <= 2 max degree: ||r|| / ||b|| has the rounding
            # floor of forming L v, which passes 1e-10 on 30k-node paths solved to rounding
            verdict = self._relative(rnorm, 2 * self.degree.max() * self._norms(v) + bnorm)
            report = SolveReport(0, self._relative(rnorm, bnorm), backend)
        else:
            columns = b.reshape(len(b), -1).T  # one row per column of b, or b itself
            starts = [None] * len(columns) if start is None else start.reshape(len(b), -1).T
            runs = [self._cg(col, tol, s) for col, s in zip(columns, starts)]
            v = np.stack([x for x, _, _ in runs], axis=-1).reshape(b.shape)
            verdict = max(r for _, _, r in runs)
            report = SolveReport(sum(it for _, it, _ in runs), verdict, backend)
        if not verdict <= tol:  # a NaN verdict misses too
            raise LaplacianError(
                f"Laplacian solve on {self.n} nodes did not reach {tol:g} ({report})")
        return v, report

    def _cg(self, b: np.ndarray, tol: float, start: np.ndarray | None
            ) -> tuple[np.ndarray, int, float]:
        """CG for L x = b on one centred vector b, from the L-norm-closest multiple of
        ``start`` (or from 0): x, the iterations and the relative residual."""
        bnorm = self._norms(b)
        if not np.any(bnorm):
            return np.zeros(self.n), 0, 0.0
        # a node without edges is a component of its own, where b and x are 0
        inv_diag = np.divide(1.0, self.degree, out=np.zeros(self.n), where=self.degree > 0)
        x = np.zeros(self.n)
        r = b.copy()
        if start is not None:
            # c = s^T b / s^T L s on each component minimizes ||c s - L^+ b||_L
            s = self._center(start)
            Ls = self.matrix @ s
            sb, curvature = self._component_sum @ (s * b), self._component_sum @ (s * Ls)
            c = np.divide(sb, curvature, out=np.zeros(self.ncomp),
                          where=curvature > 0)[self.components]
            if np.any(c):  # with every coefficient 0 the run is the cold one, bit for bit
                x = c * s
                r = b - c * Ls
        res = self._relative(self._norms(r), bnorm)
        if res <= tol:
            return self._center(x), 0, float(res)
        z = self._center(inv_diag * r)
        p = z.copy()
        rz = r @ z
        it = 0
        for it in range(1, 10 * self.n + 1):
            Ap = self.matrix @ p
            curvature = p @ Ap
            if not curvature > 0:
                break
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * Ap
            res = self._relative(self._norms(r), bnorm)
            if res <= tol:
                break
            z = self._center(inv_diag * r)
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        return self._center(x), it, float(res)

    def pinv_columns(self, nodes, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Columns L^+ e_k for k in ``nodes`` as an n x len(nodes) array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self._require_nodes(nodes)
        return self.solve_orthogonal(np.equal.outer(np.arange(self.n), nodes), tol)[0]

    def _require_nodes(self, nodes) -> None:
        nodes = np.asarray(nodes)
        if np.any(nodes < 0) or np.any(nodes >= self.n):
            raise LaplacianError(f"node ids must lie in 0..{self.n - 1}")

    def _require_same_component(self, k, ell) -> None:
        self._require_nodes(np.append(k, ell))
        if np.any(self.components[k] != self.components[ell]):
            raise LaplacianError("nodes in different components have no finite resistance")

    def effective_resistance(self, k: int, ell: int, tol: float = DEFAULT_TOL) -> float:
        """Omega_{k,l} = (e_k - e_l)^T L^+ (e_k - e_l), the one value of
        ``resistance_matrix([(k, l)], tol)``; 0 when k == l by convention."""
        (omega,) = self.resistance_matrix([(k, ell)], tol).values()
        return omega

    def resistance_matrix(self, pairs=None, tol: float = DEFAULT_TOL) -> dict[tuple[int, int], float]:
        """Batch effective resistances from one pseudo-inverse solve per involved node.

        ``pairs`` is an optional list of (k, l); default is all pairs. Node k's
        column is v_k = L^+ (e_k - e_g), with g the largest involved node of k's
        component: a right-hand side that is exactly mean-zero, where e_k alone
        would be centred with rounding, and 0 for g itself, so a lone pair
        solves one column. As e_k - e_l = (e_k - e_g) - (e_l - e_g), Omega_kl =
        (e_k - e_l)^T (v_k - v_l).
        """
        k, ell = _pair_table(self.n, pairs)
        omega = self._pair_columns(k, ell, tol)[0]
        return dict(zip(zip(k.tolist(), ell.tolist()), omega.tolist()))

    def _pair_columns(self, k: np.ndarray, ell: np.ndarray, tol: float = DEFAULT_TOL
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Omega of each pair, from the grounded columns v_j = L^+ (e_j - e_g) of the pairs'
        nodes as ``resistance_matrix`` describes them; and those columns, with the column of
        each pair's k and of its l, so that v_k - v_l = L^+ (e_k - e_l). A pair k != l whose
        largest column term exceeds CANCEL_LIMIT |Omega| raises LaplacianError."""
        self._require_same_component(k, ell)
        needed, at = np.unique(np.concatenate([k, ell]), return_inverse=True)
        ground = np.zeros(self.ncomp, dtype=np.int64)  # fancy assignment need not keep the last write
        np.maximum.at(ground, self.components[needed], needed)
        b = np.zeros((self.n, len(needed)))
        column = np.arange(len(needed))
        b[needed, column] = 1.0
        b[ground[self.components[needed]], column] -= 1.0  # 0 for g itself
        cols, ck, cl = self.solve_orthogonal(b, tol)[0], at[:len(k)], at[len(k):]
        terms = np.stack([cols[k, ck], cols[ell, ck], cols[k, cl], cols[ell, cl]])
        omega = terms[0] - terms[1] - terms[2] + terms[3]
        largest = np.abs(terms).max(axis=0)
        lost = np.flatnonzero((largest > CANCEL_LIMIT * np.abs(omega)) & (k != ell))
        if len(lost):
            a = lost[0]
            raise LaplacianError(f"the resistance of pair ({k[a]}, {ell[a]}) cancelled: its column "
                                 f"terms reach {largest[a]:.3e}, more than {CANCEL_LIMIT:g} times "
                                 f"Omega = {omega[a]:.3e}")
        return omega, cols, ck, cl
