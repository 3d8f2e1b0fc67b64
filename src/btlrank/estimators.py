"""MLE objective and solvers, the spectral method, and the existence check."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import ComparisonGraph
from .laplacian import LaplacianOperator
from .model import ComparisonData, ScoreVector, logit, sigmoid, sigmoid_derivative


class NonexistenceError(ValueError):
    """The MLE has no finite minimizer; carries one violating node set."""

    def __init__(self, message: str, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class MleProblem:
    """MLE instance: a comparison graph, win data, and optional per-edge weights.

    Weights default to 1; the projected-gradient subproblems use fractional
    weights to avoid double-counting shared edges.
    """

    graph: ComparisonGraph
    data: ComparisonData
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", np.ones(self.graph.num_edges))
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if np.any(w <= 0) or len(w) != self.graph.num_edges:
                raise ValueError("weights must be positive, one per edge")
            object.__setattr__(self, "weights", w)

    @property
    def edge_scale(self) -> np.ndarray:
        return self.weights * self.graph.counts

    @property
    def total_samples(self) -> float:
        return float(self.edge_scale.sum())


@dataclass
class SolverConfig:
    method: str = "precond_gd"  # gd | cd | precond_gd | pgd
    step_size: float | None = None
    max_iter: int | None = None
    grad_tol_factor: float = 1e-8  # gradient 2-norm tolerance = factor * total samples
    preconditioner: str = "quarter_LG"  # oracle_Lz | surrogate_LG | quarter_LG
    oracle_scores: ScoreVector | None = None  # required by oracle_Lz
    partition: object = None  # required by pgd
    reference: np.ndarray | None = None  # optional solution for trace distances

    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 100_000 if self.method in ("gd", "cd") else 500


@dataclass
class ConvergenceTrace:
    method: str
    iterations: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    ref_linf: list[float] = field(default_factory=list)
    converged: bool = False

    def record(self, t: int, loss_value: float, grad_norm: float, ref_err: float | None):
        self.iterations.append(t)
        self.losses.append(loss_value)
        self.grad_norms.append(grad_norm)
        if ref_err is not None:
            self.ref_linf.append(ref_err)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            cols = "iteration,loss,grad_norm" + (",ref_linf" if self.ref_linf else "")
            f.write(cols + "\n")
            for k in range(len(self.iterations)):
                row = f"{self.iterations[k]},{self.losses[k]!r},{self.grad_norms[k]!r}"
                if self.ref_linf:
                    row += f",{self.ref_linf[k]!r}"
                f.write(row + "\n")


def loss(problem: MleProblem, theta: np.ndarray) -> float:
    """Negative log-likelihood sum_e w_e L_e (-y_e d_e + log(1 + exp(d_e)))."""
    g = problem.graph
    d = theta[g.edge_i] - theta[g.edge_j]
    terms = problem.edge_scale * (-problem.data.y * d + np.logaddexp(0.0, d))
    return float(terms.sum())


def gradient(problem: MleProblem, theta: np.ndarray) -> np.ndarray:
    g = problem.graph
    d = theta[g.edge_i] - theta[g.edge_j]
    coef = problem.edge_scale * (sigmoid(d) - problem.data.y)
    return np.bincount(g.edge_i, coef, g.n) - np.bincount(g.edge_j, coef, g.n)


def hessian(problem: MleProblem, theta: np.ndarray) -> LaplacianOperator:
    g = problem.graph
    d = theta[g.edge_i] - theta[g.edge_j]
    w = problem.edge_scale * sigmoid_derivative(d)
    return LaplacianOperator(g.n, g.edge_i, g.edge_j, w)


def _win_digraph(problem: MleProblem) -> csr_matrix:
    g = problem.graph
    wins = problem.data.wins
    rows, cols = [], []
    fwd = wins > 0  # i beat j at least once
    bwd = wins < g.counts  # j beat i at least once
    rows.extend(g.edge_i[fwd])
    cols.extend(g.edge_j[fwd])
    rows.extend(g.edge_j[bwd])
    cols.extend(g.edge_i[bwd])
    data = np.ones(len(rows))
    return coo_matrix((data, (rows, cols)), shape=(g.n, g.n)).tocsr()


def mle_exists(problem: MleProblem) -> bool:
    """Finite unique minimizer iff the directed win graph is strongly connected."""
    if problem.graph.n == 1:
        return True
    adj = _win_digraph(problem)
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    return ncomp == 1


def violating_partition(problem: MleProblem) -> np.ndarray:
    """A node set with no recorded win over its complement (sink component)."""
    adj = _win_digraph(problem)
    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    if ncomp == 1:
        raise ValueError("MLE exists; no violating partition")
    # find a strongly connected component with no outgoing arcs
    rows, cols = adj.nonzero()
    outgoing = set()
    for r, c in zip(labels[rows], labels[cols]):
        if r != c:
            outgoing.add(int(r))
    for comp in range(ncomp):
        if comp not in outgoing:
            return np.nonzero(labels == comp)[0]
    raise AssertionError("condensation of a digraph always has a sink")


def _default_step(problem: MleProblem) -> float:
    # gradient is (max weighted degree / 2)-Lipschitz; stay well inside
    g, scale = problem.graph, problem.edge_scale
    deg = np.bincount(g.edge_i, scale, g.n) + np.bincount(g.edge_j, scale, g.n)
    return 2.0 / float(deg.max())


def _preconditioner(problem: MleProblem, config: SolverConfig) -> LaplacianOperator:
    g = problem.graph
    scale = problem.edge_scale
    if config.preconditioner == "oracle_Lz":
        if config.oracle_scores is None:
            raise SolverError("oracle_Lz preconditioner needs oracle scores")
        theta = config.oracle_scores.values
        z = sigmoid_derivative(theta[g.edge_i] - theta[g.edge_j])
        return LaplacianOperator(g.n, g.edge_i, g.edge_j, scale * z)
    if config.preconditioner == "surrogate_LG":
        return LaplacianOperator(g.n, g.edge_i, g.edge_j, scale)
    if config.preconditioner == "quarter_LG":
        return LaplacianOperator(g.n, g.edge_i, g.edge_j, 0.25 * scale)
    raise SolverError(f"unknown preconditioner {config.preconditioner!r}")


class _CdWorkspace:
    """Per-node adjacency view for cyclic coordinate descent."""

    def __init__(self, problem: MleProblem):
        g = problem.graph
        y = problem.data.y
        scale = problem.edge_scale
        nbr: list[list[int]] = [[] for _ in range(g.n)]
        yor: list[list[float]] = [[] for _ in range(g.n)]
        wl: list[list[float]] = [[] for _ in range(g.n)]
        for e in range(g.num_edges):
            i, j = int(g.edge_i[e]), int(g.edge_j[e])
            nbr[i].append(j)
            yor[i].append(y[e])
            wl[i].append(scale[e])
            nbr[j].append(i)
            yor[j].append(1.0 - y[e])
            wl[j].append(scale[e])
        self.nbr = [np.array(v, dtype=np.int64) for v in nbr]
        self.yor = [np.array(v) for v in yor]
        self.wl = [np.array(v) for v in wl]

    def minimize_coordinate(self, theta: np.ndarray, i: int) -> float:
        """Exact 1D Newton with a bisection safeguard on the monotone gradient."""
        nbr, yor, wl = self.nbr[i], self.yor[i], self.wl[i]
        if len(nbr) == 0:
            return theta[i]
        tj = theta[nbr]
        target = wl @ yor
        t = theta[i]
        lo, hi = None, None
        for _ in range(100):
            s = sigmoid(t - tj)
            gval = wl @ s - target
            if abs(gval) <= 1e-14 * (abs(target) + 1.0):
                return t
            if gval > 0:
                hi = t
            else:
                lo = t
            gprime = wl @ (s * (1.0 - s))
            step = gval / gprime
            t_new = t - step
            if lo is not None and hi is not None and not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            elif not np.isfinite(t_new):
                t_new = t - np.sign(gval) * 1.0
            if abs(t_new - t) <= 1e-14 * (abs(t) + 1.0):
                return t_new
            t = t_new
        return t


def solve_mle(problem: MleProblem, config: SolverConfig | None = None,
              theta0: np.ndarray | None = None) -> tuple[ScoreVector, ConvergenceTrace]:
    """Minimize the negative log-likelihood with the configured method.

    Methods: gd (vanilla step), cd (cyclic exact coordinate updates, n
    updates per iteration), precond_gd (Laplacian-preconditioned step),
    pgd (projected gradient descent over a subgraph re-parameterization).
    Returns the zero-sum-gauged solution plus a per-iteration trace.
    """
    config = config or SolverConfig()
    if not mle_exists(problem):
        nodes = violating_partition(problem)
        raise NonexistenceError(
            f"MLE does not exist: nodes {nodes.tolist()} never recorded a win "
            "over their complement", nodes=nodes)
    if config.method == "pgd":
        from .dc import pgd_solve

        if config.partition is None:
            raise SolverError("pgd needs a partition")
        eta = config.step_size if config.step_size is not None else _default_step(problem)
        return pgd_solve(problem.graph, problem.data, config.partition, eta=eta,
                         max_iter=config.resolved_max_iter(),
                         theta0=theta0,
                         grad_tol_factor=config.grad_tol_factor,
                         reference=config.reference)

    n = problem.graph.n
    theta = np.zeros(n) if theta0 is None else np.array(theta0, dtype=np.float64)
    tol = config.grad_tol_factor * problem.total_samples
    max_iter = config.resolved_max_iter()
    trace = ConvergenceTrace(method=config.method)
    ref = config.reference

    def ref_err(th):
        if ref is None:
            return None
        d = (th - th.mean()) - (ref - ref.mean())
        return float(np.abs(d).max())

    if config.method == "gd":
        eta = config.step_size if config.step_size is not None else _default_step(problem)
        for t in range(max_iter + 1):
            g = gradient(problem, theta)
            gn = float(np.linalg.norm(g))
            lv = loss(problem, theta)
            trace.record(t, lv, gn, ref_err(theta))
            if not np.isfinite(lv) or not np.isfinite(gn):
                break
            if gn <= tol:
                trace.converged = True
                break
            if t == max_iter:
                break
            theta = theta - eta * g
    elif config.method == "precond_gd":
        eta = config.step_size if config.step_size is not None else 1.0
        pre = _preconditioner(problem, config)
        for t in range(max_iter + 1):
            g = gradient(problem, theta)
            gn = float(np.linalg.norm(g))
            trace.record(t, loss(problem, theta), gn, ref_err(theta))
            if gn <= tol:
                trace.converged = True
                break
            if t == max_iter:
                break
            v, report = pre.solve_orthogonal(g)
            if not report.converged:
                raise SolverError("preconditioner solve failed to converge")
            theta = theta - eta * v
    elif config.method == "cd":
        ws = _CdWorkspace(problem)
        for t in range(max_iter + 1):
            g = gradient(problem, theta)
            gn = float(np.linalg.norm(g))
            trace.record(t, loss(problem, theta), gn, ref_err(theta))
            if gn <= tol:
                trace.converged = True
                break
            if t == max_iter:
                break
            for i in range(n):
                theta[i] = ws.minimize_coordinate(theta, i)
    else:
        raise SolverError(f"unknown method {config.method!r}")

    return ScoreVector.zero_sum(theta), trace


def closed_form_line(problem: MleProblem) -> ScoreVector:
    """Exact MLE on a path graph by telescoping per-edge logits."""
    g = problem.graph
    expected = list(zip(range(g.n - 1), range(1, g.n)))
    actual = sorted(zip(g.edge_i.tolist(), g.edge_j.tolist()))
    if actual != expected:
        raise ValueError("closed form requires the path 0-1-...-(n-1)")
    y = problem.data.y
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise NonexistenceError("unanimous edge on the path; MLE diverges")
    order = np.argsort(g.edge_i)
    gaps = -logit(y[order])  # theta_{k+1} - theta_k = logit(y_{k+1,k})
    theta = np.concatenate([[0.0], np.cumsum(gaps)])
    return ScoreVector.zero_sum(theta)


@dataclass(frozen=True)
class SpectralResult:
    pi: np.ndarray
    theta: ScoreVector
    failed: bool  # numerical failure: underflow or unresolved small entries
    iterations: int
    converged: bool = True  # residual tolerance reached within the budget
    underflow: bool = False  # some pi entry below 1e-300; theta has -inf


DEFAULT_SPECTRAL_MAX_ITER = 300


def spectral_estimate(graph: ComparisonGraph, data: ComparisonData,
                      d: float | None = None, tol: float = 1e-13,
                      max_iter: int = DEFAULT_SPECTRAL_MAX_ITER) -> SpectralResult:
    """Rank-centrality estimate: stationary distribution of the comparison chain.

    P_ij = y_ji / d for neighbors, diagonal fills the remainder. The default
    d = 1 + max degree keeps every diagonal entry nonnegative. Power
    iteration runs until the l1 stationarity residual drops below ``tol``
    or the iteration budget is exhausted. Resolving stationary entries that
    are exponentially smaller than the largest one needs a number of
    iterations proportional to the log-dynamic-range, so on wide-range
    inputs the default budget leaves those entries inflated; this numerical
    failure is reported honestly via ``failed`` (never masked), as is
    outright underflow of pi entries.
    """
    n = graph.n
    deg = graph.degrees()
    if d is None:
        d = 1.0 + float(deg.max())
    y = data.y
    rows = np.concatenate([graph.edge_i, graph.edge_j])
    cols = np.concatenate([graph.edge_j, graph.edge_i])
    vals = np.concatenate([(1.0 - y) / d, y / d])  # P[i,j] = y_ji / d
    diag = 1.0 - np.asarray(
        coo_matrix((vals, (rows, cols)), shape=(n, n)).sum(axis=1)).ravel()
    if np.any(diag < -1e-12):
        raise SolverError("d too small: negative diagonal in the transition matrix")
    diag = np.clip(diag, 0.0, None)
    P = coo_matrix((np.concatenate([vals, diag]),
                    (np.concatenate([rows, np.arange(n)]),
                     np.concatenate([cols, np.arange(n)]))), shape=(n, n)).tocsr()
    support = P.copy()
    support.setdiag(0)
    support.eliminate_zeros()
    ncomp, _ = connected_components(support, directed=True, connection="strong")
    if ncomp != 1:
        raise SolverError("comparison chain is reducible; no unique stationary distribution")
    Pt = P.T.tocsr()
    pi = np.full(n, 1.0 / n)
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        nxt = Pt @ pi
        nxt /= nxt.sum()
        residual = np.abs(nxt - pi).sum()
        pi = nxt
        if residual <= tol:
            converged = True
            break
    underflow = bool(pi.min() < 1e-300)
    failed = underflow or not converged
    with np.errstate(divide="ignore"):
        theta = np.log(pi)
    finite = np.isfinite(theta)
    theta = theta - theta[finite].mean()
    if underflow:
        return SpectralResult(pi, ScoreVector(theta, gauge="raw"), failed, it,
                              converged=converged, underflow=True)
    return SpectralResult(pi, ScoreVector.zero_sum(theta), failed, it,
                          converged=converged, underflow=False)
