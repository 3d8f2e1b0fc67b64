"""MLE objective and solvers, the spectral method, and the existence check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import ComparisonGraph, _components, write_csv
from .model import (ComparisonData, ScoreVector, SigmoidRoots, SolverError, _require_own_graph,
                    fisher_laplacian, logit)

# Relative residual of the precond_gd search direction. The step only has to
# point downhill. CG starts each step at x0, the L-norm-closest multiple of the
# previous direction, and returns v = x0 + y with y a CG iterate from 0 on the
# residual system; then g^T x0 = ||x0||_L^2 and g^T y = ||y||_L^2 + x0^T L y,
# so g^T v >= (||x0||_L^2 + ||y||_L^2) / 2 > 0 at any tolerance. An inner
# residual below 1 keeps the linear rate of inexact Newton methods (Dembo,
# Eisenstat & Steihaug 1982). The outer stop test reads the true gradient, so
# no estimate loosens.
SEARCH_TOL = 1e-2


class NonexistenceError(ValueError):
    """The MLE has no finite minimizer; carries one violating node set and, from divide
    and conquer, the tuple of partition subsets where an estimate diverges."""

    def __init__(self, message: str, nodes=None, subsets=None):
        super().__init__(message)
        self.nodes = nodes
        self.subsets = subsets


@dataclass(frozen=True)
class MleProblem:
    """MLE instance: a comparison graph and its win data.

    ``blocks`` labels the nodes 0..m-1 of a problem that is m independent
    MLEs side by side, with no edge between two blocks. The MLE then
    exists when every block's does, and each block stops on its own
    gradient; without it the problem is one block.
    """

    graph: ComparisonGraph
    data: ComparisonData
    blocks: np.ndarray | None = None

    def __post_init__(self):
        _require_own_graph(self.graph, self.data)
        if self.blocks is not None:
            blocks = np.asarray(self.blocks, dtype=np.int64)
            g = self.graph
            if (len(blocks) != g.n or blocks.min() < 0 or not np.all(np.bincount(blocks))
                    or np.any(blocks[g.edge_i] != blocks[g.edge_j])):
                raise ValueError("blocks must label the nodes 0..m-1, no edge joining two")
            object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return 1 if self.blocks is None else int(self.blocks.max()) + 1

    @cached_property
    def _counts(self) -> np.ndarray:
        # converted once: an int64 operand would cost the per-iteration kernels a cast per call
        return self.graph.counts.astype(np.float64)


@dataclass
class SolverConfig:
    method: str = "precond_gd"  # gd | cd | precond_gd | pgd
    step_size: float | None = None
    max_iter: int | None = None
    grad_tol_factor: float = 1e-8  # gradient 2-norm tolerance = factor * total samples
    oracle_scores: ScoreVector | None = None  # precond_gd takes the Hessian here, else at 0
    partition: object = None  # required by pgd
    reference: np.ndarray | None = None  # optional solution for trace distances

    def __post_init__(self):
        methods = ["gd", "cd", "precond_gd", "pgd"]
        if self.method not in methods:
            raise ValueError(f"unknown method {self.method!r}; choose from {methods}")
        # each of these would run without an error and return no answer, or climb the loss
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, not {self.max_iter}")
        if self.step_size is not None and not (math.isfinite(self.step_size)
                                               and self.step_size > 0):
            raise ValueError(f"step_size must be finite and positive, not {self.step_size}")
        if not (math.isfinite(self.grad_tol_factor) and self.grad_tol_factor >= 0):
            raise ValueError("grad_tol_factor must be finite and non-negative, "
                             f"not {self.grad_tol_factor}")

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
    block_stop_iter: np.ndarray | None = None  # iteration each block stopped at, -1 if never
    # precond_gd only: the search-direction solve of the step taken after each
    # iteration, so one entry fewer than ``iterations``
    inner_iters: list[int] = field(default_factory=list)
    inner_residual: list[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:  # the iteration cap came before the gradient tolerance
        return not self.converged

    @property
    def reason(self) -> str:
        """The failure in words; empty for a run that converged."""
        return "" if self.converged else "hit the iteration cap before the gradient tolerance"

    def record(self, t: int, loss_value: float, grad_norm: float, ref_err: float | None):
        self.iterations.append(t)
        self.losses.append(loss_value)
        self.grad_norms.append(grad_norm)
        if ref_err is not None:
            self.ref_linf.append(ref_err)

    def to_csv(self, path) -> None:
        """One row per iteration; the inner-solve columns, when present, are blank on
        the last row, which takes no step."""
        columns = {"iteration": self.iterations, "loss": self.losses, "grad_norm": self.grad_norms}
        if self.ref_linf:
            columns["ref_linf"] = self.ref_linf
        if self.inner_iters:
            columns.update(inner_iters=self.inner_iters, inner_residual=self.inner_residual)
        # the inner-solve columns are one entry short; zip_longest pads them with None (blank)
        write_csv(path, list(columns), zip_longest(*columns.values()))


def loss_and_gradient(problem: MleProblem, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log-likelihood sum_e L_e (-y_e d_e + log(1 + exp(d_e))) and its
    gradient, from one pass over the edges.

    With d = theta_i - theta_j and e = exp(-|d|), log(1 + exp(d)) is
    max(d, 0) + log1p(e) and sigmoid(d) is max(e, d >= 0) / (1 + e): as e <= 1,
    the numerator is 1 for d >= 0 and e below. Neither overflows. ``loss`` and
    ``gradient`` return one part each.

    The steps run in place in four edge-length arrays (d, e, the terms and a
    scratch one), in the operation order of L * ((max(d, 0) + log1p(e)) - y * d)
    and L * (max(e, d >= 0) / (1 + e) - y), so the result is that expression's
    bit for bit.
    """
    g = problem.graph
    counts, y = problem._counts, problem.data.y
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.take(g.edge_i)
    work = theta.take(g.edge_j)
    d -= work
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    terms = np.maximum(d, 0.0)
    terms += np.log1p(e, out=work)
    terms -= np.multiply(y, d, out=work)
    terms *= counts
    value = float(terms.sum())
    coef = np.maximum(e, d >= 0, out=terms)  # the sigmoid's numerator
    e += 1.0
    coef /= e
    coef -= y
    coef *= counts
    grad = np.bincount(g.edge_i, coef, g.n)
    grad -= np.bincount(g.edge_j, coef, g.n)
    return value, grad


def loss(problem: MleProblem, theta: np.ndarray) -> float:
    """Negative log-likelihood sum_e L_e (-y_e d_e + log(1 + exp(d_e)))."""
    return loss_and_gradient(problem, theta)[0]


def gradient(problem: MleProblem, theta: np.ndarray) -> np.ndarray:
    return loss_and_gradient(problem, theta)[1]


def _win_components(problem: MleProblem) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Strong components of the win digraph, which has an arc i -> j when i beat j.

    A two-way edge (0 < wins < L) is a pair of opposite arcs, so the pieces that
    the two-way edges join are strongly connected, and only one-way arcs run
    between pieces. The components are therefore those of the small digraph the
    one-way arcs draw between the pieces. Returns their number, the component of
    each node, and the components of the winner and of the loser of each one-way
    arc that joins two pieces.
    """
    g = problem.graph
    wins = problem.data.wins
    two_way = (wins > 0) & (wins < g.counts)
    npiece, piece = g.n, np.arange(g.n)  # the pieces when no edge is two-way
    if two_way.any():
        npiece, piece = _components(g.n, g.edge_i[two_way], g.edge_j[two_way])
    i_won = wins[~two_way] > 0  # i won every comparison, else j did
    ei, ej = g.edge_i[~two_way], g.edge_j[~two_way]
    winner, loser = piece[np.where(i_won, ei, ej)], piece[np.where(i_won, ej, ei)]
    between = winner != loser
    winner, loser = winner[between], loser[between]
    if not len(winner):  # no arc between pieces: each piece is a component
        return npiece, piece, winner, loser
    # repeated arcs are summed when the search converts the COO input to CSR
    arcs = coo_matrix((np.ones(len(winner)), (winner, loser)), shape=(npiece, npiece))
    ncomp, comp = connected_components(arcs, connection="strong")
    return ncomp, comp[piece], comp[winner], comp[loser]


def mle_exists(problem: MleProblem) -> bool:
    """Finite unique minimizer iff the directed win graph is strongly connected.

    With blocks: iff each block is, that is, the graph has one strong
    component per block.
    """
    return _win_components(problem)[0] == problem.num_blocks


def violating_partition(problem: MleProblem) -> np.ndarray:
    """A node set with no recorded win over its complement (a sink component).

    With blocks, the set lies in the lowest-numbered block whose MLE does not
    exist. Of the strong components there that record no win over the rest of
    the block, it is the one holding the lowest-numbered node.
    """
    ncomp, comp, winner, loser = _win_components(problem)
    m = problem.num_blocks
    if ncomp == m:
        raise ValueError("MLE exists; no violating partition")
    wins_out = np.bincount(winner[winner != loser], minlength=ncomp) > 0
    block = np.zeros(ncomp, dtype=np.int64)
    if problem.blocks is not None:
        block[comp] = problem.blocks  # no arc joins two blocks, so neither does a component
    split = np.bincount(block, minlength=m) > 1
    nodes = np.flatnonzero(split[block[comp]] & ~wins_out[comp])  # in sinks of split blocks
    first = nodes[np.argmin(block[comp[nodes]])]  # argmin takes the lowest node of that block
    return np.flatnonzero(comp == comp[first])


def _why_no_mle(graph: ComparisonGraph, nodes: np.ndarray, rest: str) -> str:
    """Why violating set ``nodes`` has no MLE: it was never compared with the rest of
    its block (no edge leaves it), or it never beat that rest."""
    inside = np.zeros(graph.n, dtype=bool)
    inside[nodes] = True
    if np.any(inside[graph.edge_i] != inside[graph.edge_j]):
        return "never recorded a win over their complement"
    return f"were never compared with the rest of the {rest}"


def _require_mle(problem: MleProblem) -> None:
    """Raise NonexistenceError, naming a violating node set, unless the MLE exists."""
    if not mle_exists(problem):
        nodes = violating_partition(problem)
        raise NonexistenceError(f"MLE does not exist: nodes {nodes.tolist()} "
                                f"{_why_no_mle(problem.graph, nodes, 'graph')}", nodes=nodes)


def _default_step(problem: MleProblem) -> float:
    # gradient is (max weighted degree / 2)-Lipschitz; stay well inside
    g = problem.graph
    deg = np.bincount(g.edge_i, g.counts, g.n) + np.bincount(g.edge_j, g.counts, g.n)
    return 2.0 / float(deg.max())


def _colour_classes(graph: ComparisonGraph) -> list[np.ndarray]:
    """Greedy proper colouring in node order, as one sorted node array per colour."""
    # row j lists the neighbours i < j (edge_i < edge_j), the ones coloured before j
    lower = csr_matrix((np.ones(graph.num_edges), (graph.edge_j, graph.edge_i)),
                       shape=(graph.n, graph.n))
    colour = np.zeros(graph.n, dtype=np.int64)
    for j in range(graph.n):
        taken = set(colour[lower.indices[lower.indptr[j]:lower.indptr[j + 1]]].tolist())
        colour[j] = next(c for c in range(len(taken) + 1) if c not in taken)
    return [np.nonzero(colour == c)[0] for c in range(colour.max() + 1)]


def _cd_sweep(problem: MleProblem):
    """Step that minimizes exactly over each colour class in turn.

    Nodes of one class share no edge, so their coordinate minimizers are
    independent and one root solve finds all of them. Each class's solve is
    prepared once, with its neighbour index stored in the solver's term order.
    """
    g = problem.graph
    node = np.concatenate([g.edge_i, g.edge_j])  # half-edges node -> nbr
    nbr = np.concatenate([g.edge_j, g.edge_i])
    w = np.concatenate([g.counts, g.counts])
    y = problem.data.y
    wins = np.bincount(node, w * np.concatenate([y, 1.0 - y]), g.n)
    classes = []
    for nodes in _colour_classes(g):
        h = np.nonzero(np.isin(node, nodes))[0]
        nodes = np.unique(node[h])  # a node without edges has no coordinate minimizer
        roots = SigmoidRoots(np.searchsorted(nodes, node[h]), w[h], wins[nodes], len(nodes))
        classes.append((nodes, nbr[h][roots.order], roots))

    def step(theta, _g):
        theta = theta.copy()
        for nodes, nb, roots in classes:
            theta[nodes] = roots(-theta[nb], x0=theta[nodes])
        return theta

    return step


def descend(problem: MleProblem, step, method: str, max_iter: int, grad_tol_factor: float,
            reference: np.ndarray | None) -> tuple[ScoreVector, ConvergenceTrace]:
    """The descent loop every MLE solver shares: theta <- step(theta, gradient), from 0.

    Records loss, gradient norm and, with a reference, the gauge-free
    linf distance to it on every iteration, and stops once the gradient
    2-norm is at most grad_tol_factor times the total sample count or
    after max_iter steps. A non-finite loss or gradient raises SolverError.

    A problem with blocks applies the stop test to each block, with its
    own gradient and sample count; a block that has stopped no longer
    moves, and ``trace.block_stop_iter`` says at which iteration each block
    stopped (-1 for a block that never did).
    """
    n = problem.graph.n
    theta = np.zeros(n)
    blocks = problem.blocks
    if blocks is None:
        tol = grad_tol_factor * problem.graph.total_samples
    else:
        m = problem.num_blocks
        tol = grad_tol_factor * np.bincount(blocks[problem.graph.edge_i], problem.graph.counts, m)
        moving = np.ones(m, dtype=bool)
        stopped_at = np.full(m, -1)
    trace = ConvergenceTrace(method=method)
    if reference is not None:
        reference = reference - reference.mean()
    # a diverging step overflows quietly; the finiteness test reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(max_iter + 1):
            lv, g = loss_and_gradient(problem, theta)
            gn = math.sqrt(g @ g)  # what np.linalg.norm computes for a 1-D float64 array
            if not (math.isfinite(lv) and math.isfinite(gn)):
                raise SolverError(f"{method} diverged at iteration {t}: "
                                  "non-finite loss or gradient")
            ref_err = None
            if reference is not None:
                x = theta - theta.sum() / n  # sum / n is theta.mean() bit for bit
                x -= reference
                ref_err = float(np.abs(x, out=x).max())
            trace.record(t, lv, gn, ref_err)
            if blocks is None:
                stop = gn <= tol
            else:
                moving &= np.sqrt(np.bincount(blocks, g * g, m)) > tol
                stopped_at[~moving & (stopped_at < 0)] = t
                stop = not moving.any()
            if stop:
                trace.converged = True
                break
            if t < max_iter:
                if blocks is None:
                    theta = step(theta, g)
                else:
                    # a zero gradient keeps a stopped block still under gd and precond_gd;
                    # the outer mask holds it for steps that ignore the gradient (cd)
                    here = moving[blocks]
                    theta = np.where(here, step(theta, np.where(here, g, 0.0)), theta)
    if blocks is not None:
        trace.block_stop_iter = stopped_at
    return ScoreVector.zero_sum(theta), trace


def solve_mle(problem: MleProblem, config: SolverConfig | None = None
              ) -> tuple[ScoreVector, ConvergenceTrace]:
    """Minimize the negative log-likelihood with the configured method.

    Methods: gd (vanilla step), cd (exact coordinate updates, cyclic over
    colour classes), precond_gd (step preconditioned by the Hessian at
    ``config.oracle_scores``, or at 0 without them), pgd (projected
    gradient descent over a subgraph re-parameterization). All run through
    ``descend``. Returns the zero-sum-gauged solution plus a per-iteration
    trace.
    """
    config = config or SolverConfig()
    _require_mle(problem)
    if config.method in ("gd", "pgd"):
        eta = config.step_size if config.step_size is not None else _default_step(problem)
    if config.method == "gd":
        def step(theta, g):
            return theta - eta * g
    elif config.method == "pgd":
        from .dc import pgd_step

        if config.partition is None:
            raise SolverError("pgd needs a partition")
        if problem.blocks is not None:
            raise SolverError("pgd solves one problem, not blocks")
        step = pgd_step(problem, config.partition, eta)
    elif config.method == "precond_gd":
        eta = config.step_size if config.step_size is not None else 1.0
        oracle = config.oracle_scores  # the Hessian there, or at 0 (L_G/4) without them
        pre = fisher_laplacian(problem.graph, None if oracle is None else oracle.values)
        reports, v = [], None

        def step(theta, g):
            nonlocal v  # successive gradients point almost the same way; start from the last step
            v, report = pre.solve_orthogonal(g, tol=SEARCH_TOL, start=v)
            reports.append(report)
            return theta - eta * v
    else:  # cd
        step = _cd_sweep(problem)
    scores, trace = descend(problem, step, config.method, config.resolved_max_iter(),
                            config.grad_tol_factor, config.reference)
    if config.method == "precond_gd":
        trace.inner_iters = [r.iterations for r in reports]
        trace.inner_residual = [r.residual for r in reports]
    return scores, trace


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
    theta: ScoreVector  # raw gauge after an underflow
    iterations: int
    converged: bool  # residual tolerance reached within the budget
    underflow: bool  # some pi entry below 1e-300; theta may have -inf

    @property
    def failed(self) -> bool:  # numerical failure: underflow or unresolved small entries
        return self.underflow or not self.converged

    @property
    def reason(self) -> str:
        """The failure in words; empty for a run that did not fail."""
        if self.underflow:
            return "stationary distribution underflow; log-scores may contain -inf"
        return "" if self.converged else ("small stationary entries not resolved "
                                          "within the iteration budget")


DEFAULT_SPECTRAL_MAX_ITER = 300


def spectral_estimate(graph: ComparisonGraph, data: ComparisonData, tol: float = 1e-13,
                      max_iter: int = DEFAULT_SPECTRAL_MAX_ITER) -> SpectralResult:
    """Rank-centrality estimate: stationary distribution of the comparison chain.

    P_ij = y_ji / d for neighbors, diagonal fills the remainder; d = 1 + max
    degree leaves every diagonal entry at least 1/d. The chain moves i -> j
    only where j beat i, so it is irreducible exactly when the win digraph
    is strongly connected, that is, when the MLE exists; otherwise it raises
    NonexistenceError with a violating node set, as ``solve_mle`` does. Power
    iteration runs until the largest per-entry relative change of one step,
    max_i |pi'_i - pi_i| / pi'_i, drops below ``tol`` or the iteration
    budget is exhausted; an l1 residual would stop while entries far below
    ``tol`` are still moving. Resolving stationary entries that
    are exponentially smaller than the largest one needs a number of
    iterations proportional to the log-dynamic-range, so on wide-range
    inputs the default budget leaves those entries inflated; this numerical
    failure is reported honestly via ``failed`` and ``reason`` (never
    masked), as is outright underflow of pi entries.
    """
    n = graph.n
    _require_mle(MleProblem(graph, data))
    d = 1.0 + float(graph.degrees().max())
    y = data.y
    rows = np.concatenate([graph.edge_i, graph.edge_j, np.arange(n)])
    cols = np.concatenate([graph.edge_j, graph.edge_i, np.arange(n)])
    vals = np.concatenate([(1.0 - y) / d, y / d])  # P[i,j] = y_ji / d
    vals = np.concatenate([vals, 1.0 - np.bincount(rows[:len(vals)], vals, n)])  # the diagonal
    Pt = csr_matrix((vals, (cols, rows)), shape=(n, n))  # P^T; CSR sorts each row's columns
    pi = np.full(n, 1.0 / n)
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        nxt = Pt @ pi
        nxt /= nxt.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = (np.abs(nxt - pi) / nxt).max()
        pi = nxt
        if residual <= tol:
            converged = True
            break
    underflow = bool(pi.min() < 1e-300)
    with np.errstate(divide="ignore"):
        theta = np.log(pi)
    finite = np.isfinite(theta)
    theta = theta - theta[finite].mean()
    scores = ScoreVector(theta, gauge="raw") if underflow else ScoreVector.zero_sum(theta)
    return SpectralResult(pi, scores, it, converged, underflow)
