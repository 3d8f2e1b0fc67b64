"""Reference computations and output checks for the benchmark.

Nothing in this file imports btlrank. Gradients, the exact MLE, effective
resistances and pseudo-inverses are computed from the raw edge arrays with
numpy and scipy, so a check fails when the code under test is wrong rather
than agreeing with itself.

Edge arrays follow the CSV convention: ``ei < ej``, ``counts`` comparisons
per edge and ``wins`` of them won by ``ei``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.special import expit

# The gradient tolerance per comparison that precond_gd promised when this
# benchmark was defined; a later default change must not loosen the check.
GRAD_TOL_FACTOR = 1e-8
ZERO_SUM_TOL = 1e-9  # per node, as in the zero-sum gauge of ScoreVector
RESISTANCE_RTOL = 1e-6
OMEGA_RTOL = 1e-6
ALIGNMENT_TOL = 1e-8
EXACT_GRAD_FACTOR = 1e-10  # Newton stops at this gradient norm per comparison


def gradient(n, ei, ej, counts, wins, theta):
    """Gradient of the negative log-likelihood, by bincount scatter."""
    coef = counts * expit(theta[ei] - theta[ej]) - wins
    return np.bincount(ei, coef, n) - np.bincount(ej, coef, n)


def neg_log_likelihood(ei, ej, counts, wins, theta):
    d = theta[ei] - theta[ej]
    return float((counts * np.logaddexp(0.0, d) - wins * d).sum())


def _grounded_band(n, ei, ej, w):
    """Upper band storage of the Laplacian with node 0's row and column removed."""
    u = max(int((ej - ei).max()), 1)
    ab = np.zeros((u + 1, n - 1))
    keep = ei > 0
    np.add.at(ab[u], ei[keep] - 1, w[keep])
    np.add.at(ab[u], ej - 1, w)
    np.add.at(ab, (u - (ej[keep] - ei[keep]), ej[keep] - 1), -w[keep])
    return ab


def grounded_solver(n, ei, ej, w):
    """Direct solver of L x = b for b summing to zero, with x[0] = 0.

    A banded Cholesky factorization of the grounded Laplacian; grid graphs
    in row-major order have bandwidth r (1D) or r * side (2D).
    """
    factor = cholesky_banded(_grounded_band(n, ei, ej, w))

    def solve(b):
        b = np.asarray(b, dtype=np.float64)
        x = np.zeros(b.shape)
        x[1:] = cho_solve_banded((factor, False), b[1:])
        return x

    return solve


def resistances(n, ei, ej, w, pairs):
    """Effective resistances of the weighted graph for the given node pairs."""
    solve = grounded_solver(n, ei, ej, w)
    rhs = np.zeros((n, len(pairs)))
    for col, (k, l) in enumerate(pairs):
        rhs[k, col] += 1.0
        rhs[l, col] -= 1.0
    x = solve(rhs)
    return {(k, l): float(x[k, col] - x[l, col]) for col, (k, l) in enumerate(pairs)}


def dense_omega(n, ei, ej, w, k, l):
    """Omega_kl from a dense pseudo-inverse of the weighted Laplacian."""
    lap = np.zeros((n, n))
    np.add.at(lap, (ei, ei), w)
    np.add.at(lap, (ej, ej), w)
    np.add.at(lap, (ei, ej), -w)
    np.add.at(lap, (ej, ei), -w)
    pinv = np.linalg.pinv(lap, hermitian=True)
    return float(pinv[k, k] + pinv[l, l] - 2.0 * pinv[k, l])


def oracle_weights(ei, ej, counts, theta):
    """Hessian weights L_ij sigma'(theta_i - theta_j) at the given scores."""
    s = expit(theta[ei] - theta[ej])
    return counts * s * (1.0 - s)


def exact_mle(n, ei, ej, counts, wins, theta0, max_iter=60):
    """Damped Newton to the unique MLE, certified by its own gradient norm.

    The start only changes how many steps are needed: the loss is strictly
    convex in the zero-sum gauge, so every start ends at the same point.
    """
    theta = np.array(theta0, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        theta = np.zeros(n)
    tol = EXACT_GRAD_FACTOR * float(counts.sum())
    for _ in range(max_iter):
        g = gradient(n, ei, ej, counts, wins, theta)
        if np.linalg.norm(g) <= tol:
            return theta - theta.mean()
        step = grounded_solver(n, ei, ej, oracle_weights(ei, ej, counts, theta))(g - g.mean())
        f0 = neg_log_likelihood(ei, ej, counts, wins, theta)
        t = 1.0
        # rounding dominates the loss change near the optimum, hence the slack
        while (neg_log_likelihood(ei, ej, counts, wins, theta - t * step)
               > f0 + 1e-12 * abs(f0) and t > 1e-6):
            t *= 0.5
        theta = theta - t * step
    raise RuntimeError("reference Newton did not reach its gradient tolerance")


def linf_error(theta, truth):
    """Gauge-invariant max-norm error after centering both vectors."""
    return float(np.abs((theta - theta.mean()) - (truth - truth.mean())).max())


def rms_error(theta, truth):
    """Gauge-invariant root-mean-square error after centering both vectors."""
    return float(np.sqrt(np.mean(((theta - theta.mean()) - (truth - truth.mean())) ** 2)))


def check_scores(theta, n):
    """Finite, of length n and zero-sum. Returns (ok, detail)."""
    if theta.shape != (n,):
        return False, f"length {theta.shape} != {n}"
    if not np.all(np.isfinite(theta)):
        return False, "non-finite scores"
    if abs(theta.sum()) > ZERO_SUM_TOL * n:
        return False, f"sum {theta.sum():.2e} violates the zero-sum gauge"
    return True, "finite, zero-sum"


def check_kkt(theta, n, ei, ej, counts, wins):
    """check_scores plus ||grad||_2 <= GRAD_TOL_FACTOR * total comparisons."""
    ok, detail = check_scores(theta, n)
    if not ok:
        return ok, detail
    gnorm = float(np.linalg.norm(gradient(n, ei, ej, counts, wins, theta)))
    tol = GRAD_TOL_FACTOR * float(counts.sum())
    return gnorm <= tol, f"gradient norm {gnorm:.3e} (tolerance {tol:.3e})"


def check_resistances(got, expected):
    """Same pairs, each within RESISTANCE_RTOL relative of the reference."""
    if set(got) != set(expected):
        return False, f"pairs {sorted(got)} != {sorted(expected)}"
    worst = max(abs(got[p] - expected[p]) / abs(expected[p]) for p in expected)
    return worst <= RESISTANCE_RTOL, f"worst relative error {worst:.2e}"


def check_omega(got, expected):
    rel = abs(got - expected) / abs(expected)
    return rel <= OMEGA_RTOL, f"omega {got:.6g} vs dense pinv {expected:.6g} (rel {rel:.1e})"


def check_alignment(residual):
    ok = bool(np.isfinite(residual)) and residual <= ALIGNMENT_TOL
    return ok, f"alignment identity residual {residual:.2e}"


SWEEP_ORDER = ("precond-oracle", "precond-lg", "pgd", "gd-small")


def check_sweep(records):
    """No failed record, and median iterations oracle <= LG < pgd < gd-small."""
    failed = [r.method for r in records if r.failed]
    if failed:
        return False, f"failed records: {failed}"
    med = {m: float(np.median([r.iterations for r in records if r.method == m]))
           for m in SWEEP_ORDER}
    reached = all(v >= 0 for v in med.values())
    a, b, c, d = (med[m] for m in SWEEP_ORDER)
    ok = reached and a <= b < c < d
    return ok, f"median iterations oracle {a:g} <= LG {b:g} < pgd {c:g} < gd-small {d:g}"
