"""Race the MLE solvers on one instance and compare convergence speed.

All methods minimize the same convex negative log-likelihood, but their
per-iteration progress differs wildly. Preconditioned gradient descent with
a Laplacian solve per step converges in a handful of iterations; projected
gradient descent over overlapping windows takes tens; plain gradient
descent with the safe small step needs thousands. Each trace records the
distance to a high-accuracy reference solution so the paths are directly
comparable.
"""

import numpy as np

from btlrank import (GridSpec, MleProblem, SolverConfig, generate_grid,
                     grid_partition, make_scores, sample_comparisons,
                     solve_mle)

rng = np.random.default_rng(5)
n, r, p, L = 80, 8, 0.9, 40
spec = GridSpec(kind="grid1d", n=n, r=r, p=p)
graph = generate_grid(spec, L=L, rng=rng)
truth = make_scores("sine", n, r)
data = sample_comparisons(graph, truth, rng)
problem = MleProblem(graph, data)

# high-accuracy reference for the distance traces
reference, _ = solve_mle(problem, SolverConfig(grad_tol_factor=1e-12))
ref = reference.values

eta_small = 1.0 / (r * p * L)  # safe step for plain gradient descent
part = grid_partition(spec, "overlapping")

TARGET = 1e-6  # declare victory at this linf distance to the reference


def first_below(trace):
    for it, d in zip(trace.iterations, trace.ref_linf):
        if d <= TARGET:
            return it
    return None


runs = [
    ("precond-oracle", SolverConfig(oracle_scores=truth, reference=ref)),
    ("precond-lg", SolverConfig(reference=ref)),
    ("cd", SolverConfig(method="cd", grad_tol_factor=1e-12,
                       reference=ref)),
    ("gd-small", SolverConfig(method="gd", step_size=eta_small,
                              grad_tol_factor=1e-12, reference=ref)),
    ("pgd", SolverConfig(method="pgd", step_size=eta_small, max_iter=5000,
                         grad_tol_factor=1e-12, partition=part, reference=ref)),
]

print(f"{'method':>16} {'iters to 1e-6':>14} {'final linf':>12}")
for name, config in runs:
    _, trace = solve_mle(problem, config)
    hit = first_below(trace)
    print(f"{name:>16} {str(hit) if hit is not None else 'never':>14} "
          f"{trace.ref_linf[-1]:>12.2e}")

# gradient descent with a step far above the curvature limit diverges
_, bad = solve_mle(problem, SolverConfig(method="gd", step_size=50 * eta_small,
                                         max_iter=200, reference=ref))
print(f"\ngd with a 50x step after 200 iterations: "
      f"loss {bad.losses[-1]:.3e} (diverged: {bad.losses[-1] > bad.losses[0]})")
