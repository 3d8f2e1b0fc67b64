"""Per-pair error bounds and the finite-MLE existence check.

First part: for each node pair, the concentration bound B scales like
sqrt(effective resistance), so pairs far apart on a locality grid get
proportionally weaker guarantees. Sampling many trials shows the observed
per-pair errors tracking (and staying below) the bound.

Second part: the MLE is finite exactly when every group of items records
at least one win against the rest. An item that loses every comparison
pushes its score to minus infinity; the solver detects this and reports
the offending node set instead of iterating forever.
"""

import numpy as np

from btlrank import (ComparisonData, GridSpec, MleProblem, NonexistenceError,
                     bound_quantities, error_report, generate_grid,
                     generate_special, make_scores, mle_exists,
                     sample_comparisons, solve_mle)

rng = np.random.default_rng(11)
n, r, L = 48, 6, 200
spec = GridSpec(kind="grid1d", n=n, r=r, p=1.0)
graph = generate_grid(spec, L=L, rng=rng)
truth = make_scores("sine", n, r)

pairs = [(0, 3), (0, 12), (0, 24), (0, 47)]
bq = bound_quantities(graph, truth, delta=0.1, pairs=pairs)
# the theorem's condition Q <= 4B, checked on the edges by passing them as pairs
edge_pairs = np.column_stack([graph.edge_i, graph.edge_j])
edges = bound_quantities(graph, truth, delta=0.1, pairs=edge_pairs)
print(f"kappa_E = {bq.kappa_E:.3f}, Q <= 4B on every edge: "
      f"{bool(np.all(edges.Q <= 4.0 * edges.B + 1e-12))}")

trials = 40
errs = np.zeros((trials, len(pairs)))
for t in range(trials):
    data = sample_comparisons(graph, truth, rng)
    scores, _ = solve_mle(MleProblem(graph, data))
    errs[t] = error_report(scores, truth, pairs=pairs).pair_errors

print(f"\n{'pair':>10} {'omega':>8} {'bound B':>9} {'mean err':>9} "
      f"{'max err':>9}")
for k, (pair, o, b) in enumerate(zip(pairs, bq.omega, bq.B)):
    print(f"{str(pair):>10} {o:>8.3f} {b:>9.3f} {errs[:, k].mean():>9.3f} "
          f"{errs[:, k].max():>9.3f}")

# existence: force the first node of a line graph to lose everything
graph = generate_special("line", n=5, L=4)
wins = np.where(graph.edge_i == 0, 0.0, graph.counts / 2.0)
data = ComparisonData(graph, wins)
print(f"\nMLE exists for the all-losses instance: {mle_exists(MleProblem(graph, data))}")
try:
    solve_mle(MleProblem(graph, data))
except NonexistenceError as e:
    print(f"solver refused: {e}")
    print(f"violating node set: {e.nodes.tolist()}")
