"""Effective resistances of comparison graphs and why they matter.

The per-pair estimation error of the maximum-likelihood scores scales like
the square root of the effective resistance between the two items in a
weighted Laplacian. This script checks the textbook series and parallel
rules, then shows the resistance across a locality grid growing linearly
with n / r^2, which is exactly the regime where long-range comparisons get
hard.
"""

import numpy as np

from btlrank import GridSpec, LaplacianOperator, generate_grid

# series rule: a path of unit resistors adds them up
path = LaplacianOperator(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
print(f"path 0-1-2-3, unit weights: Omega(0,3) = "
      f"{path.effective_resistance(0, 3):.6f} (expect 3)")

# parallel rule: conductances add, so two unit edges halve the resistance
par = LaplacianOperator(2, [0, 0], [1, 1], [1.0, 1.0])
print(f"doubled edge: Omega(0,1) = {par.effective_resistance(0, 1):.6f} "
      f"(expect 0.5)")

# resistance across 1D locality grids: fixed radius r, growing n.
# with unit edge weights the end-to-end resistance grows like n / r^2,
# which is the extra price of comparing items that are never matched
# directly and only connected through long chains of neighbors
r = 4
print(f"\nend-to-end resistance on 1D grids with radius r = {r}:")
print(f"{'n':>6} {'Omega(0,n-1)':>14} {'Omega r^2 / n':>14}")
for n in (32, 64, 128, 256):
    graph = generate_grid(GridSpec(kind="grid1d", n=n, r=r, p=1.0))
    op = LaplacianOperator(n, graph.edge_i, graph.edge_j, np.ones(graph.num_edges))
    omega = op.effective_resistance(0, n - 1)
    print(f"{n:>6} {omega:>14.4f} {omega * r * r / n:>14.4f}")

# batch interface: all resistances from node 0 on a small grid
graph = generate_grid(GridSpec(kind="grid1d", n=12, r=2, p=1.0))
op = LaplacianOperator(12, graph.edge_i, graph.edge_j, np.ones(graph.num_edges))
table = op.resistance_matrix(pairs=[(0, k) for k in range(1, 12)])
vals = [table[(0, k)] for k in range(1, 12)]
print("\nOmega(0,k) on a 12-node grid, r = 2:")
print("  " + "  ".join(f"{v:.3f}" for v in vals))
print("resistance is non-decreasing in distance, as it should be:",
      bool(np.all(np.diff(vals) >= -1e-12)))
