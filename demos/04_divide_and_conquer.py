"""Divide-and-conquer estimation on locality grids and community graphs.

Two stitching strategies are shown. On a 1D grid the items are covered by
overlapping windows, each window gets its own local MLE, and the shared
nodes pin down per-window shifts through a small Laplacian solve. On a
graph with two dense communities and sparse cross edges, the blocks are
disjoint and the relative shift is recovered from the cross comparisons
alone. Both come close to the global MLE at a fraction of the work.
"""

import numpy as np

from btlrank import (GridSpec, MleProblem, Partition, dc_community,
                     dc_overlap, error_report, generate_grid,
                     generate_special, locality_bound, make_scores,
                     partition_grid, sample_comparisons, solve_mle)

rng = np.random.default_rng(21)

# overlapping windows on a 1D grid
n, r, p, L = 240, 12, 0.8, 40
spec = GridSpec(kind="grid1d", n=n, r=r, p=p)
graph = generate_grid(spec, L=L, rng=rng)
truth = make_scores("sine", n, r)
data = sample_comparisons(graph, truth, rng)

part, sg = partition_grid(graph, spec, "overlapping")
print(f"grid: n = {n}, {part.m} windows of width {2 * r}, "
      f"{sg.nnz} super-edges")

merged, local, shifts = dc_overlap(graph, data, part)
mle, _ = solve_mle(MleProblem(graph, data))
print(f"error vs truth:  dc-overlap {error_report(merged, truth).linf:.4f}, "
      f"global mle {error_report(mle, truth).linf:.4f}")
print(f"dc-overlap vs global mle: {error_report(merged, mle).linf:.4f}")
print(f"closed-form locality rate: {locality_bound('grid1d', n, r, p, L):.4f}")

# disjoint communities stitched through cross comparisons
rng = np.random.default_rng(22)
cgraph = generate_special("er", rng=rng, n=60, p=0.4, L=40)
ctruth = make_scores("sine", 60, 8)
cdata = sample_comparisons(cgraph, ctruth, rng)
cpart = Partition(subsets=[np.arange(30), np.arange(30, 60)],
                  mode="disjoint", n=60)

cmerged, _, cshifts = dc_community(cgraph, cdata, cpart)
cmle, _ = solve_mle(MleProblem(cgraph, cdata))
print(f"\ncommunities: dc-community linf vs truth "
      f"{error_report(cmerged, ctruth).linf:.4f}, "
      f"global mle {error_report(cmle, ctruth).linf:.4f}")
print(f"recovered relative shift between blocks: "
      f"{cshifts.shifts[1] - cshifts.shifts[0]:+.4f}")
