"""The paper's headline claim: the MLE's entrywise error meets the Cramér-Rao bound.

The bound on Var(theta_k - theta_l) is the effective resistance Omega*_kl in the
Fisher-information Laplacian, the Hessian at the true scores. Over T seeded
trials a variance ratio has sampling error about sqrt(2/T), and the bands below
are set from that, not from seeds that pass. The ratios, the bias and the
coverage are written to the real stdout, so they stay visible under capture.
"""

import sys

import numpy as np
import pytest

from btlrank import (GridSpec, MleProblem, dc_overlap, generate_grid, grid_partition,
                     make_scores, oracle_laplacian, sample_comparisons, solve_mle)

TRIALS = 400
SD_RATIO = np.sqrt(2.0 / TRIALS)  # sampling error of a variance ratio, 0.071
SD_COVER = np.sqrt(0.95 * 0.05 / TRIALS)  # binomial sd of a 95% coverage, 0.011


@pytest.mark.parametrize("kind, n, r, scores, seed", [
    ("grid1d", 120, 5, "sine", 11),
    ("grid2d", 144, 2, "linear2d", 12),
])
def test_mle_variance_meets_the_cramer_rao_bound(kind, n, r, scores, seed):
    spec = GridSpec(kind=kind, n=n, r=r, p=0.8)
    rng = np.random.default_rng(seed)
    graph = generate_grid(spec, L=50, rng=rng)
    truth = make_scores(scores, n, r)
    partition = grid_partition(spec, "overlapping")
    pairs = [(0, n // 4), (0, n // 2), (0, n - 1)]
    k, ell = np.array(pairs).T
    omega_star = oracle_laplacian(graph, truth).resistance_matrix(pairs)
    omega_star = np.array([omega_star[pair] for pair in pairs])
    true_diff = truth.values[k] - truth.values[ell]

    diffs = {"precond_gd": [], "dc_overlap": []}
    covered = np.zeros(len(pairs))
    for _ in range(TRIALS):
        data = sample_comparisons(graph, truth, rng)
        theta, trace = solve_mle(MleProblem(graph, data))
        assert trace.converged
        diff = theta.values[k] - theta.values[ell]
        diffs["precond_gd"].append(diff)
        omega_hat = oracle_laplacian(graph, theta).resistance_matrix(pairs)
        covered += np.abs(diff - true_diff) <= 1.96 * np.sqrt([omega_hat[p] for p in pairs])
        merged = dc_overlap(graph, data, partition)[0].values
        diffs["dc_overlap"].append(merged[k] - merged[ell])

    for method, d in diffs.items():
        d = np.array(d)
        ratio = d.var(axis=0, ddof=1) / omega_star
        bias = (d.mean(axis=0) - true_diff) / d.std(axis=0, ddof=1)
        sys.__stdout__.write(f"cramer-rao {kind} {method}: variance / Omega* "
                             f"{np.round(ratio, 3).tolist()}, bias / sd "
                             f"{np.round(bias, 3).tolist()}\n")
        assert np.all(ratio >= 1 - 4 * SD_RATIO), (method, ratio)
        # the paper promises divide and conquer only "similar" guarantees
        assert np.all(ratio <= (1 + 4 * SD_RATIO if method == "precond_gd" else 2.0)), \
            (method, ratio)
    coverage = covered / TRIALS
    sys.__stdout__.write(f"cramer-rao {kind} precond_gd: plug-in 95% interval coverage "
                         f"{coverage.tolist()}\n")
    assert np.all(np.abs(coverage - 0.95) <= 4 * SD_COVER), coverage
