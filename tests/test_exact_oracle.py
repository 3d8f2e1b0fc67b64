"""Exact-data oracle: with y_ij = sigmoid(theta_i - theta_j) on every edge the MLE
is the truth itself, and so is the spectral chain's stationary distribution."""

import numpy as np
import pytest

from btlrank import (GridSpec, LaplacianOperator, MleProblem, SolverConfig, dc_community,
                     dc_overlap, exact_comparisons, generate_grid, grid_partition,
                     make_scores, solve_mle, spectral_estimate)
from btlrank.dc import _union

# grid2d side 24, r=4: the 8x8 windows give dc unions with a band of 32, so their
# local solves run on the banded factor. Tolerances are about three times the
# largest linf error measured over graph seeds 1-3: gd 3.8e-9, cd 2.9e-9,
# precond_gd 6.9e-10 and pgd 1.1e-9 (grad_tol_factor 1e-12); dc_overlap 8.3e-7 and
# dc_community 6.6e-7 (local solves at the default 1e-8).
SPEC = GridSpec(kind="grid2d", n=24 * 24, r=4, p=0.8)
SOLVER_TOL = {"gd": 1e-8, "cd": 1e-8, "precond_gd": 2e-9, "pgd": 3e-9}
DC_TOL = 2.5e-6
# grid1d n=120, r=5, sine, in the same way: gd 9.6e-9 (12.3-12.9k iterations), cd
# 7.9e-9 (2,237-2,346 sweeps), precond_gd 1.7e-10 and pgd 7.2e-10 (grad_tol_factor
# 1e-12, max_iter 20000); dc_overlap 2.7e-7 and dc_community 2.1e-7
SPEC_1D = GridSpec(kind="grid1d", n=120, r=5, p=0.8)
SOLVER_TOL_1D = {"gd": 3e-8, "cd": 2.5e-8, "precond_gd": 5e-10, "pgd": 2e-9}
DC_TOL_1D = 8e-7


def exact_instance(spec, score_kind):
    graph = generate_grid(spec, L=50, rng=np.random.default_rng(2))
    truth = make_scores(score_kind, spec.n, spec.r)
    return graph, exact_comparisons(graph, truth), truth.values


@pytest.fixture(scope="module")
def instance():
    return exact_instance(SPEC, "linear2d")


@pytest.fixture(scope="module")
def instance_1d():
    return exact_instance(SPEC_1D, "sine")


def linf(values, truth):
    return float(np.abs(values - values.mean() - (truth - truth.mean())).max())


def solver_error(instance, spec, method, max_iter):
    graph, data, truth = instance
    partition = grid_partition(spec, "overlapping") if method == "pgd" else None
    config = SolverConfig(method=method, grad_tol_factor=1e-12, max_iter=max_iter,
                          partition=partition)
    scores, trace = solve_mle(MleProblem(graph, data), config)
    assert trace.converged
    return linf(scores.values, truth)


def dc_errors(instance, spec):
    graph, data, truth = instance
    overlap, _, _ = dc_overlap(graph, data, grid_partition(spec, "overlapping"))
    community, _, _ = dc_community(graph, data, grid_partition(spec, "disjoint"))
    return linf(overlap.values, truth), linf(community.values, truth)


def test_dc_unions_take_the_banded_factor(instance):
    graph, data, _ = instance
    for mode in ("overlapping", "disjoint"):
        problem = _union(graph, data, grid_partition(SPEC, mode))
        u = problem.graph
        op = LaplacianOperator(u.n, u.edge_i, u.edge_j, np.ones(u.num_edges))
        assert op.factored and op.band >= 24, mode


@pytest.mark.parametrize("method", sorted(SOLVER_TOL))
def test_mle_solvers_recover_the_truth(instance, method):
    # pgd needs about 700 iterations, past its default budget of 500
    assert solver_error(instance, SPEC, method, 5000) <= SOLVER_TOL[method]


@pytest.mark.parametrize("method", sorted(SOLVER_TOL_1D))
def test_1d_mle_solvers_recover_the_truth(instance_1d, method):
    # cd run to convergence checks its prepared root solves end to end
    assert solver_error(instance_1d, SPEC_1D, method, 20000) <= SOLVER_TOL_1D[method]


def test_divide_and_conquer_recovers_the_truth(instance):
    assert max(dc_errors(instance, SPEC)) <= DC_TOL


def test_1d_divide_and_conquer_recovers_the_truth(instance_1d):
    assert max(dc_errors(instance_1d, SPEC_1D)) <= DC_TOL_1D


def test_spectral_recovers_the_truth_or_says_it_failed(instance):
    # the default 300 iterations stop short here (measured: failed, 7e-2 off); 2000
    # converge after about 1400 to 5.4e-11
    graph, data, truth = instance
    converged = []
    for budget in (300, 2000):
        result = spectral_estimate(graph, data, max_iter=budget)
        if result.converged and not result.failed:
            assert linf(result.theta.values, truth) <= 1e-10, budget
            converged.append(budget)
    assert converged  # the accuracy branch ran


def test_1d_spectral_says_it_failed_until_it_converges(instance_1d):
    # measured on graph seeds 1-3: not converged after 2000 iterations, 2e-2 off
    graph, data, truth = instance_1d
    for budget in (300, 2000):
        result = spectral_estimate(graph, data, max_iter=budget)
        if result.converged:
            assert not result.failed and linf(result.theta.values, truth) <= 1e-10, budget
        else:
            assert result.failed, budget
