"""Score estimation from pairwise comparisons under the Bradley-Terry-Luce
model: maximum likelihood with several solvers, a spectral (rank-centrality)
method, divide-and-conquer estimators over graph partitions, effective
resistances, error bounds, and a reproducible experiment harness.
"""

from .dc import (LocalEstimates, alignment_identity_residual, dc_community,
                 dc_overlap, local_estimates, merge_overlap, overlap_alignment)
from .estimators import (ConvergenceTrace, MleProblem, NonexistenceError,
                         SolverConfig, SolverError, SpectralResult,
                         closed_form_line, gradient, loss,
                         loss_and_gradient, mle_exists, solve_mle,
                         spectral_estimate, violating_partition)
from .experiments import (ExperimentConfig, TrialRecord, default_config,
                          run_experiment, trial_seed)
from .graphs import (ComparisonGraph, GraphError, GridSpec, Partition,
                     generate_grid, generate_special, grid_partition,
                     partition_grid)
from .laplacian import LaplacianError, LaplacianOperator, SolveReport
from .metrics import (BoundQuantities, PairwiseErrorReport, bound_quantities,
                      error_report, locality_bound)
from .model import (ComparisonData, ModelError, ScoreVector, dynamic_range,
                    exact_comparisons, logit, make_scores, oracle_laplacian,
                    sample_comparisons, sigmoid, sigmoid_derivative,
                    sigmoid_roots)

__version__ = "0.1.0"

__all__ = [
    "BoundQuantities", "ComparisonData", "ComparisonGraph",
    "ConvergenceTrace", "ExperimentConfig", "GraphError", "GridSpec",
    "LaplacianError", "LaplacianOperator", "LocalEstimates", "MleProblem",
    "ModelError", "NonexistenceError", "PairwiseErrorReport", "Partition",
    "ScoreVector", "SolveReport", "SolverConfig", "SolverError", "SpectralResult",
    "TrialRecord", "alignment_identity_residual", "bound_quantities",
    "closed_form_line", "dc_community", "dc_overlap", "default_config",
    "dynamic_range", "error_report", "exact_comparisons", "generate_grid",
    "generate_special", "gradient", "grid_partition", "local_estimates",
    "locality_bound", "logit", "loss", "loss_and_gradient", "make_scores",
    "merge_overlap", "mle_exists", "oracle_laplacian", "overlap_alignment",
    "partition_grid", "run_experiment", "sample_comparisons",
    "sigmoid", "sigmoid_derivative", "sigmoid_roots", "solve_mle",
    "spectral_estimate", "trial_seed", "violating_partition",
]
