"""Spectral-truncation regularization for a backward parabolic problem
with a nonlinear source and a future-time memory term."""

from .bounds import (BoundInputs, DominanceReport, DominanceSample, check_dominance,
                     log_noise_bound, log_truncation_bound, noise_bound, total_bound,
                     truncation_bound)
from .errors import (ConfigError, ExponentOverflowError, FvptruncError, NonConvergenceError,
                     ReferenceRejectedError)
from .grids import TimeGrid, Trajectory
from .harness import (HOLDER_RULE, LOG_RULE, ExperimentConfig, ExperimentReport,
                      ExperimentRow, RateFit, add_noise, fit_rate, run_experiment)
from .param_choice import LevelChoice, choose_level
from .problem import FvpInstance, SourceFunction
from .quadrature import backward_cumulative, exp_kernel_profile
from .reference import (IllposedPair, LinearModeRoots, ReferenceSolution,
                        closed_form_solution, combined_closed_form, illposed_pair,
                        mode_coefficient, mode_roots, self_convergent_reference)
from .solver import (PicardResult, SolverConfig, fixed_point_defect, fixed_point_map,
                     picard_solve)
from .spectral import EigenModel, GevreyParams, SpectralField, gevrey_norm, l2_norm

__version__ = "0.1.0"

__all__ = [
    "BoundInputs", "ConfigError", "DominanceReport",
    "DominanceSample", "EigenModel", "ExperimentConfig", "ExperimentReport",
    "ExperimentRow", "ExponentOverflowError", "FvpInstance", "FvptruncError",
    "GevreyParams", "HOLDER_RULE", "IllposedPair", "LOG_RULE", "LevelChoice",
    "LinearModeRoots", "NonConvergenceError", "PicardResult",
    "RateFit", "ReferenceRejectedError", "ReferenceSolution", "SolverConfig",
    "SourceFunction", "SpectralField", "TimeGrid", "Trajectory",
    "add_noise", "backward_cumulative",
    "check_dominance", "choose_level",
    "closed_form_solution", "combined_closed_form",
    "exp_kernel_profile", "fit_rate", "fixed_point_defect",
    "fixed_point_map", "gevrey_norm", "illposed_pair",
    "l2_norm", "log_noise_bound",
    "log_truncation_bound", "mode_coefficient", "mode_roots", "noise_bound",
    "picard_solve", "run_experiment", "self_convergent_reference", "total_bound",
    "truncation_bound",
]
