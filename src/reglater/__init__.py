"""Regress-Later / Regress-Now least squares Monte Carlo on an orthonormal
piecewise-linear sieve basis, with a convergence-rate experiment harness."""

from ._kernels import BACKEND as kernel_backend
from .basis import (ApproxErrorMoments, BinPartition, SieveBasis, approx_error_moments,
                    bin_moments, build_basis, build_partition, gram_diagnostics, h_tilde,
                    projection_coefficients, quadrature_gram)
from .condexp import (BrownianTransition, GbmTransition, TransferSpec, basis_condexp,
                      condexp_estimate, jensen_check)
from .distributions import DistSpec, Empirical, TruncatedNormal, Uniform
from .errors import (BasisConstructionError, ConfigurationError, DegenerateDesignError,
                     JensenViolationError, ReglaterError, SamplingError,
                     UnsupportedOracleError)
from .harness import (ConvergenceReport, ExperimentConfig, PairedReport, fit_loglog_slope,
                      now_vs_later_compare, run_fixed_K, run_growing_K)
from .model import (Domain, FeatureSpec, ProcessSpec, SampleSet, basket_tree_expectations,
                    basket_tree_expectations_from_leaves, basket_tree_leaf_enumeration,
                    central_domain, simulate_conditional, simulate_path_integral,
                    simulate_terminal, truncated_feature_law)
from .payoff import OracleSpec, PayoffSpec, eval_payoff, oracle_conditional
from .regress import (FitResult, NowDiagnostics, coefficient_error, predict,
                      regress_later_fit, regress_now_fit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
