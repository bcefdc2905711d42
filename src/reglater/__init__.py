"""Regress-Later / Regress-Now least squares Monte Carlo on an orthonormal
piecewise-linear sieve basis, with a convergence-rate experiment harness.

Only the error classes load with the package.  Every other public name, and
every submodule, is imported on first access (PEP 562), so validating a
config (``reglater.config``) never loads the sweep engine (``harness``).
"""
import importlib

from .errors import (BasisConstructionError, ConfigurationError, ReglaterError,
                     SamplingError, UnsupportedOracleError)

__version__ = "0.1.0"

_ERRORS = ("BasisConstructionError", "ConfigurationError", "ReglaterError",
           "SamplingError", "UnsupportedOracleError")

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "basis": ("ApproxErrorMoments", "SieveBasis", "approx_error_moments",
              "bin_central_moments", "bin_quadrature", "build_basis", "h_tilde",
              "projection_coefficients"),
    "condexp": ("BrownianTransition", "basis_condexp", "condexp_estimate"),
    "config": ("ExperimentConfig",),
    "distributions": ("TruncatedNormal",),
    "harness": ("ConvergenceReport", "PairedReport", "fit_loglog_slope",
                "now_vs_later_compare", "run_fixed_K", "run_growing_K"),
    "model": ("FeatureSpec", "SampleSet", "simulate_conditional", "truncated_feature_law"),
    "payoff": ("PayoffSpec", "eval_payoff", "oracle_conditional"),
    "regress": ("coefficient_error", "predict", "regress_later_fit", "regress_now_fit"),
    "tree": ("basket_tree_expectations", "basket_tree_expectations_from_leaves",
             "basket_tree_leaf_enumeration"),
}.items() for name in names}

_SUBMODULES = ("_kernels", "_normal", "basis", "cli", "condexp", "config", "distributions",
               "errors", "harness", "model", "payoff", "regress", "rng", "svgplot", "tree")

__all__ = sorted((*_ERRORS, *_EXPORTS))


def __getattr__(name: str):
    if name in _EXPORTS:  # not cached here: the name stays its module's attribute
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
