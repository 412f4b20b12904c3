"""Spectral gaps and Hoeffding-type concentration bounds for
continuous-time Markov chains, with exact-simulation verification.

The three layers:

* exact linear algebra — generators, stationary laws, spectral gaps,
  collapsed finite approximations of countable chains, skeleton kernels;
* certified tail bounds driven by the gap;
* Monte Carlo verification that the bounds hold on simulated paths.

Importing the package loads no NumPy or SciPy: each public name below is
imported from its module on first access (PEP 562), so ``ctmcgap.cli``
can parse its arguments, and refuse bad ones, before the numeric stack
loads.
"""

import importlib

# module -> the public names it defines; the one list of the package's API
_EXPORTS = {
    "bounds": ("LezaudComparison", "VerificationReport", "VerificationRow",
               "ctmc_hoeffding_bound", "density_pnorm", "lezaud_bound",
               "nu_initial_bound", "verify"),
    "errors": ("ExplosionGuardError", "InvalidInputError",
               "NumericalFailureError"),
    "generator": ("GeneratorMatrix", "ObservableFunction",
                  "StationaryDistribution", "ValidationReport",
                  "additive_symmetrization", "build_birth_death",
                  "build_three_state", "load_model", "load_observable",
                  "parse_model", "parse_observable",
                  "stationary_distribution", "validate_generator"),
    "simulate": ("TailEstimate", "TrajectorySample", "clopper_pearson_upper",
                 "sample_path", "substream", "tail_probability_mc"),
    "skeleton": ("DtmcGapReport", "SkeletonRow", "SkeletonTable",
                 "StochasticMatrix", "dtmc_hoeffding_bound",
                 "dtmc_spectral_gap", "skeleton_gap_check",
                 "transition_matrix_exp"),
    "spectral": ("BirthDeathBoundReport", "CertificateReport",
                 "SpectralReport", "bd_closed_form_gap", "bd_lower_bound",
                 "dirichlet_form", "drift_certificate_check",
                 "rayleigh_quotient", "spectral_gap", "symmetrized_form"),
    "truncation": ("CollapsedModel", "CountableModel", "GapSweep",
                   "collapse", "collapse_function", "gap_convergence_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import a public name's module on first access and keep the value."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
