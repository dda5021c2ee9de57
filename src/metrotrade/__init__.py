"""Precision/accuracy trade-off toolkit for phase estimation at finite
sample budgets.

The package answers one question from several angles: given n repetitions
of a binary-outcome probe measurement, how small a phase signal can be
*reliably* distinguished from the working point, and what does chasing
resolution past that floor cost in accuracy?

Modules
    sampling    deterministic counter-based outcome sampling
    estimation  bias/variance reports for the standard phase estimator
    bounds      distinguishability thresholds and trade-off bounds
    resources   entangled vs separable scaling of the detection floor
    basis       measurement-direction optimization
    verify      self-contained invariant suite (also `metrotrade verify`)

`import metrotrade` loads none of them: a public name, or a module read as
an attribute (`metrotrade.verify`), loads its module on first use.
"""

import importlib

__version__ = "0.1.0"

# The public API: each module with the names it exports here.
_EXPORTS = {
    "basis": ("MeasurementBasis", "basis_snr", "find_optimal_basis"),
    "bounds": ("accuracy_of", "critical_fidelity", "inherent_precision",
               "min_detectable_signal", "povm_statistics"),
    "errors": ("BranchError", "BudgetError", "UnreachableSignalError"),
    "estimation": ("EstimatorReport", "ReportMode", "classical_fisher_values",
                   "exact_bias_report", "monte_carlo_report"),
    "resources": ("ScalingReport", "StrategyConfig", "StrategyKind", "fit_scaling",
                  "strategy_min_signal", "strategy_signal_noise"),
    "sampling": ("EXACT_ENUM_LIMIT", "OutcomeStats", "binary_stats", "enumerate_binomial"),
    "verify": ("CheckResult", "format_report", "run_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "svgchart"}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """A submodule, or a public name loaded from its module and kept here."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
