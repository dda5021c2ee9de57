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
import os

__version__ = "0.1.0"

# The most threads that draw Monte Carlo chunks (sampling.count_histogram),
# and the most processes that format a CSV mesh (cli._mesh_text).
_MC_WORKERS = 4


def _mc_workers():
    """Workers for a Monte Carlo pool or a CSV mesh: the CPUs this process
    may run on, at most _MC_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_MC_WORKERS, cpus)

# The public API: each module with the names it exports here.
_EXPORTS = {
    "basis": ("MeasurementBasis", "classical_fisher_values", "find_optimal_basis"),
    "bounds": ("accuracy_of", "critical_fidelity", "inherent_precision",
               "min_detectable_signal", "povm_statistics"),
    "estimation": ("EstimatorReport", "exact_bias_report", "monte_carlo_report"),
    "resources": ("ScalingReport", "StrategyKind", "fit_scaling",
                  "quantum_fisher_information", "strategy_signal_noise"),
    "sampling": ("binomial_weights",),
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
