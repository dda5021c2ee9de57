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
"""

from .basis import (
    MeasurementBasis,
    basis_snr,
    find_optimal_basis,
)
from .bounds import (
    accuracy_of,
    critical_fidelity,
    inherent_precision,
    min_detectable_signal,
    povm_statistics,
)
from .errors import BranchError, BudgetError, UnreachableSignalError
from .estimation import (
    EstimatorReport,
    ReportMode,
    classical_fisher_values,
    exact_bias_report,
    monte_carlo_report,
)
from .resources import (
    ScalingReport,
    StrategyConfig,
    StrategyKind,
    fit_scaling,
    strategy_min_signal,
    strategy_signal_noise,
)
from .sampling import (
    EXACT_ENUM_LIMIT,
    OutcomeStats,
    binary_stats,
    enumerate_binomial,
)
from .verify import CheckResult, format_report, run_all

__version__ = "0.1.0"

__all__ = [
    "BranchError",
    "BudgetError",
    "CheckResult",
    "EstimatorReport",
    "EXACT_ENUM_LIMIT",
    "MeasurementBasis",
    "OutcomeStats",
    "ReportMode",
    "ScalingReport",
    "StrategyConfig",
    "StrategyKind",
    "UnreachableSignalError",
    "accuracy_of",
    "basis_snr",
    "binary_stats",
    "classical_fisher_values",
    "critical_fidelity",
    "enumerate_binomial",
    "exact_bias_report",
    "find_optimal_basis",
    "fit_scaling",
    "format_report",
    "inherent_precision",
    "min_detectable_signal",
    "monte_carlo_report",
    "povm_statistics",
    "run_all",
    "strategy_min_signal",
    "strategy_signal_noise",
    "__version__",
]
