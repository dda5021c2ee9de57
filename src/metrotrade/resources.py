"""Resource strategies: how signal, noise and the detection floor scale.

A budget of M * N elementary bodies can be spent four ways:

    ensemble   M N independent single-body shots
    product    N shots of an M-body product probe
    ghz        N shots of an M-body entangled probe
    nonlinear  N shots of an M-body probe under a k-th order generator

Entanglement multiplies the fringe frequency (M, or M**k), which
shrinks the minimum detectable signal, but it amplifies the projection
noise at fixed phase just as fast: the benefit is in the bound, never
in a quieter measurement.  fit_scaling extracts the log-log slope of
the detection floor against M; the canonical exponents are -1/2 for
ensemble and product, -1 for ghz, -k for nonlinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BranchError


class StrategyKind(Enum):
    ENSEMBLE = "ensemble"
    PRODUCT = "product"
    GHZ = "ghz"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class StrategyConfig:
    """A resource split: probe size m, repetitions n, confidence alpha."""

    strategy: StrategyKind
    m: int
    n: int
    alpha: float = 1.0
    nonlinear_exponent: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("m must be a positive integer")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive and finite")
        k = self.nonlinear_exponent
        if not (math.isfinite(k) and k >= 1.0):
            raise ValueError("nonlinear_exponent must be >= 1")

    @property
    def effective_samples(self) -> int:
        """Shots entering the projection noise: m*n split up, n bundled."""
        if self.strategy is StrategyKind.ENSEMBLE:
            return self.m * self.n
        return self.n

    @property
    def frequency_factor(self) -> float:
        """Fringe-frequency magnification of the strategy."""
        if self.strategy is StrategyKind.GHZ:
            return float(self.m)
        if self.strategy is StrategyKind.NONLINEAR:
            try:
                return float(self.m) ** self.nonlinear_exponent
            except OverflowError:
                raise ValueError(
                    f"M**k = {self.m}**{self.nonlinear_exponent:g} overflows a float"
                ) from None
        return 1.0


def strategy_signal_noise(cfg: StrategyConfig, phi: float):
    """Probability signal 1 - F(phi) and projection noise sqrt(F(1-F)/shots).

    phi must lie in the monotone branch (0, pi / frequency_factor) where
    the fidelity falls from 1 without wrapping.  The signal is formed
    without the cancelling 1 - F: sin2(f phi / 2) at fringe frequency f,
    and -expm1(2 M log cos(phi / 2)) for the M-body product probe, with
    2 log cos(phi / 2) taken as log1p(-sin2(phi / 2)).
    """
    limit = math.pi / cfg.frequency_factor
    if not (0.0 < phi < limit):
        raise BranchError(
            f"phi={phi:.6g} outside the monotone branch (0, {limit:.6g})"
        )
    half = math.sin(cfg.frequency_factor * phi / 2.0)
    if cfg.strategy is StrategyKind.PRODUCT:
        sig = -math.expm1(cfg.m * math.log1p(-half * half))
    else:
        sig = half * half
    noise = math.sqrt((1.0 - sig) * sig / cfg.effective_samples)
    return sig, noise


def strategy_min_signal(cfg: StrategyConfig) -> float:
    """Smallest detectable phase shift of the strategy at confidence alpha.

    Where the fidelity falls to the critical F0 = n / (n + alpha**2) on
    the repetition count n, in forms that keep full precision however
    close F0 is to 1:

        ensemble   2 atan(alpha / sqrt(m n))   (one pool of m n shots)
        product    2 atan(sqrt(expm1(log1p(alpha**2 / n) / m)))
        ghz        (2 / f) atan(alpha / sqrt(n)), f = frequency_factor
        nonlinear  as ghz
    """
    alpha = cfg.alpha
    if cfg.strategy is StrategyKind.ENSEMBLE:
        return 2.0 * math.atan(alpha / math.sqrt(cfg.m * cfg.n))
    if cfg.strategy is StrategyKind.PRODUCT:
        tan2 = math.expm1(math.log1p(alpha * alpha / cfg.n) / cfg.m)
        return 2.0 * math.atan(math.sqrt(tan2))
    return (2.0 / cfg.frequency_factor) * math.atan(alpha / math.sqrt(cfg.n))


@dataclass(frozen=True)
class ScalingReport:
    """Detection floor across a resource grid, with the fitted exponent.

    phis holds the per-m minimum detectable signal.
    """

    m_values: tuple
    phis: tuple
    fitted_exponent: float


def fit_scaling(
    strategy: StrategyKind,
    m_values,
    n: int,
    alpha: float,
    nonlinear_exponent: float = 1.0,
) -> ScalingReport:
    """Least-squares slope of log(min signal) against log(m).

    Needs at least two distinct m values; fewer is a degenerate grid.
    """
    ms = [int(m) for m in m_values]
    if len(set(ms)) < 2:
        raise ValueError("degenerate grid: need at least two distinct m values")
    phis = [
        strategy_min_signal(StrategyConfig(
            strategy, m, n, alpha=alpha, nonlinear_exponent=nonlinear_exponent
        ))
        for m in ms
    ]
    # float64 before the log: an m past 2**64 would make an object array
    log_m = np.log(np.array(ms, dtype=np.float64))
    slope = float(np.polyfit(log_m, np.log(phis), 1)[0])
    return ScalingReport(m_values=tuple(ms), phis=tuple(phis), fitted_exponent=slope)
