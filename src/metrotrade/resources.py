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
from .states import ProbeKind, ProbePhaseState, fidelity


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


def _probe(cfg: StrategyConfig, phi: float) -> ProbePhaseState:
    kind = {
        StrategyKind.ENSEMBLE: ProbeKind.SINGLE,
        StrategyKind.PRODUCT: ProbeKind.PRODUCT,
        StrategyKind.GHZ: ProbeKind.GHZ,
        StrategyKind.NONLINEAR: ProbeKind.NONLINEAR,
    }[cfg.strategy]
    particles = 1 if kind is ProbeKind.SINGLE else cfg.m
    return ProbePhaseState(
        phi, particles=particles, kind=kind, nonlinear_exponent=cfg.nonlinear_exponent
    )


def strategy_signal_noise(cfg: StrategyConfig, phi: float):
    """Probability signal 1 - F(phi) and projection noise sqrt(F(1-F)/shots).

    phi must lie in the monotone branch (0, pi / frequency_factor) where
    the fidelity falls from 1 without wrapping.
    """
    limit = math.pi / cfg.frequency_factor
    if not (0.0 < phi < limit):
        raise BranchError(
            f"phi={phi:.6g} outside the monotone branch (0, {limit:.6g})"
        )
    f = fidelity(_probe(cfg, phi), 0.0)
    sig = 1.0 - f
    noise = math.sqrt(f * (1.0 - f) / cfg.effective_samples)
    return sig, noise


def strategy_min_signal(cfg: StrategyConfig) -> float:
    """Smallest detectable phase shift of the strategy at confidence alpha.

    Built from the critical fidelity F0 = n / (n + alpha**2) on the
    repetition count (the ensemble case folds everything into one pool
    of m*n shots, for which the same expression reduces to the
    single-body closed form arccos((mn - a2)/(mn + a2))).
    """
    a2 = cfg.alpha**2
    if cfg.strategy is StrategyKind.ENSEMBLE:
        pool = cfg.m * cfg.n
        return math.acos((pool - a2) / (pool + a2))
    f0 = cfg.n / (cfg.n + a2)
    if cfg.strategy is StrategyKind.PRODUCT:
        return 2.0 * math.acos(f0 ** (1.0 / (2.0 * cfg.m)))
    return (2.0 / cfg.frequency_factor) * math.acos(math.sqrt(f0))


@dataclass(frozen=True)
class ScalingReport:
    """Detection floor across a resource grid, with the fitted exponent.

    phis holds the per-m minimum detectable signal; signals and noises
    are the probability signal and projection noise evaluated exactly
    at that floor (where signal = alpha * noise by construction).
    """

    m_values: tuple
    phis: tuple
    signals: tuple
    noises: tuple
    min_signal: float
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
    phis, signals, noises = [], [], []
    for m in ms:
        cfg = StrategyConfig(
            strategy, m, n, alpha=alpha, nonlinear_exponent=nonlinear_exponent
        )
        floor = strategy_min_signal(cfg)
        sig, noi = strategy_signal_noise(cfg, floor)
        phis.append(floor)
        signals.append(sig)
        noises.append(noi)
    slope = float(np.polyfit(np.log(ms), np.log(phis), 1)[0])
    return ScalingReport(
        m_values=tuple(ms),
        phis=tuple(phis),
        signals=tuple(signals),
        noises=tuple(noises),
        min_signal=min(phis),
        fitted_exponent=slope,
    )
