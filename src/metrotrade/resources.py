"""Resource strategies: how signal, noise and the detection floor scale.

A budget of M * N elementary bodies can be spent four ways:

    ensemble   M N independent single-body shots
    product    N shots of an M-body product probe
    ghz        N shots of an M-body entangled probe
    nonlinear  N shots of an M-body probe under a k-th order generator

Entanglement multiplies the fringe frequency (M, or M**k), which
shrinks the minimum detectable signal, but it amplifies the projection
noise at fixed phase just as fast: the benefit is in the bound, never
in a quieter measurement.  Each strategy is one probe model, its
fidelity F(d): (1 + cos(f d)) / 2 at fringe frequency f = 1, M or M**k,
or cos(d/2)**(2M) for the product probe.  F fixes the signal 1 - F, the
quantum Fisher information -2 F''(0) and the detection floor, an array
kernel over the M grid whose log-log slope fit_scaling fits: -1/2 for
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
        return float(_fringe_frequency(self, (self.m,))[0])

    @property
    def quantum_fisher_information(self) -> float:
        """-2 F''(0) of one probe: M for the product probe, the squared
        fringe frequency (1, M**2 or M**(2k)) for the others."""
        if self.strategy is StrategyKind.PRODUCT:
            return float(self.m)
        f = self.frequency_factor
        return f * f


def _fringe_frequency(cfg: StrategyConfig, ms) -> np.ndarray:
    """Fringe frequency of cfg's strategy at each probe size in ms: M for
    ghz, M**k for nonlinear, 1 for ensemble and product."""
    m = np.array(ms, dtype=np.float64)
    if cfg.strategy is StrategyKind.GHZ:
        return m
    if cfg.strategy is StrategyKind.NONLINEAR:
        k = cfg.nonlinear_exponent
        with np.errstate(over="ignore"):
            f = m**k
        if np.isinf(f).any():
            first = ms[int(np.isinf(f).argmax())]
            raise ValueError(f"M**k = {first}**{k:g} overflows a float")
        return f
    return np.ones_like(m)


def strategy_signal_noise(cfg: StrategyConfig, phi: float):
    """Probability signal 1 - F(phi) and projection noise sqrt(F(1-F)/shots).

    phi must lie in the monotone branch (0, pi / frequency_factor) where
    the fidelity falls from 1 without wrapping.  The signal is formed
    without the cancelling 1 - F: sin2(f phi / 2) at fringe frequency f,
    and -expm1(2 M log cos(phi / 2)) for the M-body product probe, with
    2 log cos(phi / 2) taken as log1p(-sin2(phi / 2)) while sin2 < 1/2 and
    from cos itself nearer the branch end, where sin2 rounds to 1.
    """
    limit = math.pi / cfg.frequency_factor
    if not (0.0 < phi < limit):
        raise BranchError(
            f"phi={phi:.6g} outside the monotone branch (0, {limit:.6g})"
        )
    arg = cfg.frequency_factor * phi / 2.0
    half = math.sin(arg)
    if cfg.strategy is StrategyKind.PRODUCT:
        if half * half < 0.5:
            log_fid = math.log1p(-half * half)
        else:
            log_fid = 2.0 * math.log(math.cos(arg))
        sig = -math.expm1(cfg.m * log_fid)
    else:
        sig = half * half
    noise = math.sqrt((1.0 - sig) * sig / cfg.effective_samples)
    return sig, noise


def _min_signals(cfg: StrategyConfig, ms) -> np.ndarray:
    """Smallest detectable phase shift of cfg's split at each probe size
    in ms, with cfg's n, alpha and k.

    Where the fidelity falls to the critical F0 = n / (n + alpha**2) on
    the repetition count n, in forms that keep full precision however
    close F0 is to 1:

        ensemble   2 atan(alpha / sqrt(m n))   (one pool of m n shots)
        product    2 atan(sqrt(expm1(log1p(alpha**2 / n) / m)))
        ghz        (2 / f) atan(alpha / sqrt(n)), f the fringe frequency
        nonlinear  as ghz
    """
    alpha, n = cfg.alpha, cfg.n
    if cfg.strategy is StrategyKind.ENSEMBLE:
        # m n in integers, rounded once, as for one pool of m n shots
        shots = (np.array(ms, dtype=object) * n).astype(np.float64)
        return 2.0 * np.arctan(alpha / np.sqrt(shots))
    if cfg.strategy is StrategyKind.PRODUCT:
        m = np.array(ms, dtype=np.float64)
        return 2.0 * np.arctan(np.sqrt(np.expm1(np.log1p(alpha * alpha / n) / m)))
    return (2.0 / _fringe_frequency(cfg, ms)) * np.arctan(alpha / np.sqrt(float(n)))


def strategy_min_signal(cfg: StrategyConfig) -> float:
    """Smallest detectable phase shift of the split: _min_signals at cfg.m."""
    return float(_min_signals(cfg, (cfg.m,))[0])


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
    # the grid's splits differ only in m, so its smallest m checks them all
    cfg = StrategyConfig(strategy, min(ms), n, alpha=alpha,
                         nonlinear_exponent=nonlinear_exponent)
    phis = _min_signals(cfg, ms)
    # float64 before the log: an m past 2**64 would make an object array
    log_m = np.log(np.array(ms, dtype=np.float64))
    slope = float(np.polyfit(log_m, np.log(phis), 1)[0])
    return ScalingReport(tuple(ms), tuple(phis.tolist()), slope)
