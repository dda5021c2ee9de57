"""Resource strategies: how signal, noise and the detection floor scale.

A budget of M * N elementary bodies can be spent four ways:

    ensemble   M N independent single-body shots
    product    N shots of an M-body product probe
    ghz        N shots of an M-body entangled probe
    nonlinear  N shots of an M-body probe under a k-th order generator

Each strategy is one probe model, _probe_model: over its shots the
fidelity is F(d) = cos(f d/2)**(2e).  Entanglement multiplies the
fringe frequency f (M, or M**k), which shrinks the minimum detectable
signal, but it amplifies the projection noise at fixed phase just as
fast: the benefit is in the bound, never in a quieter measurement.  The
product probe has e = M.  F fixes the signal 1 - F, the quantum Fisher
information -2 F''(0) = e f**2 and the detection floor, an array
kernel over the M grid whose log-log slope fit_scaling fits: -1/2 for
ensemble and product, -1 for ghz, -k for nonlinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import min_detectable_signal
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
    def quantum_fisher_information(self) -> float:
        """-2 F''(0) of one probe, e f**2: M for the product probe, the
        squared fringe frequency (1, M**2 or M**(2k)) for the others."""
        f, e, _ = (float(v[0]) for v in _probe_model(self, (self.m,)))
        return e * f * f


def _probe_model(cfg: StrategyConfig, ms):
    """(f, e, shots) of cfg's strategy at each probe size M in ms: the
    probe's fidelity is cos(f d/2)**(2e) over shots shots.

        ensemble   f = 1      e = 1   shots = M n
        product    f = 1      e = M   shots = n
        ghz        f = M      e = 1   shots = n
        nonlinear  f = M**k   e = 1   shots = n
    """
    m = np.array(ms, dtype=np.float64)
    one = np.ones_like(m)
    if cfg.strategy is StrategyKind.ENSEMBLE:
        # M n in integers, rounded once, as for one pool of M n shots
        return one, one, (np.array(ms, dtype=object) * cfg.n).astype(np.float64)
    n = np.full_like(m, float(cfg.n))
    if cfg.strategy is StrategyKind.PRODUCT:
        return one, m, n
    if cfg.strategy is StrategyKind.GHZ:
        return m, one, n
    k = cfg.nonlinear_exponent
    with np.errstate(over="ignore"):
        f = m**k
    if np.isinf(f).any():
        first = ms[int(np.isinf(f).argmax())]
        raise ValueError(f"M**k = {first}**{k:g} overflows a float")
    return f, one, n


def strategy_signal_noise(cfg: StrategyConfig, phi: float):
    """Probability signal 1 - F(phi) and projection noise sqrt(F(1-F)/shots).

    phi must lie in the monotone branch (0, pi / f) where the fidelity
    falls from 1 without wrapping.  The signal is formed without the
    cancelling 1 - F: sin2(f phi / 2) at e = 1, and -expm1(e log cos2)
    otherwise, with log cos2 = log cos2(f phi / 2) taken as
    log1p(-sin2) while sin2 < 1/2 and from cos itself nearer the branch
    end, where sin2 rounds to 1.
    """
    f, e, shots = (float(v[0]) for v in _probe_model(cfg, (cfg.m,)))
    limit = math.pi / f
    if not (0.0 < phi < limit):
        raise BranchError(
            f"phi={phi:.6g} outside the monotone branch (0, {limit:.6g})"
        )
    arg = f * phi / 2.0
    half = math.sin(arg)
    sig = half * half
    if e != 1.0:
        log_fid = math.log1p(-sig) if sig < 0.5 else 2.0 * math.log(math.cos(arg))
        sig = -math.expm1(e * log_fid)
    noise = math.sqrt((1.0 - sig) * sig / shots)
    return sig, noise


def _min_signals(cfg: StrategyConfig, ms) -> np.ndarray:
    """Smallest detectable phase shift of cfg's split at each probe size
    in ms, with cfg's n, alpha and k.

    Where the fidelity cos(f d/2)**(2e) falls to the critical
    F0 = s / (s + alpha**2) of its s shots, in forms that keep full
    precision however close F0 is to 1:

        e = 1   min_detectable_signal(alpha, s) / f
        e > 1   2 atan(sqrt(expm1(log1p(alpha**2 / s) / e))) / f

    Where alpha**2 / s is below the smallest normal double, the e > 1
    form is its limit, min_detectable_signal(alpha, e s) / f.
    """
    f, e, shots = _probe_model(cfg, ms)
    alpha = cfg.alpha
    x = alpha * alpha / shots
    floors = 2.0 * np.arctan(np.sqrt(np.expm1(np.log1p(x) / e)))
    bound = (e == 1.0) | (x < np.finfo(np.float64).tiny)
    floors[bound] = min_detectable_signal(alpha, e[bound] * shots[bound])
    # times 1 / f, not over f: e = 1 keeps the bits of (2 / f) atan(alpha / sqrt(s))
    return floors * (1.0 / f)


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

    Needs at least two distinct m values; fewer is a degenerate grid.  A
    floor that underflows to 0 has no slope and is refused.
    """
    ms = [int(m) for m in m_values]
    if len(set(ms)) < 2:
        raise ValueError("degenerate grid: need at least two distinct m values")
    # the grid's splits differ only in m, so its smallest m checks them all
    cfg = StrategyConfig(strategy, min(ms), n, alpha=alpha,
                         nonlinear_exponent=nonlinear_exponent)
    phis = _min_signals(cfg, ms)
    if not phis.all():
        first = ms[int(phis.argmin())]
        raise ValueError(f"{strategy.value} floor at M={first} underflows to 0: "
                         "no log-log slope")
    # float64 before the log: an m past 2**64 would make an object array
    log_m = np.log(np.array(ms, dtype=np.float64))
    slope = float(np.polyfit(log_m, np.log(phis), 1)[0])
    return ScalingReport(tuple(ms), tuple(phis.tolist()), slope)
