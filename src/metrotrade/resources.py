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
product probe has e = M.  F fixes the signal 1 - F and noise
(strategy_signal_noise), the quantum Fisher information -2 F''(0) =
e f**2 (quantum_fisher_information) and the detection floor, each an
array kernel over a grid of probe sizes M.  fit_scaling fits the floor's
log-log slope: -1/2 for ensemble and product, -1 for ghz, -k for
nonlinear.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import min_detectable_signal


class StrategyKind(Enum):
    ENSEMBLE = "ensemble"
    PRODUCT = "product"
    GHZ = "ghz"
    NONLINEAR = "nonlinear"


def _grid(ms) -> list:
    """The probe sizes in ms as ints.  Numpy integers pass; a float, even
    a whole one, is refused rather than truncated."""
    try:
        return [operator.index(m) for m in ms]
    except TypeError:
        raise ValueError("m must be a positive integer") from None


def _check(ms, n, alpha, k) -> list:
    """_grid(ms), refusing in this order an M below 1, an n that is not a
    positive integer, an alpha that is not positive and finite and a k
    below 1.  An M**k past a float is refused after them, by _probe_model."""
    ms = _grid(ms)
    if not all(m >= 1 for m in ms):
        raise ValueError("m must be a positive integer")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be positive and finite")
    if not (math.isfinite(k) and k >= 1.0):
        raise ValueError("nonlinear_exponent must be >= 1")
    return ms


def _probe_model(strategy: StrategyKind, ms: list, n: int, k: float):
    """(f, e, shots) of the strategy at each probe size M in the checked
    ms, with n repetitions and exponent k: the probe's fidelity is
    cos(f d/2)**(2e) over shots shots.

        ensemble   f = 1      e = 1   shots = M n
        product    f = 1      e = M   shots = n
        ghz        f = M      e = 1   shots = n
        nonlinear  f = M**k   e = 1   shots = n
    """
    m = np.array(ms, dtype=np.float64)
    one = np.ones_like(m)
    if strategy is StrategyKind.ENSEMBLE:
        # M n in integers, rounded once, as for one pool of M n shots
        return one, one, (np.array(ms, dtype=object) * n).astype(np.float64)
    n = np.full_like(m, float(n))
    if strategy is StrategyKind.PRODUCT:
        return one, m, n
    if strategy is StrategyKind.GHZ:
        return m, one, n
    with np.errstate(over="ignore"):
        f = m**k
    if np.isinf(f).any():
        first = ms[int(np.isinf(f).argmax())]
        raise ValueError(f"M**k = {first}**{k:g} overflows a float")
    return f, one, n


def quantum_fisher_information(strategy: StrategyKind, ms, nonlinear_exponent=1.0):
    """-2 F''(0) of one probe at each probe size in ms, e f**2: M for the
    product probe, the squared fringe frequency (1, M**2 or M**(2k)) for
    the others."""
    k = nonlinear_exponent
    f, e, _ = _probe_model(strategy, _check(ms, 1, 1.0, k), 1, k)
    return e * f * f


def strategy_signal_noise(strategy: StrategyKind, ms, n: int, phi, nonlinear_exponent=1.0):
    """Probability signal 1 - F(phi) and projection noise sqrt(F(1-F)/shots)
    at each probe size in ms, with n repetitions; phi is one phase or one
    per probe size.

    phi must lie in the monotone branch (0, pi / f) where the fidelity
    falls from 1 without wrapping.  The signal is formed without the
    cancelling 1 - F: sin2(f phi / 2) at e = 1, and -expm1(e log cos2)
    otherwise, with log cos2 = log cos2(f phi / 2) taken as
    log1p(-sin2) while sin2 < 1/2 and from cos itself nearer the branch
    end, where sin2 rounds to 1.
    """
    k = nonlinear_exponent
    f, e, shots = _probe_model(strategy, _check(ms, n, 1.0, k), n, k)
    phi, limit = np.broadcast_arrays(np.asarray(phi, dtype=np.float64), math.pi / f)
    outside = ~((0.0 < phi) & (phi < limit))
    if outside.any():
        i = int(outside.argmax())
        raise ValueError(f"phi={phi[i]:.6g} outside the monotone branch (0, {limit[i]:.6g})")
    arg = f * phi / 2.0
    sig = np.sin(arg) ** 2
    with np.errstate(divide="ignore"):  # log 0 at an end, where e = 1 discards it
        log_fid = np.where(sig < 0.5, np.log1p(-sig), 2.0 * np.log(np.cos(arg)))
    sig = np.where(e == 1.0, sig, -np.expm1(e * log_fid))
    return sig, np.sqrt((1.0 - sig) * sig / shots)


def _min_signals(strategy: StrategyKind, ms, n: int, alpha: float,
                 nonlinear_exponent=1.0) -> np.ndarray:
    """Smallest detectable phase shift of the strategy at each probe size
    in ms, with n repetitions at confidence alpha.

    Where the fidelity cos(f d/2)**(2e) falls to the critical
    F0 = s / (s + alpha**2) of its s shots, in forms that keep full
    precision however close F0 is to 1:

        e = 1   min_detectable_signal(alpha, s) / f
        e > 1   2 atan(sqrt(expm1(log1p(alpha**2 / s) / e))) / f

    Where alpha**2 / s is below the smallest normal double, the e > 1
    form is its limit, min_detectable_signal(alpha, e s) / f.
    """
    k = nonlinear_exponent
    f, e, shots = _probe_model(strategy, _check(ms, n, alpha, k), n, k)
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

    Needs at least two distinct m values; fewer is a degenerate grid, and
    so is a grid whose logs are too close to fit (2**63 - 1 and 2**63 are
    one double).  A floor that underflows to 0 has no slope and is refused.
    """
    ms = _grid(m_values)
    if len(set(ms)) < 2:
        raise ValueError("degenerate grid: need at least two distinct m values")
    phis = _min_signals(strategy, ms, n, alpha, nonlinear_exponent)
    if not phis.all():
        first = ms[int(phis.argmin())]
        raise ValueError(f"{strategy.value} floor at M={first} underflows to 0: "
                         "no log-log slope")
    # float64 before the log: an m past 2**64 would make an object array
    log_m = np.log(np.array(ms, dtype=np.float64))
    coeffs, _, rank, _, _ = np.polyfit(log_m, np.log(phis), 1, full=True)
    if rank < 2:
        raise ValueError("degenerate grid: the m values are too close for a log-log slope")
    return ScalingReport(tuple(ms), tuple(phis.tolist()), float(coeffs[0]))
