"""Distinguishability thresholds and the precision/accuracy trade-off.

Two finite-sample probability estimates are distinguishable at
confidence level alpha when their separation exceeds alpha times the
summed projection noise.  Applying that criterion to a probe and its
phase-shifted copy gives a chain of closed forms:

    critical fidelity      F <= n / (n + alpha**2)
    minimum signal         dphi >= arccos((n - alpha**2) / (n + alpha**2))
                                 = 2 atan(alpha / sqrt(n))
    trade-off bound        dphi >= 2 alpha / (sqrt(n + alpha**2) sqrt(Fq))

critical_fidelity and min_detectable_signal evaluate the first two as
elementwise array kernels over any broadcast grid of alpha and n.  At
Fq = 1 the trade-off bound is the chord 2 sin(dphi_min / 2) of the
exact minimum signal, so it needs no function of its own.  The exact
minimum signal exceeds the inverse-root Cramer-Rao value 1/sqrt(n Fq)
by a factor dphi_min sqrt(n) approaching 2: resolving one noise width on
each side costs twice the naive one-sigma estimate.  Conversely
accuracy_of reads off the confidence level a given precision actually
buys.

The same criterion over a k-outcome measurement is the separation
statistic of povm_statistics, an array kernel over any grid of
probability vectors.

inherent_steps has no alpha at all: with n shots the probability
scale is quantized in steps of 1/n, and the smallest phase step that
moves the outcome probability by one quantum is itself bounded below.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnreachableSignalError


def _bound_inputs(alpha, n):
    """alpha and n as float64 arrays, refused unless every alpha is
    positive and finite and every n is a finite whole number of at least 1."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all(np.isfinite(alpha) & (alpha > 0.0)):
        raise ValueError("alpha must be positive and finite")
    n = np.asarray(n, dtype=np.float64)
    if not np.all(np.isfinite(n) & (n >= 1.0) & (n == np.floor(n))):
        raise ValueError("n must be a positive integer")
    return alpha, n


def critical_fidelity(alpha, n):
    """Largest fidelity n / (n + alpha**2) still distinguishable from the
    initial state, elementwise over broadcast alpha and n."""
    alpha, n = _bound_inputs(alpha, n)
    with np.errstate(over="ignore"):  # alpha**2 past a double reads F = 0
        return n / (n + alpha * alpha)


def min_detectable_signal(alpha, n):
    """Smallest phase shift resolvable at confidence alpha with n shots,
    elementwise over broadcast alpha and n.

    The exact form arccos((n - a2)/(n + a2)) is evaluated as the equal
    2 atan(alpha / sqrt(n)), which keeps full precision where the arccos
    argument rounds to 1 (it returns 0 from n ~ 1e16).  An int n too
    large for a double raises OverflowError.
    """
    alpha, n = _bound_inputs(alpha, n)
    return 2.0 * np.arctan(alpha / np.sqrt(n))


def accuracy_of(delta_phi, n: int):
    """Confidence level alpha = delta_phi * sqrt(n) / 2 a precision buys
    at unit Fisher information (Fq = 1).

    Elementwise over delta_phi (scalar or array); a NaN step, one that
    cannot be reached, gives NaN.
    """
    if np.any(np.less(delta_phi, 0.0)):
        raise ValueError("delta_phi must be non-negative")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    return delta_phi * math.sqrt(n) / 2.0


def povm_statistics(p, p_final, n):
    """Separation statistic sqrt(n) sqrt(sum (p'_i - p_i)**2 / p'_i), vectorized.

    p are the initial and p' the final outcome probabilities, broadcast
    together with outcomes on the last axis; n broadcasts against the
    remaining axes.  Cells where p' vanishes contribute nothing if p
    vanishes too, and make the statistic infinite otherwise (a formerly
    occupied outcome became impossible: certain separation).  The cells
    are added in outcome order, as a scalar loop over them would.
    """
    p, p_final = np.broadcast_arrays(
        np.asarray(p, dtype=np.float64), np.asarray(p_final, dtype=np.float64)
    )
    occupied = p_final != 0.0
    diff = p_final - p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cells = np.where(occupied, diff * diff / p_final, 0.0)
    total = cells[..., 0]
    for i in range(1, cells.shape[-1]):
        total = total + cells[..., i]
    vanished = np.any(~occupied & (p != 0.0), axis=-1)
    return np.where(vanished, np.inf, np.sqrt(n) * np.sqrt(total))


def inherent_steps(phi0, n: int):
    """Smallest phase step down from each working point phi0 that raises
    the outcome probability by one quantum 1/n: phi0 - theta2 with
    theta2 = arccos(2/n + cos phi0).

    The difference is evaluated as 2 asin((1/n) / sin((phi0 + theta2)/2)),
    from cos theta2 - cos phi0 = 2 sin((phi0 + theta2)/2) sin((phi0 - theta2)/2),
    so it does not cancel when the step is small against phi0 (large n).

    Vectorized over phi0 (scalar or array, each in (0, pi)).  Where the
    quantum cannot be bridged (arccos argument above 1) the step is NaN.
    """
    with np.errstate(invalid="ignore"):
        theta2 = np.arccos(2.0 / n + np.cos(phi0))
    return 2.0 * np.arcsin((1.0 / n) / np.sin((phi0 + theta2) / 2.0))


def inherent_precision(phi0: float, n: int):
    """inherent_steps at one working point, with the accuracy
    accuracy_of(dphi, n) it carries.

    Returns (delta_phi, accuracy).  When the quantum cannot be bridged
    from this working point, UnreachableSignalError is raised.
    """
    if not (0.0 < phi0 < math.pi):
        raise ValueError("phi0 must lie in (0, pi)")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    delta = float(inherent_steps(phi0, n))
    if math.isnan(delta):
        raise UnreachableSignalError(
            f"probability step 1/{n} is not reachable from phi0={phi0:.6g}"
        )
    return delta, accuracy_of(delta, n)
