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

inherent_precision has no alpha at all: with n shots the probability
scale is quantized in steps of 1/n, and the smallest phase step that
moves the outcome probability by one quantum is itself bounded below;
it is an array kernel over working points.
"""

from __future__ import annotations

import math

import numpy as np


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
    initial state, elementwise over broadcast alpha and n.  Only where
    alpha**2 overflows are n and alpha**2 divided by alpha first (n / alpha
    overflows at a tiny alpha)."""
    alpha, n = _bound_inputs(alpha, n)
    with np.errstate(over="ignore"):
        scale = np.where(np.isinf(alpha * alpha), alpha, 1.0)
    m = n / scale
    return m / (m + alpha * (alpha / scale))


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


def _qcrb_and_ratio(exact, n):
    """The inverse-root Cramer-Rao value 1/sqrt(n) at Fq = 1 and the
    correction ratio exact/qcrb of an exact bound over it.  tradeoff's
    qcrb and correction_ratio columns and verify's factor-two check both
    read them here, so the two agree bit for bit."""
    qcrb = 1.0 / np.sqrt(n)
    return qcrb, exact / qcrb


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


def _outcome_law(phi):
    """The outcome law (p, q) = (cos**2, sin**2)(phi / 2), each from its own factor."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return c * c, s * s


def inherent_precision(phi0, n: int):
    """Smallest phase step down from each working point phi0 that raises
    the outcome probability p0 = cos**2(phi0 / 2) by one quantum 1/n, and
    the accuracy accuracy_of(step, n) it carries.

    sin**2 a - sin**2 b = sin(a + b) sin(a - b) gives the step from the law
    (p0, q0) as 2 asin((1/n) / (sqrt(q0 (p0 + 1/n)) + sqrt(p0 (q0 - 1/n)))),
    a sum of two roots that never cancels.

    Vectorized over phi0 (scalar or array, each in (0, pi)).  Returns
    (delta_phi, accuracy); both are NaN, with no warning, where q0 < 1/n:
    no step can raise p0 by a quantum.
    """
    if not np.all(np.greater(phi0, 0.0) & np.less(phi0, math.pi)):
        raise ValueError("phi0 must lie in (0, pi)")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    p0, q0 = _outcome_law(phi0)
    with np.errstate(invalid="ignore"):  # q0 < 1/n: out of reach, NaN
        sine = np.sqrt(q0 * (p0 + 1.0 / n)) + np.sqrt(p0 * (q0 - 1.0 / n))
    delta = 2.0 * np.arcsin((1.0 / n) / sine)
    return delta, accuracy_of(delta, n)
