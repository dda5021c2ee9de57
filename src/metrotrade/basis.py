"""Measurement bases on the Bloch sphere and their signal-to-noise ratio.

A projective measurement along direction (theta, phi_b) sees the probe
before and after the phase shift with outcome probabilities

    p0 = (1 + sin(theta) cos(phi_b)) / 2
    p1 = (1 + sin(theta) cos(phi - phi_b)) / 2

and the detectability of the shift is the separation |p1 - p0| over
the summed projection noise.  The equatorial circle theta = pi/2 with
phi_b anywhere in [phi, pi] or [phi + pi, 2 pi) is optimal, where the
ratio reaches sqrt(n) |tan(phi / 2)|; find_optimal_basis recovers that
point numerically by coarse grid search plus golden-section polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MeasurementBasis:
    """Bloch direction of a projective measurement.

    theta is the polar angle in [0, pi]; phi_b is azimuthal and wraps
    modulo 2*pi.
    """

    theta: float
    phi_b: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")
        if not math.isfinite(self.phi_b):
            raise ValueError("phi_b must be finite")
        object.__setattr__(self, "phi_b", self.phi_b % TWO_PI)


def _radicand(st, ct, x):
    # 1 - sin2(theta) cos2(x) without the cancellation: the two forms
    # are algebraically identical, this one stays accurate near zero.
    return (st * np.sin(x)) ** 2 + ct * ct


def _snr_values(theta, phi_b, phi: float, n: int):
    """Vectorized signal-to-noise ratio over arrays of basis angles."""
    st = np.sin(theta)
    ct = np.cos(theta)
    numerator = math.sqrt(n) * np.abs(st * (np.cos(phi_b) - np.cos(phi - phi_b)))
    denominator = np.sqrt(_radicand(st, ct, phi_b)) + np.sqrt(
        _radicand(st, ct, phi - phi_b)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numerator / denominator
    # Zero denominator means both projections are deterministic: no
    # noise at all, so any separation is infinitely significant and no
    # separation is none.
    return np.where(
        denominator == 0.0, np.where(numerator == 0.0, 0.0, np.inf), ratio
    )


def basis_snr(basis: MeasurementBasis, phi: float, n: int) -> float:
    """Separation over summed noise for n shots in this basis."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    return float(_snr_values(np.float64(basis.theta), np.float64(basis.phi_b), phi, n))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
    return (a + b) / 2.0


def snr_grid(phi: float, n: int, grid: int):
    """Signal-to-noise ratio on a grid x grid mesh of measurement directions.

    theta runs over [0, pi] with both ends included, phi_b over
    [0, 2 pi) in equal steps.  Returns (thetas, phibs, values) with
    values[i, j] the ratio in direction (thetas[i], phibs[j]).
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not (isinstance(grid, int) and grid >= 200):
        raise ValueError("grid must be an integer >= 200 points per axis")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    thetas = np.linspace(0.0, math.pi, grid)
    phibs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    return thetas, phibs, _snr_values(thetas[:, None], phibs[None, :], phi, n)


def find_optimal_basis(phi: float, n: int, grid: int = 400):
    """Best measurement direction for resolving a shift of size phi.

    Evaluates the ratio on snr_grid's mesh, then polishes each angle
    with golden-section search around the best cell.  Returns
    (basis, snr).
    """
    thetas, phibs, values = snr_grid(phi, n, grid)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    theta0, phib0 = float(thetas[i]), float(phibs[j])
    dth = math.pi / (grid - 1)
    dpb = TWO_PI / grid

    def snr_at(th, pb):
        return float(_snr_values(np.float64(th), np.float64(pb), phi, n))

    theta1 = _golden_max(
        lambda t: snr_at(t, phib0),
        max(0.0, theta0 - dth),
        min(math.pi, theta0 + dth),
    )
    phib1 = _golden_max(lambda b: snr_at(theta1, b), phib0 - dpb, phib0 + dpb)
    theta1 = _golden_max(
        lambda t: snr_at(t, phib1),
        max(0.0, theta1 - dth),
        min(math.pi, theta1 + dth),
    )
    best = MeasurementBasis(theta1, phib1)
    return best, basis_snr(best, phi, n)

