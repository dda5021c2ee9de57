"""Measurement bases on the Bloch sphere and their signal-to-noise ratio.

A projective measurement along direction (theta, phi_b) sees the probe
before and after the phase shift with outcome probabilities

    p0 = (1 + sin(theta) cos(phi_b)) / 2
    p1 = (1 + sin(theta) cos(phi - phi_b)) / 2

and the detectability of the shift is the separation |p1 - p0| over
the summed projection noise, which basis_snr evaluates over any
broadcast grid of directions.  The equatorial circle theta = pi/2 with
phi_b anywhere in [phi, pi] or [phi + pi, 2 pi) is optimal, where the
ratio reaches sqrt(n) |tan(phi / 2)|; find_optimal_basis recovers that
point numerically: a coarse mesh over the sphere, then ever finer
meshes centred on the best direction so far.

classical_fisher_values, the Fisher information the measurement carries,
shares the ratio's transverse term (sin(theta) sin(x))**2 via _transverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_GRID = 400  # points per axis of find_optimal_basis's coarse mesh


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


def _transverse(st, x):
    """(sin(theta) sin(x))**2, a new array (even for scalar angles) over
    the broadcast shape of st and x."""
    out = np.asarray(st * np.sin(x))
    return np.square(out, out=out)


def _noise(st, ct2, x):
    """sqrt(1 - sin2(theta) cos2(x)), over the broadcast shape of st and x,
    as sqrt(sin2(theta) sin2(x) + cos2(theta)): the two radicands are
    algebraically identical, this one stays accurate near zero."""
    out = _transverse(st, x)
    out += ct2
    return np.sqrt(out, out=out)


def basis_snr(theta, phi_b, phi: float, n: int):
    """Separation over summed noise for n shots of a shift phi, measured
    along (theta, phi_b): elementwise over broadcast arrays of basis angles.

    The denominator never vanishes: each noise term is at least
    |cos theta|, and the cosine of a finite double is never 0 (its
    smallest magnitude, about 4.7e-19 at theta = 6381956970095103 * 2**797,
    squares to a normal double), so no direction divides by zero.  A NaN
    or infinite angle gives NaN.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    st = np.sin(theta)
    ct2 = np.square(np.cos(theta))
    # cos(phi_b) - cos(phi - phi_b) as a product, which does not cancel
    # at small phi; each step reuses the one array of the broadcast shape
    ratio = np.asarray(st * np.sin(phi_b - phi / 2.0))
    np.abs(ratio, out=ratio)
    ratio *= 2.0 * math.sqrt(n) * abs(math.sin(phi / 2.0))
    denominator = _noise(st, ct2, phi_b)
    denominator += _noise(st, ct2, phi - phi_b)
    ratio /= denominator
    return ratio


def snr_grid(phi: float, n: int, grid: int):
    """Signal-to-noise ratio on a grid x grid mesh of measurement directions.

    theta runs over [0, pi] with both ends included, phi_b over
    [0, 2 pi) in equal steps.  Returns (thetas, phibs, values) with
    values[i, j] the ratio in direction (thetas[i], phibs[j]).  A bad n
    is reported before a bad grid, and a bad grid before a bad phi.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not (isinstance(grid, int) and grid >= 200):
        raise ValueError("grid must be an integer >= 200 points per axis")
    thetas = np.linspace(0.0, math.pi, grid)
    phibs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    return thetas, phibs, basis_snr(thetas[:, None], phibs[None, :], phi, n)


def find_optimal_basis(phi: float, n: int):
    """Best measurement direction for resolving a shift of size phi.

    Evaluates the ratio on snr_grid's mesh, then on 21 x 21 meshes that
    span one cell of the previous mesh on each side of its best
    direction, each with cells a tenth as wide, until a cell is below
    1e-9 rad on both axes.  Returns (basis, snr), snr being the value
    the last mesh holds in that direction.
    """
    thetas, phibs, values = snr_grid(phi, n, _GRID)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    theta, phib, snr = float(thetas[i]), float(phibs[j]), float(values[i, j])
    dth, dpb = math.pi / (_GRID - 1), TWO_PI / _GRID
    # offset 0 is the previous best, so the best value never falls
    offsets = np.arange(-10.0, 11.0)
    while dth >= 1e-9 or dpb >= 1e-9:
        dth, dpb = dth / 10.0, dpb / 10.0
        ths = np.clip(theta + dth * offsets, 0.0, math.pi)
        # wrapped as MeasurementBasis wraps them, so the mesh's best value
        # is the ratio at the returned basis (a phi_b just below 0 rounds
        # phi - phi_b near pi, and the maximum would pick up that error)
        pbs = (phib + dpb * offsets) % TWO_PI
        values = basis_snr(ths[:, None], pbs[None, :], phi, n)
        i, j = np.unravel_index(np.argmax(values), values.shape)
        theta, phib, snr = float(ths[i]), float(pbs[j]), float(values[i, j])
    return MeasurementBasis(theta, phib), snr


def classical_fisher_values(theta, phi_b, phi):
    """Fisher information of two-outcome measurements about the phase,
    vectorized over broadcast arrays of Bloch angles and phases.

    For outcome probability p = (1 + sin(theta) cos(phi - phi_b)) / 2
    the information (dp/dphi)**2 * (1/p + 1/(1-p)) reduces to

        sin2(theta) sin2(phi - phi_b)
        -----------------------------------------
        sin2(theta) sin2(phi - phi_b) + cos2(theta)

    which is bounded by 1 and equals 1 on the theta = pi/2 circle.  The
    denominator is _noise's radicand, not 1 - sin2 cos2, so like
    basis_snr's it never vanishes.  phi_b is reduced modulo 2 pi first,
    as MeasurementBasis does.  Where p lands exactly on {0, 1} (only
    possible on that circle, where the numerator vanishes at the same
    rate) the on-circle limit 1 is returned.
    """
    st = np.sin(theta)
    delta = phi - np.mod(phi_b, TWO_PI)
    num = _transverse(st, delta)
    values = num / (num + np.square(np.cos(theta)))
    return np.where(np.abs(st * np.cos(delta)) == 1.0, 1.0, values)
