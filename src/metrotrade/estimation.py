"""Phase estimation from measured frequencies, and its bias structure.

The observed frequency k/n is an unbiased estimate of the outcome
probability, but pushing it through the arccos inversion to get a
phase is not: the curvature of the inversion turns symmetric
probability noise into a systematic phase offset.  Reports here expose
that split (bias_p vs bias_phi) together with the variance and mean
squared error of the phase estimate.

Two routes are provided.  exact_bias_report enumerates the binomial
distribution outright (n <= 64).  monte_carlo_report samples it at
(p, n) and reads the sampler's count_histogram.  Both feed one moment
reduction over the distinct counts k with their weights (the pmf, or
the fraction of trials that drew k), summed with math.fsum so that no
accumulation order can shift the result.  The two must agree within
sampling error; the tests hold them to that.

classical_fisher_values is the Fisher information the measurement
itself carries, an array kernel over Bloch directions and phases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# draw_count_matrix is not called here, but perfbench/tracing.py wraps
# it by its name in this module, so the name stays bound.
from .sampling import count_histogram, draw_count_matrix, enumerate_binomial

# The terms fed to math.fsum per slice.
_FSUM_SLICE = 2**12


@dataclass(frozen=True)
class EstimatorReport:
    """Moments of the frequency and phase estimators at a true phase.

    mse_phi always decomposes as var_phi + bias_phi**2; the constructor
    recomputes the identity and refuses reports that violate it.  mode
    names the route: "ExactEnumeration" or "MonteCarlo".
    """

    mean_p_hat: float
    bias_p: float
    mean_phi_hat: float
    bias_phi: float
    var_phi: float
    mse_phi: float
    mode: str

    def __post_init__(self):
        residual = abs(self.mse_phi - (self.var_phi + self.bias_phi**2))
        if residual > 1e-10:
            raise ValueError(
                f"mse/variance/bias decomposition violated by {residual:.3e}"
            )


def _fsum_slices(term, ks, weights):
    """math.fsum of term(ks, weights), evaluated and fed _FSUM_SLICE
    entries at a time, so that memory does not grow with ks.size."""
    return math.fsum(itertools.chain.from_iterable(
        term(ks[i:i + _FSUM_SLICE], weights[i:i + _FSUM_SLICE]).tolist()
        for i in range(0, ks.size, _FSUM_SLICE)
    ))


def _report_from_pmf(phi, p, n, ks, weights, mode):
    """Estimator moments over the counts ks drawn with the given weights."""

    def phi_hats(k):
        return np.arccos(2.0 * (k / n) - 1.0)

    mean_p = _fsum_slices(lambda k, w: w * (k / n), ks, weights)
    mean_phi = _fsum_slices(lambda k, w: w * phi_hats(k), ks, weights)
    var_phi = _fsum_slices(lambda k, w: w * (phi_hats(k) - mean_phi) ** 2, ks, weights)
    mse_phi = _fsum_slices(lambda k, w: w * (phi_hats(k) - phi) ** 2, ks, weights)
    return EstimatorReport(
        mean_p_hat=mean_p,
        bias_p=mean_p - p,
        mean_phi_hat=mean_phi,
        bias_phi=mean_phi - phi,
        var_phi=var_phi,
        mse_phi=mse_phi,
        mode=mode,
    )


def _phase_probability(phi: float) -> float:
    """The outcome probability p = (1 + cos phi) / 2 at a true phase phi,
    which must lie in (0, pi)."""
    if not (0.0 < phi < math.pi):
        raise ValueError("phi must lie in (0, pi)")
    return (1.0 + math.cos(phi)) / 2.0


def exact_bias_report(phi: float, n: int) -> EstimatorReport:
    """Estimator moments by full enumeration of the binomial outcome law."""
    p = _phase_probability(phi)
    return _report_from_pmf(
        phi, p, n, np.arange(n + 1), enumerate_binomial(p, n), "ExactEnumeration"
    )


def monte_carlo_report(phi: float, n: int, trials: int, seed: int) -> EstimatorReport:
    """Estimator moments from sampled counts (seeded, reproducible).

    The counts are the sampler's count_histogram(p, n, seed, trials);
    trials is an integer from 100 to 2**32.
    """
    p = _phase_probability(phi)
    if not (isinstance(trials, int) and trials >= 100):
        raise ValueError("need an integer of at least 100 trials")
    lo, hist = count_histogram(p, n, seed, trials)
    ks = np.flatnonzero(hist)
    return _report_from_pmf(phi, p, n, lo + ks, hist[ks] / trials, "MonteCarlo")


def classical_fisher_values(theta, phi_b, phi):
    """Fisher information of two-outcome measurements about the phase,
    vectorized over broadcast arrays of Bloch angles and phases.

    For outcome probability p = (1 + sin(theta) cos(phi - phi_b)) / 2
    the information (dp/dphi)**2 * (1/p + 1/(1-p)) reduces to

        sin2(theta) sin2(phi - phi_b)
        -----------------------------------------
        sin2(theta) sin2(phi - phi_b) + cos2(theta)

    which is bounded by 1 and equals 1 on the theta = pi/2 circle.  The
    denominator is written in this cancellation-free form rather than
    1 - sin2 cos2.  phi_b is reduced modulo 2 pi first, as
    MeasurementBasis does.  Where p lands exactly on {0, 1} (only
    possible on that circle, where the numerator vanishes at the same
    rate) the on-circle limit 1 is returned.
    """
    st = np.sin(theta)
    ct = np.cos(theta)
    delta = phi - np.mod(phi_b, math.tau)
    s = st * np.cos(delta)
    x = st * np.sin(delta)
    num = x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        values = num / (num + ct * ct)
    return np.where(np.abs(s) == 1.0, 1.0, values)
