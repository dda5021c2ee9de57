"""Phase estimation from measured frequencies, and its bias structure.

The observed frequency k/n is an unbiased estimate of p = cos**2(phi/2),
but its inversion phi_hat = 2 atan2(sqrt(n - k), sqrt(k)) is not: its
curvature turns symmetric probability noise into a systematic phase
offset.  Reports here expose that split (bias_p vs bias_phi) together
with the variance and mean squared error of the phase estimate.

exact_bias_report reduces the sampler's own pmf, binomial_weights, and
monte_carlo_report reads the sampler's count_histogram.  Both feed one
moment reduction over the distinct counts k with their weights (the pmf
relative to its mode, or the fraction of trials that drew k), summed
with math.fsum so that no accumulation order can shift the result.  The
two must agree within sampling error; the tests hold them to that.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import _outcome_law
# draw_count_matrix is not called here, but perfbench/tracing.py wraps
# it by its name in this module, so the name stays bound.
from .sampling import binomial_weights, count_histogram, draw_count_matrix

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
        # Each moment is one math.fsum of rounded products divided by the
        # rounded total, and var_phi is taken about the rounded bias_phi,
        # so the identity holds to about 20 unit roundoffs of mse_phi
        # (mse 4, var 6, the bias cross term 6, the total 1, this sum 3);
        # 2**-48 is 32 of them.  Below the normal range rounding is
        # absolute, at most 2**-1075 an operation, and a few per term over
        # the 2**22 terms of the largest window stay under the smallest
        # normal, which is also the bound where mse_phi is 0.
        residual = abs(self.mse_phi - (self.var_phi + self.bias_phi**2))
        if residual > max(2.0**-48 * self.mse_phi, sys.float_info.min):
            raise ValueError(
                f"mse/variance/bias decomposition violated by {residual:.3e}"
            )


def _fsum_slices(term, ks, weights):
    """math.fsum of weights * term(ks), evaluated and fed _FSUM_SLICE
    entries at a time, so that memory does not grow with ks.size."""
    return math.fsum(itertools.chain.from_iterable(
        (weights[i:i + _FSUM_SLICE] * term(ks[i:i + _FSUM_SLICE])).tolist()
        for i in range(0, ks.size, _FSUM_SLICE)
    ))


def _report_from_pmf(phi, p, n, ks, weights, mode):
    """Estimator moments over the counts ks, relative to the weights' sum,
    from the deviations phi_hat - phi themselves."""

    def deviations(k):
        return 2.0 * np.arctan2(np.sqrt(n - k), np.sqrt(k)) - phi

    total = _fsum_slices(lambda k: 1.0, ks, weights)
    mean_p = _fsum_slices(lambda k: k / n, ks, weights) / total
    bias_phi = _fsum_slices(deviations, ks, weights) / total
    var_phi = _fsum_slices(lambda k: (deviations(k) - bias_phi) ** 2, ks, weights) / total
    mse_phi = _fsum_slices(lambda k: deviations(k) ** 2, ks, weights) / total
    return EstimatorReport(
        mean_p_hat=mean_p,
        bias_p=mean_p - p,
        mean_phi_hat=phi + bias_phi,
        bias_phi=bias_phi,
        var_phi=var_phi,
        mse_phi=mse_phi,
        mode=mode,
    )


def _phase_law(phi: float):
    """The outcome law (p, q) as floats at a true phase phi in (0, pi)."""
    if not (0.0 < phi < math.pi):
        raise ValueError("phi must lie in (0, pi)")
    return tuple(map(float, _outcome_law(phi)))


def exact_bias_report(phi: float, n: int) -> EstimatorReport:
    """Estimator moments over binomial_weights' window, whose excluded tails
    each hold under e**-72 of the mass, for any n whose window fits 2**22
    entries.  About 0.5 us per entry on a 2-core x86-64 host: 0.80 s at
    n = 2**34, phi = 1.5, and 1.9 s at the cap (n = 1.22e11, phi = pi / 2)."""
    p, q = _phase_law(phi)
    lo, weights = binomial_weights(p, q, n)
    return _report_from_pmf(phi, p, n, lo + np.arange(weights.size), weights,
                            "ExactEnumeration")


def monte_carlo_report(phi: float, n: int, trials: int, seed: int) -> EstimatorReport:
    """Estimator moments from sampled counts (seeded, reproducible).

    The counts are the sampler's count_histogram(p, q, n, seed, trials);
    trials is an integer from 100 to 2**32.
    """
    p, q = _phase_law(phi)
    if not (isinstance(trials, int) and trials >= 100):
        raise ValueError("need an integer of at least 100 trials")
    lo, hist = count_histogram(p, q, n, seed, trials)
    ks = np.flatnonzero(hist)
    return _report_from_pmf(phi, p, n, lo + ks, hist[ks] / trials, "MonteCarlo")
