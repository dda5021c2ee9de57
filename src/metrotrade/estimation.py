"""Phase estimation from measured frequencies, and its bias structure.

The observed frequency k/n is an unbiased estimate of the outcome
probability, but pushing it through the arccos inversion to get a
phase is not: the curvature of the inversion turns symmetric
probability noise into a systematic phase offset.  Reports here expose
that split (bias_p vs bias_phi) together with the variance and mean
squared error of the phase estimate.

Two routes are provided.  exact_bias_report enumerates the binomial
distribution outright (n <= 64).  monte_carlo_report samples it at
(p, n): each chunk's uniforms are sorted and counted straight into a
histogram over the sampler's CDF window, the bincount of
draw_count_matrix(p, n, seed, trials) without a count formed per trial.  Both feed
one moment reduction over the distinct counts k with their weights (the
pmf, or the fraction of trials that drew k), summed with math.fsum so
that no accumulation order can shift the result.  The two must agree
within sampling error; the tests hold them to that.

classical_fisher_values is the Fisher information the measurement
itself carries, an array kernel over Bloch directions and phases.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _mc_workers
# draw_count_matrix is not called here, but perfbench/tracing.py wraps
# it by its name in this module, so the name stays bound.
from .sampling import (_binomial_cdf_table, _check_draw, _substream_uniforms,
                       _window_histogram, draw_count_matrix, enumerate_binomial)


# Trials per chunk in monte_carlo_report, whose uniforms are sorted and
# then counted over the CDF window (arrays of 2**16 trials stay in L2);
# the most trials a report takes, so that no trial count runs for hours;
# and the terms fed to math.fsum per slice.
_MC_CHUNK = 2**16
_MC_TRIALS_MAX = 2**32
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


def exact_bias_report(phi: float, n: int) -> EstimatorReport:
    """Estimator moments by full enumeration of the binomial outcome law."""
    if not (0.0 < phi < math.pi):
        raise ValueError("phi must lie in (0, pi)")
    p = (1.0 + math.cos(phi)) / 2.0
    return _report_from_pmf(
        phi, p, n, np.arange(n + 1), enumerate_binomial(p, n), "ExactEnumeration"
    )


def monte_carlo_report(phi: float, n: int, trials: int, seed: int) -> EstimatorReport:
    """Estimator moments from sampled counts (seeded, reproducible).

    p, n and seed are checked, then the sampler's CDF table is read, so
    it is built once (or raises BudgetError) before any draw; its window
    holds every count that can be drawn.  Trials are drawn in chunks of
    _MC_CHUNK, so memory does not grow with the trial count: each chunk's
    uniforms are sorted and counted over that window (the counts a
    bincount of draw_count_matrix(p, n, seed, trials) would give), and
    added under a lock to one integer histogram.
    With at least two chunks per worker, W <= _MC_WORKERS threads draw
    (numpy releases the GIL in the sampler), thread w taking every W-th
    chunk from chunk w; smaller runs stay on the calling thread, where a
    pool costs more than it saves.  Integer counts add exactly, so the
    result depends neither on the chunking nor on the thread count.
    trials is an integer from 100 to _MC_TRIALS_MAX.
    """
    if not (0.0 < phi < math.pi):
        raise ValueError("phi must lie in (0, pi)")
    if not (isinstance(trials, int) and trials >= 100):
        raise ValueError("need an integer of at least 100 trials")
    if trials > _MC_TRIALS_MAX:
        raise ValueError(f"trials must be <= {_MC_TRIALS_MAX}")
    p = (1.0 + math.cos(phi)) / 2.0
    _check_draw(p, n, seed)
    lo, cdf = _binomial_cdf_table(p, n)
    hist = np.zeros(cdf.size, dtype=np.int64)
    lock = threading.Lock()

    def fill(firsts):
        for first in firsts:
            u = _substream_uniforms(seed, min(_MC_CHUNK, trials - first), 0, first)
            i0, counts = _window_histogram(cdf, u)
            with lock:
                hist[i0:i0 + counts.size] += counts

    firsts = range(0, trials, _MC_CHUNK)
    workers = _mc_workers()
    if workers < 2 or len(firsts) < 2 * workers:
        fill(firsts)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, (firsts[w::workers] for w in range(workers))))
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
