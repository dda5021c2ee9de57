"""Phase estimation from measured frequencies, and its bias structure.

The observed frequency k/n is an unbiased estimate of the outcome
probability, but pushing it through the arccos inversion to get a
phase is not: the curvature of the inversion turns symmetric
probability noise into a systematic phase offset.  Reports here expose
that split (bias_p vs bias_phi) together with the variance and mean
squared error of the phase estimate.

Two routes are provided.  exact_bias_report enumerates the binomial
distribution outright (n <= 64), monte_carlo_report samples it and
histograms the sampled counts.  Both feed one moment reduction over the
distinct counts k with their weights (the pmf, or the fraction of
trials that drew k), summed with math.fsum so that no accumulation
order can shift the result.  The two must agree within sampling error;
the tests hold them to that.

classical_fisher_values is the Fisher information the measurement
itself carries, an array kernel over Bloch directions and phases.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .sampling import binary_stats, draw_count_matrix, enumerate_binomial


# Trials drawn per draw_count_matrix call in monte_carlo_report (arrays
# of 2**16 trials stay in L2); the most threads that draw them, which is
# also the most processes that format a CSV mesh (cli._mesh_text); and
# the most trials a report takes, so that no trial count runs for hours.
_MC_CHUNK = 2**16
_MC_WORKERS = 4
_MC_TRIALS_MAX = 2**32


class ReportMode(Enum):
    EXACT_ENUMERATION = "ExactEnumeration"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class EstimatorReport:
    """Moments of the frequency and phase estimators at a true phase.

    mse_phi always decomposes as var_phi + bias_phi**2; the constructor
    recomputes the identity and refuses reports that violate it.
    """

    mean_p_hat: float
    bias_p: float
    mean_phi_hat: float
    bias_phi: float
    var_phi: float
    mse_phi: float
    mode: ReportMode

    def __post_init__(self):
        residual = abs(self.mse_phi - (self.var_phi + self.bias_phi**2))
        if residual > 1e-10:
            raise ValueError(
                f"mse/variance/bias decomposition violated by {residual:.3e}"
            )


def _report_from_pmf(phi, p, n, ks, weights, mode):
    """Estimator moments over the counts ks drawn with the given weights."""
    p_hats = ks / n
    phi_hats = np.arccos(2.0 * p_hats - 1.0)
    mean_p = math.fsum((weights * p_hats).tolist())
    mean_phi = math.fsum((weights * phi_hats).tolist())
    var_phi = math.fsum((weights * (phi_hats - mean_phi) ** 2).tolist())
    mse_phi = math.fsum((weights * (phi_hats - phi) ** 2).tolist())
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
        phi, p, n, np.arange(n + 1), enumerate_binomial(p, n),
        ReportMode.EXACT_ENUMERATION,
    )


def _chunk_histogram(stats, seed, trials, first):
    """(lo, bincount) of the first-category counts of trials first,
    first + 1, ... of a run of `trials`, at most _MC_CHUNK of them."""
    counts = draw_count_matrix(
        stats, seed, min(_MC_CHUNK, trials - first), _first=first
    )[:, 0]
    lo = int(counts.min())
    return lo, np.bincount(counts - lo)


def _add_histogram(lo, hist, c_lo, add):
    """Add the histogram add of the values c_lo, c_lo + 1, ... to hist of
    lo, lo + 1, ..., widening it as needed.  Returns the new (lo, hist)."""
    new_lo = min(lo, c_lo)
    merged = np.zeros(max(lo + hist.size, c_lo + add.size) - new_lo, dtype=np.int64)
    merged[lo - new_lo:lo - new_lo + hist.size] += hist
    merged[c_lo - new_lo:c_lo - new_lo + add.size] += add
    return new_lo, merged


def _mc_workers():
    """Workers for a Monte Carlo pool or a CSV mesh: the CPUs this process
    may run on, at most _MC_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_MC_WORKERS, cpus)


def _histograms_in_order(draw, firsts):
    """draw(first) for each first, in order.

    The first chunk is drawn on the calling thread, before any worker
    starts, so it builds the memoised CDF table once (or raises
    BudgetError) for them all.  With at least two chunks per worker the
    rest are drawn on a thread pool (numpy releases the GIL in the
    sampler), at most two per worker ahead of the one being merged, so
    memory does not grow with the chunk count.  Smaller runs stay on the
    calling thread: there a pool costs more, in start-up and per-thread
    malloc arenas, than it saves.
    """
    yield draw(firsts[0])
    workers = _mc_workers()
    if workers < 2 or len(firsts) < 2 * workers:
        yield from map(draw, firsts[1:])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for first in firsts[1:]:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(draw, first))
        while pending:
            yield pending.popleft().result()


def monte_carlo_report(phi: float, n: int, trials: int, seed: int) -> EstimatorReport:
    """Estimator moments from sampled counts (seeded, reproducible).

    Trials are drawn in chunks of _MC_CHUNK, on up to _MC_WORKERS threads,
    so memory does not grow with the trial count, and each chunk is
    reduced to a histogram over its sampled counts.  The histograms are
    merged in chunk order and integer histograms add exactly, so the
    result depends neither on the chunking nor on the thread count.
    Counts lie inside the sampler's CDF window, so the histogram holds at
    most 2**22 entries.  trials is an integer from 100 to _MC_TRIALS_MAX.
    """
    if not (0.0 < phi < math.pi):
        raise ValueError("phi must lie in (0, pi)")
    if not (isinstance(trials, int) and trials >= 100):
        raise ValueError("need an integer of at least 100 trials")
    if trials > _MC_TRIALS_MAX:
        raise ValueError(f"trials must be <= {_MC_TRIALS_MAX}")
    p = (1.0 + math.cos(phi)) / 2.0
    draw = partial(_chunk_histogram, binary_stats(p, n), seed, trials)
    parts = _histograms_in_order(draw, range(0, trials, _MC_CHUNK))
    lo, hist = next(parts)
    for c_lo, add in parts:
        lo, hist = _add_histogram(lo, hist, c_lo, add)
    return _report_from_pmf(
        phi, p, n, lo + np.arange(hist.size), hist / trials,
        ReportMode.MONTE_CARLO,
    )


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
