"""Finite-sample binomial statistics and reproducible sampling.

A binary measurement of n shots with outcome law (p, q) gives a count
k ~ B(n, p), so the sampler takes (p, q, n), checked once by _check_draw;
q is given, not formed from p.  binomial_weights is the package's one
binomial pmf.  draw_count_matrix draws one count per trial, and
count_histogram counts a seeded run over the CDF table without forming
its counts; both invert the table by np.searchsorted.

Reproducibility contract: trial t consumes a substream derived only
from (seed, t), so results are independent of evaluation order and of
how many trials are requested (the first T trials of a longer run are
bit-identical to a run of T trials).  The substream is a counter-based
hash (splitmix-style finalizer), not a stateful generator.  Counts are
produced by exact inversion of the binomial CDF; no normal
approximation anywhere.  The CDF table covers binomial_weights' window,
whose excluded tails each hold less than 2**-64 of the mass, built with
numpy alone from the pmf ratio recurrence, and ends at exactly 1.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import _mc_workers

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_SEED_MAX = 2**64 - 1
_COUNT_MAX = 2**63 - 1
# CDF window: starting half-width in standard deviations plus a pad,
# the tail mass each excluded side may hold, and the largest table built.
_WINDOW_SIGMAS = 12
_WINDOW_PAD = 64
_TAIL_MASS = 2.0**-64
_WINDOW_MAX = 2**22
# Trials per chunk in count_histogram, whose uniforms are sorted and then
# counted over the CDF window (arrays of 2**16 trials stay in L2), and the
# most trials a run takes, so that no trial count runs for hours.
_MC_CHUNK = 2**16
_MC_TRIALS_MAX = 2**32


def _check_draw(p: float, q: float, n: int, seed: int = 0, trials: int = 1):
    """Refuse `trials` draws of n shots with outcome law (p, q) under seed:
    trials must be an int from 1 to _MC_TRIALS_MAX (checked first), p and q
    lie in [0, 1] and sum to 1 within 4 ulp, n be an int from 1 to
    _COUNT_MAX (counts are int64), and seed fit in 64 unsigned bits."""
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be a positive integer")
    if trials > _MC_TRIALS_MAX:
        raise ValueError(f"trials must be <= {_MC_TRIALS_MAX}")
    for name, x in (("p", p), ("q", q)):
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    if abs((p + q) - 1.0) > 4 * 2.0**-52:
        raise ValueError("p and q must sum to 1")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if n > _COUNT_MAX:
        raise ValueError(f"shot count n must be <= 2**63 - 1 = {_COUNT_MAX} "
                         "to be drawn as int64 counts")
    if not (isinstance(seed, int) and 0 <= seed <= _SEED_MAX):
        raise ValueError("seed must be an unsigned 64-bit integer")


def _mix64(z, scratch):
    """64-bit avalanche finalizer (Stafford mix 13), in place on the uint64
    array z; scratch is a uint64 array of z's size for the shifts."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, _U64(shift), out=scratch)
        z ^= scratch
        z *= _U64(factor)
    np.right_shift(z, _U64(31), out=scratch)
    z ^= scratch


def _substream_uniforms(seed: int, trials: int, first: int = 0) -> np.ndarray:
    """One uniform in (0, 1] for each trial first..first+trials-1, from the
    (seed, trial) counter.

    The hash runs in place in one uint64 buffer, with one scratch buffer
    for its shifts that then holds the uniforms; uint64 arrays wrap
    silently, which is the point of the hash.
    """
    h = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
    scratch = np.empty_like(h)
    h *= _GOLDEN
    h += _U64(seed)
    _mix64(h, scratch)
    h += _GOLDEN  # the draw word: one draw per trial, (0 + 1) * _GOLDEN
    _mix64(h, scratch)
    h >>= _U64(11)
    u = scratch.view(np.float64)
    np.copyto(u, h, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


def binomial_weights(p: float, q: float, n: int):
    """The pmf of k ~ B(n, p) under the law (p, q) relative to its mode, as
    (lo, weights) with weights[i] = P(K = lo + i) / P(K = mode).

    p or q zero: the one certain count, (0 or n, [1.0]).  Otherwise a
    window lo..hi around the mode, from the ratio recurrence
    pmf[k+1]/pmf[k] = (n-k) p / ((k+1) q), a running product on each side
    of the mode's 1.0.  The window starts at +-(12 sigma + 64), which
    spans 0..n for n <= 64, and doubles until a geometric bound puts each
    excluded tail below 2**-64: the ratios fall monotonically away from
    the mode, so the first ratio past an edge bounds every later one.
    A window of more than _WINDOW_MAX entries is refused.
    """
    _check_draw(p, q, n)
    if p == 0.0 or q == 0.0:
        return (0 if p == 0.0 else n), np.ones(1)
    mode = min(int((n + 1) * p), n)
    half = math.ceil(_WINDOW_SIGMAS * math.sqrt(n * p * q)) + _WINDOW_PAD
    while True:
        lo, hi = max(mode - half, 0), min(mode + half, n)
        if hi - lo + 1 > _WINDOW_MAX:
            raise ValueError(
                f"binomial CDF window of {hi - lo + 1} entries exceeds "
                f"{_WINDOW_MAX}; n p (1 - p) is too large to sample"
            )
        i = np.arange(hi - mode, dtype=np.float64)
        up = np.cumprod((float(n - mode) - i) * p / ((mode + 1.0 + i) * q))
        i = np.arange(mode - lo, dtype=np.float64)
        down = np.cumprod((mode - i) * q / ((float(n - mode) + 1.0 + i) * p))
        # ratio to the first excluded term on each side, and the tail bound
        r_hi = (n - hi) * p / ((hi + 1) * q)
        r_lo = lo * q / ((n - lo + 1) * p)
        if max(r_hi, r_lo) < 1.0:
            tail_hi = up[-1] * r_hi / (1.0 - r_hi) if hi < n else 0.0
            tail_lo = down[-1] * r_lo / (1.0 - r_lo) if lo > 0 else 0.0
            if max(tail_hi, tail_lo) < _TAIL_MASS:
                break
        half *= 2
    return lo, np.concatenate((down[::-1], [1.0], up))


def _binomial_cdf_table(p: float, q: float, n: int):
    """CDF of the law (p, q) as (lo, cdf) with cdf[i] = P(K <= lo + i), the
    running sum of binomial_weights.  Substream uniforms are multiples of
    2**-54 in [2**-54, 1], so none below 1 lands in an excluded tail, and
    cdf ends at exactly 1: every uniform inverts inside the table."""
    lo, weights = binomial_weights(p, q, n)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return lo, cdf


def _window_histogram(cdf: np.ndarray, u: np.ndarray):
    """How many of the uniforms u invert to each count of the CDF window
    cdf, as (i0, counts): counts[j] draws fell at window index i0 + j.

    The same counts as a bincount of the first k with u <= cdf[k]: u is
    sorted in place, then a window shorter than u is searched for in u
    (cost W log T, no index per draw), and a longer one is inverted by
    the sorted u (cost T log W, the keys in order).  In both, a uniform
    equal to cdf[k] counts at k, and none lies above cdf[-1] = 1.
    """
    u.sort()
    if cdf.size < u.size:
        return 0, np.diff(np.searchsorted(u, cdf, side="right"), prepend=0)
    k = np.searchsorted(cdf, u)
    i0 = int(k[0])
    k -= i0
    return i0, np.bincount(k)


def draw_count_matrix(p: float, q: float, n: int, seed: int, trials: int) -> np.ndarray:
    """Binomial counts k ~ B(n, p) for `trials` independent trials, one
    int64 count each: k inverts the CDF of the law (p, q) at a uniform."""
    _check_draw(p, q, n, seed, trials)
    lo, cdf = _binomial_cdf_table(p, q, n)
    return lo + np.searchsorted(cdf, _substream_uniforms(seed, trials))


def count_histogram(p: float, q: float, n: int, seed: int, trials: int):
    """How many of `trials` draws k ~ B(n, p) fell at each count, as
    (lo, hist): hist[j] trials drew k = lo + j, the bincount of
    draw_count_matrix(p, q, n, seed, trials) - lo.

    The inputs are checked and the CDF table built (or a too wide window
    refused) before any draw.  Trials are drawn in chunks of _MC_CHUNK,
    each counted over the table's window by _window_histogram and added
    under a lock to one integer histogram, so memory does not grow with
    trials.  W = _mc_workers() threads draw (numpy releases the GIL),
    thread w taking every W-th chunk from chunk w: the calling thread is
    thread 0 and starts the other W - 1.  A run below two chunks per
    worker, where a pool costs more than it saves, is a pool of one.  The
    first exception on any thread, the calling one included, is raised
    here once all have ended.  Integer counts add exactly, so the result
    depends on neither the chunking nor the thread count.
    """
    _check_draw(p, q, n, seed, trials)
    lo, cdf = _binomial_cdf_table(p, q, n)
    hist = np.zeros(cdf.size, dtype=np.int64)
    lock, failed = threading.Lock(), []
    firsts = range(0, trials, _MC_CHUNK)
    workers = _mc_workers()
    if len(firsts) < 2 * workers:
        workers = 1

    def fill(w):
        try:
            for first in firsts[w::workers]:
                u = _substream_uniforms(seed, min(_MC_CHUNK, trials - first), first)
                i0, counts = _window_histogram(cdf, u)
                with lock:
                    hist[i0:i0 + counts.size] += counts
        except BaseException as exc:  # raised once every thread has ended
            failed.append(exc)

    threads = [threading.Thread(target=fill, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    fill(0)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return lo, hist
