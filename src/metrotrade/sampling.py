"""Finite-sample binomial statistics and reproducible sampling.

A binary measurement of n shots with outcome law (p, q) gives a count
k ~ B(n, p), so the sampler takes (p, q, n), checked once by _check_draw;
q is given, not formed from p.  binomial_weights is the package's one
binomial pmf.  draw_count_matrix draws one count per trial, and
count_histogram counts a seeded run over the CDF table without forming
its counts.  draw_count_matrix inverts the table by np.searchsorted;
count_histogram counts a window narrow for its chunk by one comparison
pass per entry, and a wider one by np.searchsorted on sorted uniforms.

Reproducibility contract: trial t consumes a substream derived only
from (seed, t), so results are independent of evaluation order and of
how many trials are requested (the first T trials of a longer run are
bit-identical to a run of T trials).  The substream is a counter-based
hash (splitmix-style finalizer), not a stateful generator: trial t's
counter word is seed + (t + 1) G mod 2**64, G the golden-ratio constant,
so a call drawing trials from `first` on forms trial first + i's word as
i G + ((first + 1) G + seed), from a table of i G built once per
process.  Counts are produced by exact inversion of the binomial CDF; no
normal approximation anywhere.  The CDF table covers binomial_weights' window,
+-(ceil(12 sigma) + 64) about the exact mode (all of 0..n for n <= 64),
whose excluded tails each hold under e**-72 of the mass (Bernstein),
built with numpy alone from the pmf ratio recurrence; it ends at exactly 1.
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
# CDF window: half-width in standard deviations plus a pad, and the
# largest table built.
_WINDOW_SIGMAS = 12
_WINDOW_PAD = 64
_WINDOW_MAX = 2**22
# Trials per chunk in count_histogram, whose uniforms are counted over the
# CDF window (arrays of 2**16 trials stay in L2), and the most trials a run
# takes, so that no trial count runs for hours.
_MC_CHUNK = 2**16
_MC_TRIALS_MAX = 2**32
# The counter steps i * _GOLDEN mod 2**64 for i < _MC_CHUNK (512 kB): a
# call's counter words are these plus one offset, so a call takes at most
# _MC_CHUNK trials.  Built in place, as freeing a 512 kB temporary here
# would move malloc's mmap threshold for every later array of the process.
_STEPS = np.arange(_MC_CHUNK, dtype=np.uint64)
_STEPS *= _GOLDEN
_STEPS.flags.writeable = False
# Comparison passes over T uniforms that cost as much as sorting them, per
# log2 T: a window needing fewer passes is counted unsorted (the breakeven
# measured at T = 2**16, _window_histogram).
_SORT_PASSES = 1.5


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


def _substream_uniforms(seed: int, trials: int, first: int = 0,
                        words: np.ndarray | None = None) -> np.ndarray:
    """One uniform in (0, 1] for each trial first..first+trials-1, from the
    (seed, trial) counter, for at most _MC_CHUNK trials (the length of
    _STEPS).

    words is a uint64 buffer of shape (2, >= trials), or None for a fresh
    one.  The hash runs in place in words[0], whose counters are _STEPS
    plus one offset, with words[1] as scratch for its shifts; words[1]
    then holds the uniforms, which are returned as a float64 view of it
    and stay valid until the buffer is drawn into again.  uint64 arrays
    wrap silently, which is the point of the hash.
    """
    if words is None:
        words = np.empty((2, trials), dtype=np.uint64)
    h, scratch = words[0, :trials], words[1, :trials]
    np.add(_STEPS[:trials], _U64(((first + 1) * int(_GOLDEN) + seed) % 2**64), out=h)
    _mix64(h, scratch)
    h += _GOLDEN  # the draw word: one draw per trial, (0 + 1) * _GOLDEN
    _mix64(h, scratch)
    h >>= _U64(11)
    u = scratch.view(np.float64)
    # below 2**53, so exact; numpy converts int64 faster than uint64
    np.copyto(u, h.view(np.int64))
    u += 0.5
    u *= 2.0**-53
    return u


def binomial_weights(p: float, q: float, n: int):
    """The pmf of k ~ B(n, p) under the law (p, q) relative to its mode, as
    (lo, weights) with weights[i] = P(K = lo + i) / P(K = mode).

    p or q zero: the one certain count, (0 or n, [1.0]).  Otherwise the
    mode of the law with odds p : q, floor((n + 1) P), P = p / (p + q), is
    exact, in integers (below n + 1, as q > 0), and the window mode +- h,
    h = ceil(12 sigma) + 64, sigma = sqrt(n p q), is clipped to 0..n and
    refused past _WINDOW_MAX entries.  The weights are running products of
    pmf[k+1]/pmf[k] = (n-k) p / ((k+1) q) on each side of the mode's 1.0.

    Each excluded tail holds under e**-72 (2**-103.8) of the mass.  The
    mode lies in (mean - Q, mean + P], so excluded counts are h or more
    from the mean.  The law's sigma' is sigma / (p + q), p + q within 4 ulp
    of 1, and 12 sigma carries five roundings, so h > t = 12 sigma' + 63
    (sigma' < 2**31).  By Bernstein's inequality each tail is below
    exp(-t**2 / (2 sigma'**2 + 2 t / 3)), whose exponent rises with t and
    exceeds 72 at every sigma' = s >= 0, as (12 s + 63)**2 - 72 (2 s**2 +
    8 s + 42) = 936 s + 945.
    """
    _check_draw(p, q, n)
    if p == 0.0 or q == 0.0:
        return (0 if p == 0.0 else n), np.ones(1)
    (a, da), (b, db) = p.as_integer_ratio(), q.as_integer_ratio()
    mode = (n + 1) * a * db // (a * db + b * da)
    half = math.ceil(_WINDOW_SIGMAS * math.sqrt(n * p * q)) + _WINDOW_PAD
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

    The same counts as a bincount of the first k with u <= cdf[k], so a
    uniform equal to cdf[k] counts at k, and none lies above cdf[-1] = 1.
    A window narrow for the chunk is counted without sorting: one pass of
    np.count_nonzero(u <= cdf[k]) for each entry below the first 1.0,
    whose differences are the counts (every later entry counts 0).  P
    passes cost about P T against T log T for the sort, so they are taken
    when P < _SORT_PASSES log2 T.  Measured (2 cores, numpy 2.4.6 with
    AVX-512), the breakeven is P = 24 at T = 2**16 (a pass 0.013 ms, sort
    and search 0.31 ms) and P = 22 at the 34,464 uniforms that end a
    default run.  Below ~2**14 numpy's per-call cost moves it lower (P = 8
    at 2**12), where either way takes under 0.03 ms.

    Otherwise u is sorted in place (only this path sorts it), then a
    window shorter than u is searched for in u (cost W log T, no index per
    draw), and a longer one is inverted by the sorted u (cost T log W, the
    keys in order).
    """
    passes = int(np.searchsorted(cdf, 1.0))
    if passes < _SORT_PASSES * math.log2(u.size):
        below = [np.count_nonzero(u <= c) for c in cdf[:passes].tolist()]
        return 0, np.diff(below + [u.size], prepend=0)
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
    k = np.empty(trials, dtype=np.int64)
    words = np.empty((2, min(trials, _MC_CHUNK)), dtype=np.uint64)
    for first in range(0, trials, _MC_CHUNK):
        u = _substream_uniforms(seed, min(_MC_CHUNK, trials - first), first, words)
        k[first:first + u.size] = np.searchsorted(cdf, u)
    k += lo
    return k


def count_histogram(p: float, q: float, n: int, seed: int, trials: int):
    """How many of `trials` draws k ~ B(n, p) fell at each count, as
    (lo, hist): hist[j] trials drew k = lo + j, the bincount of
    draw_count_matrix(p, q, n, seed, trials) - lo.

    The inputs are checked and the CDF table built (or a too wide window
    refused) before any draw.  Trials are drawn in chunks of _MC_CHUNK,
    each counted over the table's window by _window_histogram and added
    under a lock to one integer histogram, so memory does not grow with
    trials.  A full chunk is counted unsorted when fewer than 24 table
    entries lie below 1.0 (any n <= 22), at about half the cost of sorting
    it at n = 10 (the breakeven is measured in _window_histogram).
    W = _mc_workers() threads draw (numpy releases the GIL), thread w
    taking every W-th chunk from chunk w: the calling thread is
    thread 0 and starts the other W - 1.  A run below two chunks per
    worker, where a pool costs more than it saves, is a pool of one.  The
    first exception on any thread, the calling one included, is raised
    here once all have ended.  Integer counts add exactly, so the result
    depends on neither the chunking nor the thread count.

    Each thread hashes its chunks into one (2, _MC_CHUNK) uint64 buffer
    of its own, which lasts the call.  Kept past it (per thread or per
    module), no large array would be freed, so glibc's dynamic mmap
    threshold would never rise from its 128 kB start, and every array of
    a wide table would be mapped afresh: the n = 10**7 table took 525-554
    us to build with a 1 MB array held and 359-369 us once one was freed
    (medians of 60 builds in a process, three processes, 2 cores).
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
            words = np.empty((2, min(trials, _MC_CHUNK)), dtype=np.uint64)
            for first in firsts[w::workers]:
                u = _substream_uniforms(seed, min(_MC_CHUNK, trials - first), first,
                                        words)
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
