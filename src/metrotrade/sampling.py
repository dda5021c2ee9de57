"""Finite-sample outcome statistics and reproducible sampling.

OutcomeStats holds the two probabilities of a binary outcome and the
shot count n; draw_count_matrix draws binomial counts from them.

Reproducibility contract: trial t consumes a substream derived only
from (seed, t), so results are independent of evaluation order and of
how many trials are requested (the first T trials of a longer run are
bit-identical to a run of T trials).  The substream is a counter-based
hash (splitmix-style finalizer), not a stateful generator.  Counts are
produced by exact inversion of the binomial CDF; no normal
approximation anywhere.  For n <= EXACT_ENUM_LIMIT the CDF table holds
every exact math.comb term; beyond it, the table covers only a window
around the mode whose excluded tails each hold less than 2**-64 of the
mass, built with numpy alone from the pmf ratio recurrence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

EXACT_ENUM_LIMIT = 64
_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_SEED_MAX = 2**64 - 1
# CDF window: starting half-width in standard deviations plus a pad,
# the tail mass each excluded side may hold, and the largest table built.
_WINDOW_SIGMAS = 12
_WINDOW_PAD = 64
_TAIL_MASS = 2.0**-64
_WINDOW_MAX = 2**22


@dataclass(frozen=True)
class OutcomeStats:
    """The two outcome probabilities of a binary measurement, checked to
    lie in [0, 1] and sum to 1, and its positive integer shot count."""

    probabilities: tuple
    sample_budget: int

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if len(probs) != 2:
            raise ValueError("need exactly two outcomes")
        if not isinstance(self.sample_budget, int) or self.sample_budget < 1:
            raise ValueError("sample_budget must be a positive integer")
        for p in probs:
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "probabilities", probs)


def binary_stats(p: float, n: int) -> OutcomeStats:
    """Stats for a yes/no measurement with success probability p over n
    shots; OutcomeStats checks both."""
    return OutcomeStats((p, 1.0 - p), n)


def enumerate_binomial(p: float, n: int):
    """Exact binomial pmf as a float64 array indexed by k = 0..n.

    Coefficients come from integer arithmetic (math.comb), so each term
    is correct to double rounding.  Limited to n <= 64 where that is
    cheap; beyond the limit a BudgetError is raised.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    if n > EXACT_ENUM_LIMIT:
        raise BudgetError(f"exact enumeration supports n <= {EXACT_ENUM_LIMIT}")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    q = 1.0 - p
    return np.array([math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)])


def _mix64(z):
    """64-bit avalanche finalizer (Stafford mix 13), vectorized on uint64."""
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _substream_uniforms(seed: int, trials: int, draw_index: int,
                        first: int = 0) -> np.ndarray:
    """One uniform in (0, 1] for each trial first..first+trials-1, from the
    (seed, trial, draw) counter."""
    t = np.arange(first, first + trials, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # uint64 wraparound is the point of the hash, not an accident
        h = _mix64(_U64(seed) + _GOLDEN * (t + _U64(1)))
        h = _mix64(h + _GOLDEN * _U64(draw_index + 1))
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


@functools.lru_cache(maxsize=1)
def _binomial_cdf_table(p: float, n: int):
    """Binomial CDF as (lo, cdf) with cdf[i] = P(K <= lo + i), for 0 < p < 1.

    The last table is kept, read-only, so a Monte Carlo run drawn in
    chunks builds it once.

    n <= EXACT_ENUM_LIMIT: exact math.comb terms over k = 0..n.  Beyond,
    a window lo..hi around the mode: the pmf relative to the mode comes
    from the ratio recurrence pmf[k+1]/pmf[k] = (n-k) p / ((k+1) q),
    a running product on each side, and is normalised by the window's
    sum.  The window starts at +-(12 sigma + 64) and doubles until a
    geometric bound puts each excluded tail below 2**-64: the ratios
    fall monotonically away from the mode, so the first ratio past an
    edge bounds every later one.  Substream uniforms are multiples of
    2**-54 in [2**-54, 1], so no draw below 1 can land in an excluded
    tail, and the table's last entry is exactly 1.
    """
    if n <= EXACT_ENUM_LIMIT:
        cdf = np.cumsum(enumerate_binomial(p, n))
        cdf.flags.writeable = False
        return 0, cdf
    q = 1.0 - p
    # q rounds when p < 1/2: the exact 1 - p is q (1 + drift), so the j-th
    # running product below is off by (1 + drift)**j, undone by exp(j drift).
    drift = ((1.0 - q) - p) / q
    mode = min(int((n + 1) * p), n)
    half = math.ceil(_WINDOW_SIGMAS * math.sqrt(n * p * q)) + _WINDOW_PAD
    while True:
        lo, hi = max(mode - half, 0), min(mode + half, n)
        if hi - lo + 1 > _WINDOW_MAX:
            raise BudgetError(
                f"binomial CDF window of {hi - lo + 1} entries exceeds "
                f"{_WINDOW_MAX}; n p (1 - p) is too large to sample"
            )
        i = np.arange(hi - mode, dtype=np.float64)
        up = np.cumprod((float(n - mode) - i) * p / ((mode + 1.0 + i) * q))
        up *= np.exp(-drift * (i + 1.0))
        i = np.arange(mode - lo, dtype=np.float64)
        down = np.cumprod((mode - i) * q / ((float(n - mode) + 1.0 + i) * p))
        down *= np.exp(drift * (i + 1.0))
        # ratio to the first excluded term on each side, and the tail bound
        r_hi = (n - hi) * p / ((hi + 1) * q)
        r_lo = lo * q / ((n - lo + 1) * p)
        if max(r_hi, r_lo) < 1.0:
            tail_hi = up[-1] * r_hi / (1.0 - r_hi) if hi < n else 0.0
            tail_lo = down[-1] * r_lo / (1.0 - r_lo) if lo > 0 else 0.0
            if max(tail_hi, tail_lo) < _TAIL_MASS:
                break
        half *= 2
    cdf = np.cumsum(np.concatenate((down[::-1], [1.0], up)))
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return lo, cdf


def _invert_binomial_fixed(u: np.ndarray, n: int, p: float) -> np.ndarray:
    """Exact CDF inversion for a shared shot count n (table + searchsorted)."""
    if p <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if p >= 1.0:
        return np.full(u.shape, n, dtype=np.int64)
    lo, cdf = _binomial_cdf_table(p, n)
    k = np.searchsorted(cdf, u, side="left")
    return lo + np.minimum(k, cdf.size - 1).astype(np.int64)


def _check_seed(seed: int):
    if not isinstance(seed, int) or not (0 <= seed <= _SEED_MAX):
        raise ValueError("seed must be an unsigned 64-bit integer")


def draw_count_matrix(stats: OutcomeStats, seed: int, trials: int,
                      _first: int = 0) -> np.ndarray:
    """Binomial counts for `trials` independent trials, one row (k, n - k)
    each, k the count of the first of two outcomes.

    k inverts the binomial CDF at the trial's draw-0 uniform.  _first is
    the index of the first trial drawn, so a long run can be drawn in
    chunks that match one call row for row.
    """
    _check_seed(seed)
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError("trials must be a positive integer")
    n = stats.sample_budget
    u = _substream_uniforms(seed, trials, 0, _first)
    k = _invert_binomial_fixed(u, n, stats.probabilities[0])
    return np.column_stack((k, n - k))
