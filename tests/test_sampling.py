import bisect
import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import numpy as np
import pytest

from helpers import (
    binomial_cdf_mp,
    binomial_mode,
    phase_estimate_moments_mp,
    seed_of_draw_word,
    substream_uniform_ref,
)
from metrotrade import cli, sampling
from metrotrade.bounds import _outcome_law
from metrotrade.estimation import monte_carlo_report
from metrotrade.sampling import (
    _MC_CHUNK,
    _binomial_cdf_table,
    _substream_uniforms,
    _window_histogram,
    binomial_weights,
    count_histogram,
    draw_count_matrix,
)


@pytest.mark.parametrize("p, n, seed, message", [
    (-0.1, 10, 0, r"^p must lie in \[0, 1\]$"),
    (1.5, 10, 0, r"^p must lie in \[0, 1\]$"),
    (0.5, 0, 0, "^n must be a positive integer$"),
    (0.5, -1, 0, "^n must be a positive integer$"),
    (0.5, 2.0, 0, "^n must be a positive integer$"),
    (0.5, 2**63, 0, r"^shot count n must be <= 2\*\*63 - 1 = 9223372036854775807 "),
    (0.5, 10, -1, "^seed must be an unsigned 64-bit integer$"),
    (0.5, 10, 2**64, "^seed must be an unsigned 64-bit integer$"),
], ids=["p-below-0", "p-above-1", "n-zero", "n-negative", "n-float", "n-past-int64",
        "seed-negative", "seed-past-64-bits"])
def test_draws_refuse_bad_p_n_and_seed(p, n, seed, message):
    # one check refuses each bad input before any table is built, for the
    # per-trial draws and for a report (whose law (cos**2, sin**2)(phi / 2)
    # is always in [0, 1], so it meets only the n and seed cases)
    with pytest.raises(ValueError, match=message):
        draw_count_matrix(p, 1.0 - p, n, seed, 5)
    if 0.0 <= p <= 1.0:
        with pytest.raises(ValueError, match=message):
            monte_carlo_report(math.pi / 2.0, n, 100, seed)


def _law(phi):
    """The outcome law (p, q) at phi, as two Python floats."""
    p, q = _outcome_law(phi)
    return float(p), float(q)


@pytest.mark.parametrize("p, q, message", [
    (0.5, -0.5, r"^q must lie in \[0, 1\]$"),
    (0.5, 1.5, r"^q must lie in \[0, 1\]$"),
    (0.5, math.nan, r"^q must lie in \[0, 1\]$"),
    (0.3, 0.3, "^p and q must sum to 1$"),
    (0.5, 0.5 + 5 * 2.0**-52, "^p and q must sum to 1$"),
])
def test_draws_refuse_a_law_whose_q_is_off(p, q, message):
    # q is checked as p is, and the pair must sum to 1 within 4 ulp
    for draw in (lambda: draw_count_matrix(p, q, 10, 0, 5),
                 lambda: count_histogram(p, q, 10, 0, 5),
                 lambda: binomial_weights(p, q, 10)):
        with pytest.raises(ValueError, match=message):
            draw()
    assert draw_count_matrix(0.5, 0.5 + 4 * 2.0**-52, 10, 0, 5).shape == (5,)


def test_law_of_a_phase_sums_to_one_within_an_ulp():
    # the sampler's 4-ulp slack holds the law of every phase with room
    phi = np.random.default_rng(5).uniform(0.0, math.pi, 10**5)
    p, q = _outcome_law(phi)
    assert np.max(np.abs((p + q) - 1.0)) <= 2.0**-52


def _comb_pmf(p, q, n):
    """The pmf of B(n, p) under the law (p, q) over k = 0..n, term by term
    from math.comb."""
    return np.array([math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)])


def _normalized(weights):
    return weights / math.fsum(weights.tolist())


def test_binomial_weights_two_shots():
    lo, weights = binomial_weights(0.5, 0.5, 2)
    assert weights.dtype == np.float64
    assert (lo, weights.tolist()) == (0, [0.5, 1.0, 0.5])


def test_binomial_weights_degenerate():
    # a certain count is the window's one entry: every other count has no mass
    assert [(lo, w.tolist()) for lo, w in (binomial_weights(0.0, 1.0, 5),
                                           binomial_weights(1.0, 0.0, 5))] == [
        (0, [1.0]), (5, [1.0])]


def test_binomial_weights_mean_identity():
    lo, weights = binomial_weights(0.3, 0.7, 10)
    pmf = _normalized(weights)
    mean = math.fsum(k * w for k, w in zip(range(lo, lo + pmf.size), pmf.tolist()))
    assert abs(mean - 3.0) < 1e-12


def test_binomial_weights_sum_to_one_after_normalizing():
    for p in (0.01, 0.3, 0.5, 0.77, 0.999):
        q = 1.0 - p
        lo, weights = binomial_weights(p, q, 64)
        # the window spans 0..64, relative to the mode, whose weight is 1
        assert (lo, weights.shape) == (0, (65,))
        assert weights[min(int(65 * p), 64)] == 1.0 == weights.max()
        pmf = _normalized(weights)
        assert abs(math.fsum(pmf.tolist()) - 1.0) < 1e-12
        assert np.allclose(pmf, _comb_pmf(p, q, 64), rtol=1e-12, atol=0.0)


def test_binomial_weights_match_mpmath():
    p, n = 0.37, 20
    with mpmath.workprec(160):
        big_p = mpmath.mpf(p)
        ref = [float(mpmath.binomial(n, k) * big_p**k * (1 - big_p) ** (n - k))
               for k in range(n + 1)]
    lo, weights = binomial_weights(p, 1.0 - p, n)
    assert lo == 0
    assert np.allclose(_normalized(weights), ref, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("n", [7, 65, 2**40])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_draw_samples_certain_outcome(p, n):
    # the table holds the one certain count at small and large n
    k = 0 if p == 0.0 else n
    lo, cdf = _binomial_cdf_table(p, 1.0 - p, n)
    assert (lo, cdf.tolist()) == (k, [1.0])
    counts = draw_count_matrix(p, 1.0 - p, n, seed=123, trials=20)
    assert counts.dtype == np.int64
    assert counts.tolist() == [k] * 20


def test_draw_refuses_counts_past_int64():
    with pytest.raises(ValueError, match=r"<= 2\*\*63 - 1"):
        draw_count_matrix(1.0, 0.0, 2**63, seed=0, trials=1)
    assert draw_count_matrix(1.0, 0.0, 2**63 - 1, seed=0, trials=1).tolist() == [2**63 - 1]


def test_draw_samples_deterministic():
    a = draw_count_matrix(0.42, 0.58, 30, seed=99, trials=50)
    b = draw_count_matrix(0.42, 0.58, 30, seed=99, trials=50)
    assert np.array_equal(a, b)


def test_draw_samples_prefix_stable():
    # the first T trials never depend on how many more are requested
    short = draw_count_matrix(0.42, 0.58, 30, seed=5, trials=100)
    long = draw_count_matrix(0.42, 0.58, 30, seed=5, trials=1000)
    assert np.array_equal(short, long[:100])


def test_draw_samples_seed_sensitivity():
    a = draw_count_matrix(0.42, 0.58, 30, seed=1, trials=200)
    b = draw_count_matrix(0.42, 0.58, 30, seed=2, trials=200)
    assert not np.array_equal(a, b)


def test_draw_samples_clt_mean():
    # grand mean of k/n over T trials within 4 sigma of p
    n, trials = 10**4, 10**4
    counts = draw_count_matrix(0.5, 0.5, n, seed=2024, trials=trials)
    grand = counts.mean() / n
    assert abs(grand - 0.5) <= 2e-4


def test_empirical_pmf_total_variation():
    trials = 10**5
    for n, p in ((4, 0.3), (4, 0.5), (16, 0.3), (16, 0.5)):
        counts = draw_count_matrix(p, 1.0 - p, n, seed=7, trials=trials)
        hist = np.bincount(counts, minlength=n + 1) / trials
        exact = _comb_pmf(p, 1.0 - p, n)
        tv = 0.5 * np.abs(hist - exact).sum()
        assert tv <= 0.01


def test_multinomial_matches_exact_marginal():
    # both outcomes of a binary draw are binomial: k ~ B(n, p), n - k ~ B(n, q)
    n, p, q, trials = 12, 0.25, 0.75, 10**5
    k = draw_count_matrix(p, q, n, seed=3, trials=trials)
    assert ((k >= 0) & (k <= n)).all()
    for counts, law in ((k, (p, q)), (n - k, (q, p))):
        hist = np.bincount(counts, minlength=n + 1) / trials
        exact = _comb_pmf(*law, n)
        assert 0.5 * np.abs(hist - exact).sum() <= 0.01


def test_seed_validation():
    with pytest.raises(ValueError):
        draw_count_matrix(0.5, 0.5, 4, seed=0, trials=0)
    # seeds outside 64 unsigned bits are refused in
    # test_draws_refuse_bad_p_n_and_seed; the extreme seeds are legal
    assert draw_count_matrix(0.5, 0.5, 4, seed=2**64 - 1, trials=2).shape == (2,)
    assert draw_count_matrix(0.5, 0.5, 4, seed=0, trials=2).shape == (2,)


def test_windowed_table_fixes_off_by_one_draw():
    # a log-gamma table over 0..n lost ~1e-9 of relative accuracy at
    # n = 1e7 and inverted this draw one count low
    n, (p, q) = 10**7, _law(0.9)
    lo, cdf = _binomial_cdf_table(p, q, n)
    u = _substream_uniforms(12345, 1, 105301)
    k = int(lo + np.searchsorted(cdf, u)[0])
    u = u[0]
    assert k == 8112212
    assert binomial_cdf_mp(n, p, k - 1, q) < mpmath.mpf(u) <= binomial_cdf_mp(n, p, k, q)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("cuts", [0, 1])
@pytest.mark.parametrize("first", [0, 2**32 - 3])
def test_substream_uniforms_match_splitmix_reference(seed, cuts, first):
    # the hash in place on uint64 arrays is the splitmix finalizer on
    # integers, also for trial indices past 2**32, and a run cut into
    # calls at later first trials (as count_histogram draws its chunks)
    # is the same run, of uniforms in [2**-54, 1]
    starts = [first, first + 2][:cuts + 1]
    ends = starts[1:] + [first + 6]
    u = np.concatenate([_substream_uniforms(seed, b - a, a) for a, b in zip(starts, ends)])
    assert u.dtype == np.float64
    assert u.tolist() == [substream_uniform_ref(seed, t) for t in range(first, first + 6)]
    assert 2.0**-54 <= u.min() and u.max() <= 1.0


def test_substream_uniforms_do_not_read_or_share_their_buffers():
    # a buffer left full of stale words draws the same uniforms as a fresh
    # one, here for the 3-trial last chunk of a run of 30 chunks and 3
    first = 30 * _MC_CHUNK
    stale = np.full((2, _MC_CHUNK), 2**64 - 1, dtype=np.uint64)
    u = _substream_uniforms(7, 3, first, stale)
    assert u.tolist() == _substream_uniforms(7, 3, first).tolist()
    assert u.tolist() == [substream_uniform_ref(7, t) for t in range(first, first + 3)]
    # calls without a buffer each draw into a fresh one
    a = _substream_uniforms(7, 5)
    kept = a.copy()
    b = _substream_uniforms(8, 5)
    assert np.array_equal(a, kept) and not np.shares_memory(a, b)


@pytest.mark.parametrize("workers", [2, 5])
def test_count_histogram_gives_each_thread_its_own_buffer(monkeypatch, workers):
    # every chunk a thread draws goes into that thread's one buffer, and
    # no two threads draw into the same memory; the spy keeps each buffer
    # alive, so no address is reused within the call
    trials = 2 * workers * _MC_CHUNK + 3
    uniforms, drawn = _substream_uniforms, []

    def spy(*args):
        drawn.append((threading.current_thread(), args[3]))
        return uniforms(*args)

    monkeypatch.setattr(sampling, "_mc_workers", lambda: workers)
    monkeypatch.setattr(sampling, "_substream_uniforms", spy)
    lo, hist = count_histogram(0.3, 0.7, 10, 4, trials)
    assert len(drawn) == 2 * workers + 1
    addresses = {}
    for thread, words in drawn:
        addresses.setdefault(thread, set()).add(words.ctypes.data)
    assert len(addresses) == workers
    assert all(len(owned) == 1 for owned in addresses.values())
    assert len(set.union(*addresses.values())) == workers
    k = draw_count_matrix(0.3, 0.7, 10, 4, trials)
    assert np.array_equal(hist, np.bincount(k - lo, minlength=hist.size))


@pytest.mark.parametrize("word, u_end", [(0, 2.0**-54), (2**64 - 1, 1.0)])
def test_extreme_uniforms_invert_inside_every_table(word, u_end):
    # the seeds whose first draw word is the least and the greatest draw
    # the extreme uniforms, 2**-54 and exactly 1 (2**53 - 1/2 rounds up to
    # 2**53); every table ends at exactly 1, so both invert inside it
    seed = seed_of_draw_word(word)
    assert _substream_uniforms(seed, 1).tolist() == [u_end]
    for phi, n in ((2.5, 40), (0.9, 10), (0.8, 10**7), (math.pi - 1e-9, 2**40), (1e-9, 7)):
        p, q = _law(phi)
        lo, cdf = _binomial_cdf_table(p, q, n)
        i = bisect.bisect_left(cdf.tolist(), u_end)
        assert cdf[-1] == 1.0 and i < cdf.size
        assert draw_count_matrix(p, q, n, seed, 1).tolist() == [lo + i]


def _placed(cdf, i0, counts):
    hist = np.zeros(cdf.size, dtype=np.int64)
    hist[i0:i0 + counts.size] = counts
    return hist


@pytest.mark.parametrize("phi, n, trials", [
    (1e-9, 7, 1000),                    # p rounds to 1: every draw is n
    (math.pi - 1e-9, 2**40, 1000),      # p = 2.5e-19: a short window at 0
    (1e-9, 65, 1),                      # a short window at n, one draw
    (2.5, 40, 5000),                    # a window over 0..n, 1.0 at its top entries
    (0.9, 10, 2**16),
    (0.9, 1, 2**16),                    # narrow windows, counted unsorted
    (0.9, 3, 2**16),
    (0.9, 10, 100000 - 2**16),          # the last chunk of a default run
    (0.9, 15, 2**16),
    (0.0, 40, 2**16),                   # the certain count: a one-entry window
    (2.8, 40, 2**16),                   # 17 entries below 1.0, then 24 at 1.0
    (2.5, 40, 2**16),                   # 25 entries below 1.0: sorted
    (0.8, 10**7, 1000),                 # window longer than the chunk
    (0.8, 10**7, 2**16),                # a 3.5e4-entry window shorter than the chunk
])
def test_window_histogram_is_a_bincount_of_the_draws(phi, n, trials):
    p, q = _law(phi)
    lo, cdf = _binomial_cdf_table(p, q, n)
    k = draw_count_matrix(p, q, n, 9, trials)
    i0, counts = _window_histogram(cdf, _substream_uniforms(9, trials))
    assert counts.sum() == trials
    assert np.array_equal(_placed(cdf, i0, counts), np.bincount(k - lo, minlength=cdf.size))


@pytest.mark.parametrize("size", [30, 500])
def test_window_histogram_counts_ties_and_the_top_clamp(size):
    # uniforms on, just below and just above each CDF entry below 1, and
    # on each entry at the top, all exactly 1 as the last one is, in
    # windows longer and shorter than the draws: with no uniform above
    # the last entry, no index needs a clamp
    n, (p, q) = 40, _law(2.5)
    lo, cdf = _binomial_cdf_table(p, q, n)
    assert lo == 0 and cdf[-1] == 1.0 and cdf.size == n + 1
    below = cdf[cdf < 1.0]
    pool = np.concatenate((below, np.nextafter(below, 0.0), np.nextafter(below, 2.0),
                           cdf[below.size:]))
    u = np.resize(np.random.default_rng(1).permutation(pool), size)
    # the reference inverts each uniform by plain bisection
    keys = cdf.tolist()
    ref = np.bincount([bisect.bisect_left(keys, x) for x in u.tolist()], minlength=cdf.size)
    assert ref.size == cdf.size and ref[below.size] > 0
    i0, counts = _window_histogram(cdf, u.copy())
    assert np.array_equal(_placed(cdf, i0, counts), ref)


@pytest.mark.parametrize("trials", [1, 2, 4095, 2**16])
def test_window_histogram_counts_ties_in_every_window_up_to_past_the_switch(trials):
    # uniforms on, just below and just above each entry below 1, and on
    # the entries at 1, in windows of 1 to 27 entries, one or a third of
    # them at 1: a chunk of 2**16 counts a window with fewer than 24
    # entries below 1.0 unsorted and sorts past it, one of 4095 switches
    # at 18 and one of 2 at 2, and a single uniform is always sorted
    rng = np.random.default_rng(trials)
    unsorted = set()
    for size in range(1, 28):
        for ones in {1, (size + 2) // 3}:
            below = np.sort(rng.random(size - ones))
            if below.size > 2:
                below[1] = below[2]     # a window entry that no draw reaches
            cdf = np.concatenate((below, np.ones(ones)))
            pool = np.concatenate((below, np.nextafter(below, 0.0),
                                   np.nextafter(below, 2.0), np.ones(ones)))
            u = np.resize(rng.permutation(pool), trials)
            values, times = np.unique(u, return_counts=True)
            keys = cdf.tolist()
            ref = np.zeros(size, dtype=np.int64)
            np.add.at(ref, [bisect.bisect_left(keys, x) for x in values.tolist()], times)
            drawn = u.copy()
            i0, counts = _window_histogram(cdf, drawn)
            assert np.array_equal(_placed(cdf, i0, counts), ref), (size, ones)
            # only the sorted path may sort the uniforms in place
            if below.size < sampling._SORT_PASSES * math.log2(trials):
                assert np.array_equal(drawn, u), (size, ones)
                unsorted.add(below.size)
            else:
                assert np.array_equal(drawn, np.sort(u)), (size, ones)
    # the switch falls inside the windows covered, two short of their end
    assert max(unsorted, default=-1) == {1: -1, 2: 1, 4095: 17, 2**16: 23}[trials]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p, n", [
    (0.0, 2**40),       # a one-entry window
    (1.0, 7),
    (0.85, 1),          # narrow windows, counted unsorted
    (0.85, 3),
    (0.85, 10),
    (0.85, 15),
    (0.0289, 40),       # 17 entries below 1.0, then 24 at 1.0
    (0.3, 40),          # a window over 0..n, sorted
    (0.6, 10**7),       # a 3.5e4-entry window, shorter than a chunk
    (0.5, 10**9),       # a 3.8e5-entry window, longer than a chunk
])
def test_count_histogram_is_a_bincount_of_the_draws(monkeypatch, p, n, workers):
    # four chunks and a part: on the calling thread, or on a pool of two
    trials = 4 * _MC_CHUNK + 5
    kernel, callers = _window_histogram, []

    def spy(*args):
        callers.append(threading.current_thread())
        return kernel(*args)

    monkeypatch.setattr(sampling, "_mc_workers", lambda: workers)
    monkeypatch.setattr(sampling, "_window_histogram", spy)
    lo, hist = count_histogram(p, 1.0 - p, n, 9, trials)
    assert len(callers) == 5
    assert all(t is threading.main_thread() for t in callers) == (workers == 1)
    lo_ref, cdf = _binomial_cdf_table(p, 1.0 - p, n)
    k = draw_count_matrix(p, 1.0 - p, n, 9, trials)
    assert lo == lo_ref and hist.dtype == np.int64
    assert np.array_equal(hist, np.bincount(k - lo, minlength=cdf.size))


def test_count_histogram_builds_the_table_once_before_any_draw(monkeypatch):
    table, uniforms, events = _binomial_cdf_table, _substream_uniforms, []
    monkeypatch.setattr(sampling, "_mc_workers", lambda: 2)
    monkeypatch.setattr(sampling, "_binomial_cdf_table",
                        lambda *args: events.append("build") or table(*args))
    monkeypatch.setattr(sampling, "_substream_uniforms",
                        lambda *args: events.append("draw") or uniforms(*args))
    for _ in range(2):
        count_histogram(0.3, 0.7, 10**5, 1, 4 * _MC_CHUNK)
    assert events == 2 * (["build"] + 4 * ["draw"])


def test_count_histogram_memory_does_not_grow_with_trials(monkeypatch):
    # each thread draws every chunk into one buffer that lasts the call,
    # so a run of 40 chunks peaks where one of 3 does, within one buffer
    # (two uint64 words a trial), and a pool of two holds two buffers
    buffer = 2 * 8 * _MC_CHUNK

    def peak(workers, chunks):
        monkeypatch.setattr(sampling, "_mc_workers", lambda: workers)
        tracemalloc.start()
        try:
            count_histogram(0.3, 0.7, 10, 2, chunks * _MC_CHUNK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(1, 40) - peak(1, 3)) <= buffer
    assert peak(2, 40) < 3 * buffer


def test_count_histogram_on_more_threads_than_cpus_loses_no_count(monkeypatch):
    # five threads add to one histogram, switching as often as the
    # interpreter allows; a lost update would break the bincount
    trials = 11 * _MC_CHUNK + 3
    monkeypatch.setattr(sampling, "_mc_workers", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lo, hist = count_histogram(0.3, 0.7, 40, 5, trials)
    finally:
        sys.setswitchinterval(interval)
    k = draw_count_matrix(0.3, 0.7, 40, 5, trials)
    assert np.array_equal(hist, np.bincount(k - lo, minlength=hist.size))


def test_count_histogram_raises_a_workers_exception(monkeypatch):
    # a chunk that fails on a started thread fails the call on the
    # calling thread, and only once every thread has ended
    class Failed(Exception):
        pass

    def fail_off_the_caller(*args):
        if threading.current_thread() is not threading.main_thread():
            raise Failed
        return _window_histogram(*args)

    monkeypatch.setattr(sampling, "_mc_workers", lambda: 3)
    monkeypatch.setattr(sampling, "_window_histogram", fail_off_the_caller)
    threads = threading.active_count()
    with pytest.raises(Failed):
        count_histogram(0.3, 0.7, 40, 1, 6 * _MC_CHUNK)
    assert threading.active_count() == threads


def test_count_histogram_raises_the_calling_threads_exception_once_all_have_ended(
        monkeypatch):
    # the calling thread fails its first chunk, while the started threads
    # are still drawing theirs: the call raises only after they have ended
    class Failed(Exception):
        pass

    drawn = []

    def fail_on_the_caller(*args):
        if threading.current_thread() is threading.main_thread():
            raise Failed
        time.sleep(0.05)
        drawn.append(threading.current_thread())
        return _window_histogram(*args)

    monkeypatch.setattr(sampling, "_mc_workers", lambda: 3)
    monkeypatch.setattr(sampling, "_window_histogram", fail_on_the_caller)
    threads = threading.active_count()
    with pytest.raises(Failed):
        count_histogram(0.3, 0.7, 40, 1, 6 * _MC_CHUNK)
    assert threading.active_count() == threads
    # each of the two started threads drew both of its chunks
    assert len(drawn) == 4 and len(set(drawn)) == 2


@pytest.mark.parametrize("trials, message", [
    (0, "^trials must be a positive integer$"),
    (2**32 + 1, rf"^trials must be <= {2**32}$"),
])
def test_count_histogram_refuses_trials_before_any_draw(monkeypatch, trials, message):
    def refuse(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(sampling, "_binomial_cdf_table", refuse)
    monkeypatch.setattr(sampling, "_substream_uniforms", refuse)
    with pytest.raises(ValueError, match=message):
        count_histogram(0.5, 0.5, 10, 0, trials)


@pytest.mark.parametrize("n", [65, 10**5, 10**7, 1, 2, 10, 40, 64])
@pytest.mark.parametrize("phi", [0.9, 2.5, math.pi - 1e-9])  # p 0.81, 0.1 and 2.5e-19
def test_windowed_cdf_matches_mpmath(n, phi):
    p, q = _law(phi)
    lo, cdf = _binomial_cdf_table(p, q, n)
    assert cdf[-1] == 1.0
    mode = int((n + 1) * p)
    sd = math.sqrt(n * p * q)
    for k in (mode - round(5 * sd), mode, mode + round(5 * sd)):
        k = min(max(k, 0), n)
        ref = binomial_cdf_mp(n, p, k, q)
        assert abs(mpmath.mpf(cdf[k - lo]) - ref) <= 1e-12 * ref, (n, p, k)


def test_windowed_cdf_corrects_rounded_complement():
    # the table is the law with odds p : q, q taken as given.  At phi = 2.5
    # the law's q is 1 - p rounded, 6e-17 relative below the exact
    # complement; 5 sigma below the mode at n = 1e9 the two laws' CDFs part
    # by 3e-12, and the table holds the one with odds p : q
    n, (p, q) = 10**9, _law(2.5)
    assert (1.0 - q) - p == 2.0**-54
    lo, cdf = _binomial_cdf_table(p, q, n)
    k = int((n + 1) * p) - round(5 * math.sqrt(n * p * q))
    ref = binomial_cdf_mp(n, p, k, q)
    assert abs(mpmath.mpf(cdf[k - lo]) - ref) <= 1e-12 * ref
    assert abs(binomial_cdf_mp(n, p, k) - ref) > 1e-12 * ref


def _assert_one_window(p, q, n):
    # the table is the one span mode +- (ceil(12 sigma) + 64) about the
    # exact mode, clipped to 0..n
    lo, cdf = _binomial_cdf_table(p, q, n)
    mode, h = binomial_mode(n, p, q), math.ceil(12 * math.sqrt(n * p * q)) + 64
    assert (lo, cdf.size) == (max(mode - h, 0), min(mode + h, n) - max(mode - h, 0) + 1)
    assert cdf[-1] == 1.0 and (np.diff(cdf) >= 0.0).all()


@pytest.mark.parametrize("n", [65, 10**9])
@pytest.mark.parametrize("p", [1e-12, 0.5, 1.0 - 1e-12])
def test_cdf_window_stays_near_the_mode(n, p):
    _assert_one_window(p, 1.0 - p, n)


def test_cdf_window_stays_near_the_exact_mode_at_a_huge_n():
    # p = 1 - q rounds to 1 and n q = 2.3: the mode is n - 2, 214 counts
    # above the float (n + 1) p
    _assert_one_window(1.0, math.sin(5e-10) ** 2, 2**63 - 808)


def test_huge_n_windows_hold_the_exact_mode_and_match_mpmath():
    # 200 seeded laws with n in [2**53, 2**63) and phi log-uniform in
    # [1e-10, 1e-6]: p is near 1 and sigma runs from 0.1 to 1500 counts,
    # while a float mode (n + 1) p could miss by hundreds and overflow the
    # weights.  Every weight is finite and at most the mode's 1.0 plus
    # 4 ulp, the 1.0 sits at the exact mode, and at every fourth law
    # (mpmath sums ~12 sigma terms for each) the CDF at the mode matches
    rng = np.random.default_rng(16)
    ns = rng.integers(2**53, 2**63, 200).tolist()
    phis = (10.0 ** rng.uniform(-10.0, -6.0, 200)).tolist()
    for i, (n, phi) in enumerate(zip(ns, phis)):
        p, q = _law(phi)
        lo, weights = binomial_weights(p, q, n)
        mode = binomial_mode(n, p, q)
        assert np.isfinite(weights).all() and weights.max() <= 1.0 + 4 * 2.0**-52, (n, phi)
        assert lo <= mode <= lo + weights.size - 1 and weights[mode - lo] == 1.0, (n, phi)
        if i % 4 == 0:
            lo, cdf = _binomial_cdf_table(p, q, n)
            ref = binomial_cdf_mp(n, p, mode, q)
            assert abs(mpmath.mpf(cdf[mode - lo]) - ref) <= 1e-12 * ref, (n, phi)


def test_bias_mc_at_a_huge_n_near_phi_zero_samples_the_law():
    # a window about a float mode 214 counts off overflowed at this argv:
    # numpy warned twice, every trial drew one count and var_phi printed 0.
    # The run must be silent, each moment within 5 standard errors of the
    # exact one
    n, trials = 2**63 - 808, 1000
    argv = ["bias-mc", "--n", str(n), "--phi", "1e-9", "--trials", str(trials)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    header, row = out.getvalue().splitlines()
    rep = dict(zip(header.split(","), row.split(",")))
    ref = phase_estimate_moments_mp(1e-9, n)
    se = {"bias_phi": math.sqrt(ref["var_phi"] / trials),
          "var_phi": math.sqrt((ref["m4c"] - ref["var_phi"] ** 2) / trials)}
    for name, tol in se.items():
        assert abs(float(rep[name]) - ref[name]) <= 5.0 * tol, (name, rep[name], ref[name])


def test_draw_mean_and_prefix_at_large_budget():
    n, p, trials = 10**6, 0.2, 2000
    counts = draw_count_matrix(p, 1.0 - p, n, seed=17, trials=trials)
    assert ((counts >= 0) & (counts <= n)).all()
    se = math.sqrt(n * p * (1.0 - p) / trials)
    assert abs(counts.mean() - n * p) <= 4.0 * se
    # prefix contract: shorter runs repeat the leading counts exactly, and
    # a run that starts at a later trial repeats the counts from there on
    assert np.array_equal(draw_count_matrix(p, 1.0 - p, n, seed=17, trials=300), counts[:300])
    lo, cdf = _binomial_cdf_table(p, 1.0 - p, n)
    assert np.array_equal(
        lo + np.searchsorted(cdf, _substream_uniforms(17, 700, 1300)), counts[1300:]
    )


# Digests of sampled counts and CDF tables, with the table's first count,
# at probes whose window spans 0..n (n = 10) and a part of it; and
# numpy's CPU features as dispatched.
_DISPATCH_PROBE = """
import hashlib, math
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from metrotrade.bounds import _outcome_law
from metrotrade.sampling import _binomial_cdf_table, draw_count_matrix

def digests():
    out = []
    for phi in (math.pi / 4.0, 2.0, 2.5, 3.0):
        p, q = map(float, _outcome_law(phi))
        for n in (10, 10**3, 10**7, 10**9):
            lo, cdf = _binomial_cdf_table(p, q, n)
            counts = draw_count_matrix(p, q, n, 11, 4096)
            out.append(f"{lo} {hashlib.sha256(cdf.tobytes() + counts.tobytes()).hexdigest()}")
    return out
"""
_PROBE = {}
exec(_DISPATCH_PROBE, _PROBE)


@pytest.mark.skipif(not _PROBE["__cpu_features__"].get("X86_V4"),
                    reason="needs AVX-512 (numpy's X86_V4 dispatch)")
def test_counts_and_tables_do_not_depend_on_cpu_dispatch():
    # numpy computes some transcendentals (arcsin, arctan2, ...) to other
    # bits with AVX-512 off; the law of a phase, the tables and the counts
    # must not move with them
    path = [str(Path(sampling.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    script = _DISPATCH_PROBE + "print(__cpu_features__['X86_V4'], *digests(), sep='\\n')\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", *_PROBE["digests"](), ""]
