import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import binomial_cdf_mp
from metrotrade import sampling
from metrotrade.errors import BudgetError
from metrotrade.sampling import (
    EXACT_ENUM_LIMIT,
    _binomial_cdf_table,
    _invert_binomial_fixed,
    _substream_uniforms,
    OutcomeStats,
    binary_stats,
    draw_count_matrix,
    enumerate_binomial,
)


def test_binary_stats_deterministic_outcome():
    s = binary_stats(1.0, 5)
    assert s.probabilities == (1.0, 0.0)


def test_outcome_stats_recompute_invariant():
    # the probabilities are kept as a tuple of floats, whatever was given
    s = OutcomeStats([np.float32(0.25), 0.75], 40)
    assert s.probabilities == (0.25, 0.75)
    assert all(type(p) is float for p in s.probabilities)
    with pytest.raises(ValueError, match="exactly two outcomes"):
        OutcomeStats((0.2, 0.3, 0.5), 40)


def test_outcome_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        OutcomeStats((1.0,), 10)
    with pytest.raises(ValueError):
        OutcomeStats((0.5, 0.6), 10)
    with pytest.raises(ValueError):
        OutcomeStats((0.5, 0.5), 0)
    with pytest.raises(ValueError):
        OutcomeStats((-0.1, 1.1), 10)
    with pytest.raises(ValueError):
        binary_stats(1.5, 10)


def test_enumerate_binomial_two_shots():
    pmf = enumerate_binomial(0.5, 2)
    assert pmf.dtype == np.float64
    assert pmf.tolist() == [0.25, 0.5, 0.25]


def test_enumerate_binomial_degenerate():
    pmf = enumerate_binomial(0.0, 5)
    assert pmf[0] == 1.0
    assert all(pmf[k] == 0.0 for k in range(1, 6))


def test_enumerate_binomial_mean_identity():
    pmf = enumerate_binomial(0.3, 10)
    mean = math.fsum(k * w for k, w in enumerate(pmf.tolist()))
    assert abs(mean - 3.0) < 1e-12


def test_enumerate_binomial_sums_to_one():
    for p in (0.01, 0.3, 0.5, 0.77, 0.999):
        pmf = enumerate_binomial(p, 64)
        assert pmf.shape == (65,)
        # each entry is the math.comb term, bit for bit
        q = 1.0 - p
        assert pmf.tolist() == [math.comb(64, k) * p**k * q ** (64 - k)
                                for k in range(65)]
        assert abs(math.fsum(pmf.tolist()) - 1.0) < 1e-12


def test_enumerate_binomial_matches_mpmath():
    p, n = 0.37, 20
    with mpmath.workprec(160):
        big_p = mpmath.mpf(p)
        ref = [float(mpmath.binomial(n, k) * big_p**k * (1 - big_p) ** (n - k))
               for k in range(n + 1)]
    assert np.allclose(enumerate_binomial(p, n), ref, rtol=1e-12, atol=1e-300)


def test_enumerate_binomial_budget():
    with pytest.raises(BudgetError):
        enumerate_binomial(0.5, EXACT_ENUM_LIMIT + 1)


def test_draw_samples_certain_outcome():
    counts = draw_count_matrix(binary_stats(1.0, 7), seed=123, trials=20)
    assert counts.tolist() == [[7, 0]] * 20


def test_draw_samples_deterministic():
    s = binary_stats(0.42, 30)
    a = draw_count_matrix(s, seed=99, trials=50)
    b = draw_count_matrix(s, seed=99, trials=50)
    assert np.array_equal(a, b)


def test_draw_samples_prefix_stable():
    # the first T trials never depend on how many more are requested
    s = binary_stats(0.42, 30)
    short = draw_count_matrix(s, seed=5, trials=100)
    long = draw_count_matrix(s, seed=5, trials=1000)
    assert np.array_equal(short, long[:100])


def test_draw_samples_seed_sensitivity():
    s = binary_stats(0.42, 30)
    a = draw_count_matrix(s, seed=1, trials=200)
    b = draw_count_matrix(s, seed=2, trials=200)
    assert not np.array_equal(a, b)


def test_draw_samples_clt_mean():
    # grand mean of k/n over T trials within 4 sigma of p
    n, trials = 10**4, 10**4
    counts = draw_count_matrix(binary_stats(0.5, n), seed=2024, trials=trials)
    grand = counts[:, 0].mean() / n
    assert abs(grand - 0.5) <= 2e-4


def test_empirical_pmf_total_variation():
    trials = 10**5
    for n in (4, 16):
        for p in (0.3, 0.5):
            counts = draw_count_matrix(binary_stats(p, n), seed=7, trials=trials)[:, 0]
            hist = np.bincount(counts, minlength=n + 1) / trials
            exact = enumerate_binomial(p, n)
            tv = 0.5 * np.abs(hist - exact).sum()
            assert tv <= 0.01


def test_multinomial_three_outcomes():
    # stats are binary by construction, so the sampler never meets wider ones
    for probs, n in (((0.2, 0.5, 0.3), 60), ((0.2, 0.5, 0.3), 10**6),
                     ((0.1, 0.2, 0.3, 0.4), 12)):
        with pytest.raises(ValueError, match="exactly two outcomes"):
            OutcomeStats(probs, n)


def test_multinomial_matches_exact_marginal():
    # both columns of a binary draw are binomial: k ~ B(n, p0), n - k ~ B(n, p1)
    s = OutcomeStats((0.25, 0.75), 12)
    counts = draw_count_matrix(s, seed=3, trials=10**5)
    assert (counts.sum(axis=1) == 12).all()
    for i, p in enumerate(s.probabilities):
        hist = np.bincount(counts[:, i], minlength=13) / 10**5
        exact = enumerate_binomial(p, 12)
        assert 0.5 * np.abs(hist - exact).sum() <= 0.01


def test_seed_validation():
    s = binary_stats(0.5, 4)
    with pytest.raises(ValueError):
        draw_count_matrix(s, seed=-1, trials=5)
    with pytest.raises(ValueError):
        draw_count_matrix(s, seed=2**64, trials=5)
    with pytest.raises(ValueError):
        draw_count_matrix(s, seed=0, trials=0)
    # extreme seeds are legal
    assert draw_count_matrix(s, seed=2**64 - 1, trials=2).shape == (2, 2)
    assert draw_count_matrix(s, seed=0, trials=2).shape == (2, 2)


def test_windowed_table_fixes_off_by_one_draw():
    # a log-gamma table over 0..n lost ~1e-9 of relative accuracy at
    # n = 1e7 and inverted this draw one count low
    n, p = 10**7, (1.0 + math.cos(0.9)) / 2.0
    u = _substream_uniforms(12345, 10**6, 0)[105301]
    k = int(_invert_binomial_fixed(np.array([u]), n, p)[0])
    assert k == 8112212
    assert binomial_cdf_mp(n, p, k - 1) < mpmath.mpf(u) <= binomial_cdf_mp(n, p, k)


@pytest.mark.parametrize("n", [65, 10**5, 10**7])
@pytest.mark.parametrize("phi", [0.9, 2.5])
def test_windowed_cdf_matches_mpmath(n, phi):
    p = (1.0 + math.cos(phi)) / 2.0
    lo, cdf = _binomial_cdf_table(p, n)
    mode = int((n + 1) * p)
    sd = math.sqrt(n * p * (1.0 - p))
    for k in (mode - round(5 * sd), mode, mode + round(5 * sd)):
        k = min(max(k, 0), n)
        ref = binomial_cdf_mp(n, p, k)
        assert abs(mpmath.mpf(cdf[k - lo]) - ref) <= 1e-12 * ref, (n, p, k)


def test_windowed_cdf_corrects_rounded_complement():
    # at phi = 2.5, 1 - p rounds by 6e-17 relative; uncorrected, the
    # running product 5 sigma below the mode at n = 1e9 is off by 3e-12
    n, p = 10**9, (1.0 + math.cos(2.5)) / 2.0
    lo, cdf = _binomial_cdf_table(p, n)
    k = int((n + 1) * p) - round(5 * math.sqrt(n * p * (1.0 - p)))
    ref = binomial_cdf_mp(n, p, k)
    assert abs(mpmath.mpf(cdf[k - lo]) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("n", [65, 10**9])
@pytest.mark.parametrize("p", [1e-12, 0.5, 1.0 - 1e-12])
def test_cdf_window_stays_near_the_mode(n, p):
    lo, cdf = _binomial_cdf_table(p, n)
    half = 12 * math.sqrt(n * p * (1.0 - p)) + 64
    assert cdf.size <= 4 * half + 1
    assert 0 <= lo and lo + cdf.size - 1 <= n
    assert cdf[-1] == 1.0 and (np.diff(cdf) >= 0.0).all()


def test_multinomial_three_outcomes_large_budget():
    n, trials = 10**6, 2000
    s = binary_stats(0.2, n)
    counts = draw_count_matrix(s, seed=17, trials=trials)
    assert (counts.sum(axis=1) == n).all()
    assert (counts >= 0).all()
    for i, p in enumerate(s.probabilities):
        se = math.sqrt(n * p * (1.0 - p) / trials)
        assert abs(counts[:, i].mean() - n * p) <= 4.0 * se
    # prefix contract: shorter runs repeat the leading rows exactly, and a
    # run that starts at a later trial repeats the rows from there on
    assert np.array_equal(draw_count_matrix(s, seed=17, trials=300), counts[:300])
    assert np.array_equal(
        draw_count_matrix(s, seed=17, trials=700, _first=1300), counts[1300:]
    )


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=500),
)
def test_outcome_stats_property(raw, n):
    total = math.fsum(raw)
    probs = tuple(x / total for x in raw)
    if len(probs) != 2:
        with pytest.raises(ValueError, match="exactly two outcomes"):
            OutcomeStats(probs, n)
        return
    s = OutcomeStats(probs, n)
    assert abs(math.fsum(s.probabilities) - 1.0) < 1e-9


# Digests of sampled counts and CDF tables, with the table's first count,
# at probes that take both the math.comb table and the windowed one; and
# numpy's CPU features as dispatched.
_DISPATCH_PROBE = """
import hashlib, math
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from metrotrade.sampling import _binomial_cdf_table, binary_stats, draw_count_matrix

def digests():
    out = []
    for phi in (math.pi / 4.0, 2.0, 2.5, 3.0):
        p = (1.0 + math.cos(phi)) / 2.0
        for n in (10, 10**3, 10**7, 10**9):
            lo, cdf = _binomial_cdf_table(p, n)
            counts = draw_count_matrix(binary_stats(p, n), 11, 4096)
            out.append(f"{lo} {hashlib.sha256(cdf.tobytes() + counts.tobytes()).hexdigest()}")
    return out
"""
_PROBE = {}
exec(_DISPATCH_PROBE, _PROBE)


@pytest.mark.skipif(not _PROBE["__cpu_features__"].get("X86_V4"),
                    reason="needs AVX-512 (numpy's X86_V4 dispatch)")
def test_counts_and_tables_do_not_depend_on_cpu_dispatch():
    # numpy computes some transcendentals (arccos, exp, ...) to other bits
    # with AVX-512 off; counts and tables must not move with them
    path = [str(Path(sampling.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    script = _DISPATCH_PROBE + "print(__cpu_features__['X86_V4'], *digests(), sep='\\n')\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", *_PROBE["digests"](), ""]
