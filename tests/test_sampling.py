import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from helpers import binomial_cdf_mp
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
    assert s.std_devs == (0.0, 0.0)


def test_binary_stats_fair_coin():
    s = binary_stats(0.5, 100)
    assert abs(s.std_devs[0] - 0.05) < 1e-15


def test_binary_stats_matches_half_sine():
    # sqrt(p(1-p)) = sin(phi)/2 when p = (1 + cos phi)/2
    p = (1.0 + math.cos(0.2)) / 2.0
    s = binary_stats(p, 100)
    assert abs(s.std_devs[0] - math.sin(0.2) / 20.0) < 1e-12


def test_outcome_stats_recompute_invariant():
    s = OutcomeStats((0.2, 0.3, 0.5), 40)
    for p, sd in zip(s.probabilities, s.std_devs):
        assert sd == math.sqrt(p * (1.0 - p) / 40)


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
    assert enumerate_binomial(0.5, 2) == [(0, 0.25), (1, 0.5), (2, 0.25)]


def test_enumerate_binomial_degenerate():
    pmf = dict(enumerate_binomial(0.0, 5))
    assert pmf[0] == 1.0
    assert all(pmf[k] == 0.0 for k in range(1, 6))


def test_enumerate_binomial_mean_identity():
    pmf = enumerate_binomial(0.3, 10)
    mean = math.fsum(k * w for k, w in pmf)
    assert abs(mean - 3.0) < 1e-12


def test_enumerate_binomial_sums_to_one():
    for p in (0.01, 0.3, 0.5, 0.77, 0.999):
        total = math.fsum(w for _, w in enumerate_binomial(p, 64))
        assert abs(total - 1.0) < 1e-12


def test_enumerate_binomial_matches_scipy():
    p, n = 0.37, 20
    ref = scipy_stats.binom.pmf(np.arange(n + 1), n, p)
    got = [w for _, w in enumerate_binomial(p, n)]
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-300)


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
            exact = np.array([w for _, w in enumerate_binomial(p, n)])
            tv = 0.5 * np.abs(hist - exact).sum()
            assert tv <= 0.01


def test_multinomial_three_outcomes():
    s = OutcomeStats((0.2, 0.5, 0.3), 60)
    counts = draw_count_matrix(s, seed=11, trials=4000)
    assert counts.shape == (4000, 3)
    assert (counts.sum(axis=1) == 60).all()
    assert (counts >= 0).all()
    # per-category empirical mean within 4 sigma of n p_i
    for i, p in enumerate(s.probabilities):
        se = math.sqrt(60 * p * (1.0 - p) / 4000)
        assert abs(counts[:, i].mean() - 60 * p) <= 4.0 * se


def test_multinomial_matches_exact_marginal():
    # first category of a 3-way split is binomial(n, p0)
    s = OutcomeStats((0.25, 0.45, 0.3), 12)
    counts = draw_count_matrix(s, seed=3, trials=10**5)[:, 0]
    hist = np.bincount(counts, minlength=13) / 10**5
    exact = np.array([w for _, w in enumerate_binomial(0.25, 12)])
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
    s = OutcomeStats((0.2, 0.5, 0.3), n)
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
    s = OutcomeStats(probs, n)
    assert abs(math.fsum(s.probabilities) - 1.0) < 1e-9
    for p, sd in zip(s.probabilities, s.std_devs):
        assert sd == math.sqrt(p * (1.0 - p) / n)
        assert sd <= 0.5 / math.sqrt(n) + 1e-15
