import math
import sys
import tracemalloc

import numpy as np
import pytest

from metrotrade.estimation import (
    EstimatorReport,
    exact_bias_report,
    _report_from_pmf,
    monte_carlo_report,
)
from metrotrade.bounds import _outcome_law
from metrotrade.sampling import binomial_weights, draw_count_matrix

from helpers import binomial_mode, phase_estimate_moments_mp

EPS = sys.float_info.epsilon
_U = EPS / 2.0

# Enumeration moments at phi = pi/4, n = 10, evaluated beforehand with
# 50-digit arithmetic and rounded to the nearest double.
BIAS_PHI_PI4_N10 = -0.097009403104363581
VAR_PHI_PI4_N10 = 0.16588530539771888
MSE_PHI_PI4_N10 = 0.17529612968838378


def test_exact_report_frozen_values():
    rep = exact_bias_report(math.pi / 4.0, 10)
    assert rep.mode == "ExactEnumeration"
    assert abs(rep.bias_p) < 1e-12
    assert abs(rep.bias_phi - BIAS_PHI_PI4_N10) < 5e-14
    assert abs(rep.var_phi - VAR_PHI_PI4_N10) < 5e-14
    assert abs(rep.mse_phi - MSE_PHI_PI4_N10) < 5e-14


def test_exact_report_symmetry_at_half_pi():
    # binomial symmetry at p = 1/2 meets the estimate's antisymmetry,
    # phi_hat(n - k) = pi - phi_hat(k)
    for n in (4, 10, 16, 33):
        rep = exact_bias_report(math.pi / 2.0, n)
        assert abs(rep.bias_phi) < 1e-12
        assert abs(rep.bias_p) < 1e-12


def test_exact_report_unbiased_p_everywhere():
    for phi in (0.3, 1.0, 2.2, 3.0):
        for n in (3, 17, 64):
            rep = exact_bias_report(phi, n)
            assert abs(rep.bias_p) < 1e-12


def _exact_report_tolerances(ref, phi, n):
    """First-order bounds on the errors of exact_bias_report(phi, n), from
    its roundings, sized by the mpmath law ref of phase_estimate_moments_mp.

    The law (p, q): a cosine and a sine of phi / 2, 2 ulp off, squared.
    The weight of a count j away from the mode is a running product of j
    pmf ratios (n - k) p / ((k + 1) q), each off by the odds p / q (twice
    the law's error) and four roundings: times p, times q, the division
    and the product.  Counts below 2**53 are exact doubles; above, each of
    a ratio's two counts rounds up to three times, in its conversion from
    an int and two additions.  Normalizing
    by the fsum total adds the weighted mean of those errors, the fsum
    and the division.  Each deviation phi_hat - phi: 2 atan2 of two
    square roots is off by 4 eps times phi_hat, and the subtraction
    rounds.  The window's excluded tails, each under e**-72 of the mass,
    are neglected."""
    e_law = 2.0 * (4.0 * _U) + _U
    p, q = map(float, _outcome_law(phi))
    ks, w, hats = ref["counts"], ref["weights"], ref["phi_hats"]
    e_count = 6.0 * _U if n > 2**53 else 0.0
    e_ratio = np.abs(ks - binomial_mode(n, p, q)) * (2.0 * e_law + 4.0 * _U + e_count)

    def fsum(values):
        return math.fsum(values.tolist())

    e_w = e_ratio + fsum(w * e_ratio) + 2.0 * _U
    dev = np.abs(hats - phi)
    d = 4.0 * _U * hats + _U * dev
    bias = fsum(w * d) + fsum(w * (e_w + _U) * dev) + _U * abs(ref["bias_phi"])
    spread = np.abs(hats - phi - ref["bias_phi"])
    eta = d + bias + _U * spread
    mean_p = fsum(w * (e_w + 3.0 * _U) * (ks / n))
    return {
        "mean_p_hat": mean_p,
        "bias_p": mean_p + e_law * ref["mean_p"] + _U,
        "bias_phi": bias,
        "mean_phi_hat": bias + _U * (phi + ref["bias_phi"]),
        "var_phi": fsum(w * (2.0 * spread * eta + eta * eta + (e_w + 4.0 * _U) * spread**2)),
        "mse_phi": fsum(w * (2.0 * dev * d + d * d + (e_w + 4.0 * _U) * dev**2)),
    }


@pytest.mark.parametrize("phi, n", [(1e-9, 10), (3.14, 64), (0.25, 65), (0.02, 10**4),
                                    (1e-4, 10**8), (2e-5, 10**9), (1e-9, 2**63 - 808)])
def test_exact_report_matches_mpmath(phi, n):
    # near 0, p rounds to 1 while the law keeps q = 2.5e-19, so var_phi is
    # the true 1.0e-18 and not 0; near pi the deviations at k = 0 carry the
    # rounding of pi itself, which the bound holds.  Above n = 64 the window
    # is the sampler's, with n q between 0.1 and 2.3.  At n = 2**63 - 808
    # the mode is n - 2, 214 counts above the float (n + 1) p: a window
    # centred there overflowed, and the report raised; the bound there is
    # 35 to 261 ulp of each moment, and the report is within 1
    ref = phase_estimate_moments_mp(phi, n)
    truth = {"mean_p_hat": ref["mean_p"], "bias_p": 0.0, "bias_phi": ref["bias_phi"],
             "mean_phi_hat": phi + ref["bias_phi"], "var_phi": ref["var_phi"],
             "mse_phi": ref["mse_phi"]}
    rep = exact_bias_report(phi, n)
    for name, tol in _exact_report_tolerances(ref, phi, n).items():
        assert abs(getattr(rep, name) - truth[name]) <= tol, (name, getattr(rep, name), truth[name])


def test_monte_carlo_at_a_budget_of_2_62_matches_mpmath():
    # at n = 2**62 and phi = 1e-9, p rounds to 1 but n q = 1.15: n - k is
    # close to Poisson(1.15), and every moment lies within 5 standard
    # errors of the exact one
    phi, n, trials = 1e-9, 2**62, 10**5
    ref = phase_estimate_moments_mp(phi, n)
    assert [f"{ref[key]:.3e}" for key in ("bias_phi", "var_phi", "mse_phi")] == [
        "-1.973e-10", "3.556e-19", "3.945e-19"]
    rep = monte_carlo_report(phi, n, trials, seed=0)
    se = {
        "bias_phi": math.sqrt(ref["var_phi"] / trials),
        "var_phi": math.sqrt((ref["m4c"] - ref["var_phi"] ** 2) / trials),
        "mse_phi": math.sqrt((ref["m4"] - ref["mse_phi"] ** 2) / trials),
    }
    for name, err in se.items():
        assert abs(getattr(rep, name) - ref[name]) <= 5.0 * err, (name, getattr(rep, name))


def test_mse_decomposition_enforced():
    rep = exact_bias_report(1.0, 20)
    assert abs(rep.mse_phi - (rep.var_phi + rep.bias_phi**2)) < 1e-10
    # the guard is relative: moments of 1e-20 that break the identity by
    # half of mse_phi are refused as surely as moments of 1
    for var_phi, mse_phi in [(1.0, 2.0), (2e-20, 1e-20)]:
        with pytest.raises(ValueError):
            EstimatorReport(
                mean_p_hat=0.5,
                bias_p=0.0,
                mean_phi_hat=1.0,
                bias_phi=0.0,
                var_phi=var_phi,
                mse_phi=mse_phi,
                mode="ExactEnumeration",
            )


def test_monte_carlo_matches_exact():
    exact = exact_bias_report(math.pi / 4.0, 10)
    for trials in (10**5, 10**6):
        mc = monte_carlo_report(math.pi / 4.0, 10, trials=trials, seed=0)
        assert mc.mode == "MonteCarlo"
        se = math.sqrt(exact.var_phi / trials)
        assert abs(mc.bias_phi - exact.bias_phi) <= 5.0 * se
        assert abs(mc.mse_phi - (mc.var_phi + mc.bias_phi**2)) < 1e-10


def test_monte_carlo_matches_exact_at_a_large_budget():
    # at n = 10**7 the exact report reduces the sampler's window; each
    # moment of 10**4 trials lies within 5 standard errors of it, verify's
    # rule, with the fourth moments taken over the same window
    phi, n, trials = 1.5, 10**7, 10**4
    exact = exact_bias_report(phi, n)
    lo, weights = binomial_weights(*_law(phi), n)
    ks = lo + np.arange(weights.size)
    dev = 2.0 * np.arctan2(np.sqrt(n - ks), np.sqrt(ks)) - phi
    pmf = weights / math.fsum(weights.tolist())
    m4c = math.fsum((pmf * (dev - exact.bias_phi) ** 4).tolist())
    m4 = math.fsum((pmf * dev**4).tolist())
    se = {
        "bias_phi": math.sqrt(exact.var_phi / trials),
        "var_phi": math.sqrt((m4c - exact.var_phi**2) / trials),
        "mse_phi": math.sqrt((m4 - exact.mse_phi**2) / trials),
    }
    mc = monte_carlo_report(phi, n, trials, seed=0)
    for name, err in se.items():
        assert abs(getattr(mc, name) - getattr(exact, name)) <= 5.0 * err, (
            name, getattr(mc, name), getattr(exact, name))


def test_monte_carlo_symmetry_case():
    mc = monte_carlo_report(math.pi / 2.0, 100, trials=10**5, seed=1)
    assert abs(mc.bias_phi) <= 5.0 * math.sqrt(mc.var_phi / 10**5)


def _law(phi):
    """The outcome law (p, q) at phi, as two Python floats."""
    p, q = _outcome_law(phi)
    return float(p), float(q)


def _one_draw_report(phi, n, trials, seed):
    """The reduction of one unchunked draw_count_matrix call."""
    p, q = _law(phi)
    counts = draw_count_matrix(p, q, n, seed, trials)
    lo = int(counts.min())
    weights = np.bincount(counts - lo) / trials
    return _report_from_pmf(
        phi, p, n, lo + np.arange(weights.size), weights, "MonteCarlo"
    )


@pytest.mark.parametrize("phi", [1e-9, math.pi - 1e-9])
def test_monte_carlo_at_a_certain_outcome_matches_one_draw(phi):
    # one outcome's probability is 2.5e-19, so n times it lies below the
    # smallest uniform, 2**-54, and every draw is n or 0; the other
    # probability rounds to 1, but the law keeps the small one
    p, q = _law(phi)
    small = min(p, q)
    assert 0.0 < small and 100 * small < 2.0**-54 and max(p, q) == 1.0
    rep = monte_carlo_report(phi, 100, 1000, 4)
    assert rep == _one_draw_report(phi, 100, 1000, 4)
    assert rep.mean_p_hat == (1.0 if p > q else 0.0) and rep.var_phi == 0.0


def test_monte_carlo_matches_per_trial_sums():
    # reference: the moments summed trial by trial, each weighted 1/trials;
    # per term the two differ by at most four roundings (the histogram's
    # weights are normalized by their sum), so the sums of these
    # non-negative terms agree to 4 eps relative
    phi, n, seed, trials = 0.7, 10, 3, 10**5
    p, q = _law(phi)
    k = draw_count_matrix(p, q, n, seed, trials)
    dev = 2.0 * np.arctan2(np.sqrt(n - k), np.sqrt(k)) - phi
    w = 1.0 / trials
    bias_phi = math.fsum((w * dev).tolist())
    ref = {
        "mean_p_hat": math.fsum((k / n).tolist()) / trials,
        "mean_phi_hat": phi + bias_phi,
        "var_phi": math.fsum((w * (dev - bias_phi) ** 2).tolist()),
        "mse_phi": math.fsum((w * dev ** 2).tolist()),
    }
    rep = monte_carlo_report(phi, n, trials, seed)
    for name, value in ref.items():
        assert abs(getattr(rep, name) - value) <= 4.0 * EPS * value, name


def test_moment_reduction_memory_does_not_grow_with_distinct_counts():
    # the moments are summed slice by slice, so no list of Python floats
    # is as long as the counts (one of 2**18 floats alone takes 8 MB)
    peaks = []
    for size in (2**12, 2**18):
        ks = np.arange(10**9, 10**9 + size)
        weights = np.full(size, 1.0 / size)
        tracemalloc.start()
        try:
            _report_from_pmf(1.0, 0.5, 2 * 10**9, ks, weights, "MonteCarlo")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**16
    assert peaks[1] < 2**20


def test_bias_decays_with_budget():
    # |bias| trend across three decades, with Monte Carlo slack
    prev = None
    for n in (10, 100, 1000, 10**4):
        rep = monte_carlo_report(math.pi / 4.0, n, trials=10**6, seed=3)
        mag = abs(rep.bias_phi)
        slack = 5.0 * math.sqrt(rep.var_phi / 10**6)
        if prev is not None:
            assert mag <= prev + slack
        prev = mag


def test_report_rejects_bad_domain():
    with pytest.raises(ValueError):
        exact_bias_report(0.0, 10)
    with pytest.raises(ValueError):
        exact_bias_report(math.pi, 10)
    # 100 trials are the least accepted
    assert monte_carlo_report(1.0, 10, trials=100, seed=0).mode == "MonteCarlo"
    with pytest.raises(ValueError, match="^need an integer of at least 100 trials$"):
        monte_carlo_report(1.0, 10, trials=99, seed=0)
