import math
import re
import sys

import numpy as np
import pytest

from metrotrade.resources import (
    StrategyKind,
    _min_signals,
    _probe_model,
    fit_scaling,
    quantum_fisher_information,
    strategy_signal_noise,
)
from metrotrade.sampling import draw_count_matrix

from helpers import (
    distinguishable_binary,
    product_fidelity_bruteforce,
    strategy_floor_mp,
    strategy_signal_mp,
)

EPS = sys.float_info.epsilon


def _floor(strat, m, n, alpha=1.0, k=1.0):
    return float(_min_signals(strat, (m,), n, alpha, k)[0])


def test_ensemble_noise_value():
    (sig,), (noise,) = strategy_signal_noise(StrategyKind.ENSEMBLE, (10,), 10, 0.2)
    assert abs(sig - 0.5 * (1.0 - math.cos(0.2))) < 1e-15
    assert abs(noise - math.sin(0.2) / 20.0) < 1e-12


def test_ghz_m1_reduces_to_ensemble():
    phis = (0.01, 0.4, 1.5, 3.0)
    a = strategy_signal_noise(StrategyKind.GHZ, (1,), 50, phis)
    b = strategy_signal_noise(StrategyKind.ENSEMBLE, (1,), 50, phis)
    assert [x.tolist() for x in a] == [x.tolist() for x in b]
    # 2 arccos(sqrt(f0)) vs arccos(2 f0 - 1): equal numbers, different
    # rounding paths, so compare at float resolution instead of by bit
    fa, fb = _floor(StrategyKind.GHZ, 1, 50), _floor(StrategyKind.ENSEMBLE, 1, 50)
    assert math.isclose(fa, fb, rel_tol=1e-14)


def test_all_strategies_reduce_at_m1():
    # one body is one single-qubit probe, so every strategy's floor is the
    # same bound, bit for bit
    for alpha, n in ((1.0, 100), (2.3, 77), (3.0, 7), (0.25, 10**18)):
        ref = _floor(StrategyKind.ENSEMBLE, 1, n, alpha)
        for strat in StrategyKind:
            assert _floor(strat, 1, n, alpha, 2.0) == ref, (strat, alpha, n)


def test_unit_exponent_floor_is_the_bound_over_the_fringe_frequency():
    # (2 / f) atan(alpha / sqrt(s)), bit for bit, for every f, not only
    # the powers of two whose reciprocal is exact
    ms = (3, 7, 10**21)
    for strat in (StrategyKind.GHZ, StrategyKind.NONLINEAR):
        for k in (1.7, 14.3):
            for alpha, n in ((1.0, 100), (2.3, 77), (0.25, 10**18)):
                f, e, s = _probe_model(strat, ms, n, k)
                assert (e == 1.0).all()
                ref = (2.0 / f) * np.arctan(alpha / np.sqrt(s))
                assert _min_signals(strat, ms, n, alpha, k).tolist() == ref.tolist(), \
                    (strat, k, alpha, n)


def test_product_signal_matches_bruteforce():
    (sig,), _ = strategy_signal_noise(StrategyKind.PRODUCT, (2,), 10, math.pi / 2.0)
    oracle = 1.0 - product_fidelity_bruteforce(math.pi / 2.0, 0.0, 2)
    assert abs(sig - 0.75) < 1e-15
    assert abs(sig - oracle) < 1e-12


def test_product_noise_approximation():
    # sqrt(F(1-F)/N) tracks sqrt(M) phi / (2 sqrt(N)) for small phi
    ms = np.array([1, 4, 16])
    phis = 0.1 / np.sqrt(ms)
    for n in (10, 100):
        _, noise = strategy_signal_noise(StrategyKind.PRODUCT, ms, n, phis)
        approx = np.sqrt(ms) * phis / (2.0 * math.sqrt(n))
        assert (np.abs(noise - approx) <= 0.1 * approx).all()


def test_ensemble_pool_equivalence():
    # M by N and 1 by MN are the same resource, bit for bit
    for m, n in ((2, 50), (10, 10), (25, 4)):
        a = _floor(StrategyKind.ENSEMBLE, m, n)
        b = _floor(StrategyKind.ENSEMBLE, 1, m * n)
        assert a == b


def test_min_signal_reference_points():
    # single-qubit bound at M=1, N=100
    ref = math.acos(99.0 / 101.0)
    got = _floor(StrategyKind.GHZ, 1, 100)
    assert abs(got - ref) < 1e-15
    # asymptotic laws at M=4, N=100
    prod = _floor(StrategyKind.PRODUCT, 4, 100)
    assert abs(prod - 0.1) <= 0.002
    ghz = _floor(StrategyKind.GHZ, 4, 100)
    assert abs(ghz - 0.05) <= 0.001


def test_signal_equals_alpha_noise_at_floor():
    for strat in StrategyKind:
        for alpha in (0.5, 1.0, 2.0):
            floor = _floor(strat, 4, 100, alpha, 2.0)
            (sig,), (noise,) = strategy_signal_noise(strat, (4,), 100, floor, 2.0)
            assert abs(sig - alpha * noise) < 1e-12


def _refusal(line):
    return pytest.raises(ValueError, match=f"^{re.escape(line)}$")


def test_branch_enforcement():
    ghz = StrategyKind.GHZ
    with _refusal("phi=1.5708 outside the monotone branch (0, 0.785398)"):
        strategy_signal_noise(ghz, (4,), 100, math.pi / 2.0)
    with _refusal("phi=0 outside the monotone branch (0, 0.785398)"):
        strategy_signal_noise(ghz, (4,), 100, 0.0)
    # over a grid, the branch of the first probe size that excludes phi
    with _refusal("phi=1.5708 outside the monotone branch (0, 1.5708)"):
        strategy_signal_noise(ghz, (1, 2, 4), 100, math.pi / 2.0)
    # pi/8 is inside the branch for M=4
    strategy_signal_noise(ghz, (4,), 100, math.pi / 8.0)


def test_config_validation():
    ghz, nonlinear = StrategyKind.GHZ, StrategyKind.NONLINEAR
    with _refusal("m must be a positive integer"):
        fit_scaling(ghz, [0, 2], 10, 1.0)
    with _refusal("n must be a positive integer"):
        fit_scaling(ghz, [2, 3], 0, 1.0)
    with _refusal("alpha must be positive and finite"):
        fit_scaling(ghz, [2, 3], 10, -1.0)
    with _refusal("nonlinear_exponent must be >= 1"):
        fit_scaling(nonlinear, [2, 3], 10, 1.0, nonlinear_exponent=0.3)
    # the kernels share the check
    with _refusal("m must be a positive integer"):
        strategy_signal_noise(ghz, (0,), 10, 0.1)
    with _refusal("n must be a positive integer"):
        _min_signals(ghz, (2,), 0, 1.0)
    with _refusal("nonlinear_exponent must be >= 1"):
        quantum_fisher_information(nonlinear, (2,), 0.3)


def test_refusal_order():
    # M, n, alpha, k, then the M**k overflow: each line names the first
    # bad input, whichever come after it
    ghz, nonlinear = StrategyKind.GHZ, StrategyKind.NONLINEAR
    with _refusal("m must be a positive integer"):
        fit_scaling(ghz, [0, 2], 0, -1.0)
    with _refusal("n must be a positive integer"):
        fit_scaling(ghz, [1, 2], 0, -1.0, nonlinear_exponent=0.3)
    with _refusal("alpha must be positive and finite"):
        fit_scaling(nonlinear, [1, 2], 10, -1.0, nonlinear_exponent=0.3)
    with _refusal("nonlinear_exponent must be >= 1"):
        fit_scaling(nonlinear, [1, 2], 10, 1.0, nonlinear_exponent=0.3)
    with _refusal("M**k = 2**1e+308 overflows a float"):
        fit_scaling(nonlinear, [1, 2], 10, 1.0, nonlinear_exponent=1e308)


def test_grid_must_hold_integers():
    # int() would truncate 2.5 and 4.9 to 2 and 4; a float M is refused,
    # even a whole one, and numpy integers pass as ints
    with _refusal("m must be a positive integer"):
        fit_scaling(StrategyKind.GHZ, [2.5, 4.9], 100, 1.0)
    with _refusal("m must be a positive integer"):
        fit_scaling(StrategyKind.GHZ, [2.0, 4.0], 100, 1.0)
    rep = fit_scaling(StrategyKind.GHZ, np.array([2, 4]), 100, 1.0)
    assert rep.m_values == (2, 4)
    assert all(type(m) is int for m in rep.m_values)
    assert rep == fit_scaling(StrategyKind.GHZ, [2, 4], 100, 1.0)


def test_fitted_slopes():
    grid = [2, 4, 8, 16, 32]
    assert abs(fit_scaling(StrategyKind.ENSEMBLE, grid, 100, 1.0).fitted_exponent + 0.5) <= 0.05
    assert abs(fit_scaling(StrategyKind.PRODUCT, grid, 100, 1.0).fitted_exponent + 0.5) <= 0.05
    assert abs(fit_scaling(StrategyKind.GHZ, grid, 100, 1.0).fitted_exponent + 1.0) <= 0.05
    slope = fit_scaling(
        StrategyKind.NONLINEAR, [2, 4, 8, 16], 100, 1.0, nonlinear_exponent=2.0
    ).fitted_exponent
    assert abs(slope + 2.0) <= 0.1


def test_fit_scaling_report_shape():
    rep = fit_scaling(StrategyKind.GHZ, [2, 4, 8], 100, 1.0)
    assert rep.m_values == (2, 4, 8)
    assert len(rep.phis) == 3
    # floors shrink with M, but the fidelity AT the floor is pinned to
    # the critical value, so the floor noise is the same for every M
    assert rep.phis[0] > rep.phis[1] > rep.phis[2]
    ref_noise = math.sqrt((100.0 / 101.0) * (1.0 / 101.0) / 100.0)
    sig, noise = strategy_signal_noise(StrategyKind.GHZ, rep.m_values, 100, rep.phis)
    assert (np.abs(noise - ref_noise) < 1e-12).all()
    assert (np.abs(sig - noise) < 1e-12).all()


def test_fit_scaling_degenerate_grid():
    with pytest.raises(ValueError):
        fit_scaling(StrategyKind.GHZ, [4, 4, 4], 100, 1.0)


def test_noise_amplification_with_probe_size():
    # at fixed phase the bigger entangled probe is noisier, yet its
    # detection floor is lower: the gain is all in the signal
    ms = (1, 2, 4, 8)
    noises = strategy_signal_noise(StrategyKind.GHZ, ms, 100, 0.01)[1].tolist()
    floors = _min_signals(StrategyKind.GHZ, ms, 100, 1.0).tolist()
    assert all(b > a for a, b in zip(noises, noises[1:]))
    assert all(b < a for a, b in zip(floors, floors[1:]))


def _empirical_rate(f_true: float, n_eff: int, seed: int, reps: int) -> float:
    """Fraction of repetitions whose sampled frequency passes the alpha=1
    test against p = 1."""
    counts = draw_count_matrix(f_true, n_eff, seed, reps)
    hits = sum(distinguishable_binary(1.0, k / n_eff, n_eff, 1.0) for k in counts.tolist())
    return hits / reps


def _strategy_fidelity(strat: StrategyKind, m: int, phi: float, k: float) -> float:
    if strat is StrategyKind.ENSEMBLE:
        return 0.5 * (1.0 + math.cos(phi))
    if strat is StrategyKind.PRODUCT:
        return math.cos(phi / 2.0) ** (2 * m)
    if strat is StrategyKind.GHZ:
        return 0.5 * (1.0 + math.cos(m * phi))
    return 0.5 * (1.0 + math.cos(m**k * phi))


def test_monte_carlo_confirms_floor():
    # at the floor the distinguishability rate is high, at half the
    # floor it collapses; reference rates are 1 - F**n_eff since the
    # empirical test passes exactly when at least one shot misses
    reps = 10**4
    for i, strat in enumerate(StrategyKind):
        n_eff = int(_probe_model(strat, (4,), 100, 2.0)[2][0])
        floor = _floor(strat, 4, 100, 1.0, 2.0)
        for j, phi in enumerate((floor, 0.5 * floor)):
            f_true = _strategy_fidelity(strat, 4, phi, 2.0)
            expected = 1.0 - f_true**n_eff
            rate = _empirical_rate(f_true, n_eff, seed=1000 + 10 * i + j, reps=reps)
            band = 4.0 * math.sqrt(expected * (1.0 - expected) / reps)
            assert abs(rate - expected) <= band
            if j == 0:
                assert rate >= 0.45
            else:
                assert rate <= 0.25


@pytest.mark.parametrize("strat", list(StrategyKind), ids=lambda s: s.value)
def test_floor_and_signal_match_mpmath(strat):
    # N from 1 to 1e18: the floor keeps a few-ulp relative error where
    # the critical fidelity rounds to 1, and the signal at the floor,
    # far below the rounding of 1, keeps it too
    # (fit_scaling's M-grid kernel is held to the same references)
    k = 2.0 if strat is StrategyKind.NONLINEAR else 1.0
    ms = (1, 2, 7, 32)
    worst_floor = worst_signal = 0.0
    for e in range(19):
        for alpha in (0.25, 1.0, 3.0):
            grid = fit_scaling(strat, ms, 10**e, alpha, nonlinear_exponent=k).phis
            floors = _min_signals(strat, ms, 10**e, alpha, k)
            sigs, noises = strategy_signal_noise(strat, ms, 10**e, floors, k)
            assert (noises > 0.0).all()
            for m, grid_floor, floor, sig in zip(ms, grid, floors.tolist(), sigs.tolist()):
                ref = strategy_floor_mp(strat.value, m, 10**e, alpha, k)
                worst_floor = max(worst_floor, abs(floor - ref) / ref,
                                  abs(grid_floor - ref) / ref)
                ref = strategy_signal_mp(strat.value, m, floor, k)
                worst_signal = max(worst_signal, abs(sig - ref) / ref)
    assert worst_floor <= 4.0 * EPS
    assert worst_signal <= 4.0 * EPS


@pytest.mark.parametrize("strat", list(StrategyKind), ids=lambda s: s.value)
def test_floor_at_tiny_alpha_matches_mpmath(strat):
    # alpha**2 / n underflows a double, and the product probe's root form
    # gives way to its limit, the bound at M n shots; the reference is the
    # naive inverse form at enough bits to resolve 1 - F0 ~ alpha**2 / n
    # (2**-1390 at alpha = 1e-200, n = 1e18) with 200 bits to spare
    k = 2.0 if strat is StrategyKind.NONLINEAR else 1.0
    ms = (1, 2, 7, 32)
    worst = 0.0
    for alpha in (1e-170, 1e-200):
        for n in (1, 100, 10**18):
            grid = fit_scaling(strat, ms, n, alpha, nonlinear_exponent=k)
            for m, floor in zip(ms, grid.phis):
                ref = strategy_floor_mp(strat.value, m, n, alpha, k, prec=1600)
                worst = max(worst, abs(floor - ref) / ref)
    assert worst <= 4.0 * EPS
