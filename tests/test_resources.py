import math
import sys

import pytest

from metrotrade.errors import BranchError
from metrotrade.resources import (
    StrategyConfig,
    StrategyKind,
    fit_scaling,
    strategy_min_signal,
    strategy_signal_noise,
)
from metrotrade.sampling import binary_stats, draw_count_matrix

from helpers import (
    distinguishable_binary,
    product_fidelity_bruteforce,
    strategy_floor_mp,
    strategy_signal_mp,
)

EPS = sys.float_info.epsilon


def test_ensemble_noise_value():
    cfg = StrategyConfig(StrategyKind.ENSEMBLE, 10, 10)
    sig, noise = strategy_signal_noise(cfg, 0.2)
    assert abs(sig - 0.5 * (1.0 - math.cos(0.2))) < 1e-15
    assert abs(noise - math.sin(0.2) / 20.0) < 1e-12


def test_ghz_m1_reduces_to_ensemble():
    a = StrategyConfig(StrategyKind.GHZ, 1, 50)
    b = StrategyConfig(StrategyKind.ENSEMBLE, 1, 50)
    for phi in (0.01, 0.4, 1.5, 3.0):
        assert strategy_signal_noise(a, phi) == strategy_signal_noise(b, phi)
    # 2 arccos(sqrt(f0)) vs arccos(2 f0 - 1): equal numbers, different
    # rounding paths, so compare at float resolution instead of by bit
    fa, fb = strategy_min_signal(a), strategy_min_signal(b)
    assert math.isclose(fa, fb, rel_tol=1e-14)


def test_all_strategies_reduce_at_m1():
    ref = strategy_min_signal(StrategyConfig(StrategyKind.ENSEMBLE, 1, 100))
    for strat in StrategyKind:
        got = strategy_min_signal(StrategyConfig(strat, 1, 100))
        assert abs(got - ref) < 1e-12


def test_product_signal_matches_bruteforce():
    cfg = StrategyConfig(StrategyKind.PRODUCT, 2, 10)
    sig, _ = strategy_signal_noise(cfg, math.pi / 2.0)
    oracle = 1.0 - product_fidelity_bruteforce(math.pi / 2.0, 0.0, 2)
    assert abs(sig - 0.75) < 1e-15
    assert abs(sig - oracle) < 1e-12


def test_product_noise_approximation():
    # sqrt(F(1-F)/N) tracks sqrt(M) phi / (2 sqrt(N)) for small phi
    for m in (1, 4, 16):
        for n in (10, 100):
            cfg = StrategyConfig(StrategyKind.PRODUCT, m, n)
            phi = 0.1 / math.sqrt(m)
            _, noise = strategy_signal_noise(cfg, phi)
            approx = math.sqrt(m) * phi / (2.0 * math.sqrt(n))
            assert abs(noise - approx) <= 0.1 * approx


def test_ensemble_pool_equivalence():
    # M by N and 1 by MN are the same resource, bit for bit
    for m, n in ((2, 50), (10, 10), (25, 4)):
        a = strategy_min_signal(StrategyConfig(StrategyKind.ENSEMBLE, m, n))
        b = strategy_min_signal(StrategyConfig(StrategyKind.ENSEMBLE, 1, m * n))
        assert a == b


def test_min_signal_reference_points():
    # single-qubit bound at M=1, N=100
    ref = math.acos(99.0 / 101.0)
    got = strategy_min_signal(StrategyConfig(StrategyKind.GHZ, 1, 100))
    assert abs(got - ref) < 1e-15
    # asymptotic laws at M=4, N=100
    prod = strategy_min_signal(StrategyConfig(StrategyKind.PRODUCT, 4, 100))
    assert abs(prod - 0.1) <= 0.002
    ghz = strategy_min_signal(StrategyConfig(StrategyKind.GHZ, 4, 100))
    assert abs(ghz - 0.05) <= 0.001


def test_signal_equals_alpha_noise_at_floor():
    for strat in StrategyKind:
        for alpha in (0.5, 1.0, 2.0):
            cfg = StrategyConfig(strat, 4, 100, alpha=alpha, nonlinear_exponent=2.0)
            floor = strategy_min_signal(cfg)
            sig, noise = strategy_signal_noise(cfg, floor)
            assert abs(sig - alpha * noise) < 1e-12


def test_branch_enforcement():
    cfg = StrategyConfig(StrategyKind.GHZ, 4, 100)
    with pytest.raises(BranchError):
        strategy_signal_noise(cfg, math.pi / 2.0)
    with pytest.raises(BranchError):
        strategy_signal_noise(cfg, 0.0)
    # pi/4 is inside the branch for M=4
    strategy_signal_noise(cfg, math.pi / 8.0)


def test_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(StrategyKind.GHZ, 0, 10)
    with pytest.raises(ValueError):
        StrategyConfig(StrategyKind.GHZ, 2, 0)
    with pytest.raises(ValueError):
        StrategyConfig(StrategyKind.GHZ, 2, 10, alpha=-1.0)
    with pytest.raises(ValueError):
        StrategyConfig(StrategyKind.NONLINEAR, 2, 10, nonlinear_exponent=0.3)


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
    for m, floor in zip(rep.m_values, rep.phis):
        sig, noise = strategy_signal_noise(StrategyConfig(StrategyKind.GHZ, m, 100), floor)
        assert abs(noise - ref_noise) < 1e-12
        assert abs(sig - noise) < 1e-12


def test_fit_scaling_degenerate_grid():
    with pytest.raises(ValueError):
        fit_scaling(StrategyKind.GHZ, [4, 4, 4], 100, 1.0)


def test_noise_amplification_with_probe_size():
    # at fixed phase the bigger entangled probe is noisier, yet its
    # detection floor is lower: the gain is all in the signal
    phi = 0.01
    noises = []
    floors = []
    for m in (1, 2, 4, 8):
        cfg = StrategyConfig(StrategyKind.GHZ, m, 100)
        noises.append(strategy_signal_noise(cfg, phi)[1])
        floors.append(strategy_min_signal(cfg))
    assert all(b > a for a, b in zip(noises, noises[1:]))
    assert all(b < a for a, b in zip(floors, floors[1:]))


def _empirical_rate(f_true: float, n_eff: int, seed: int, reps: int) -> float:
    """Fraction of repetitions whose sampled stats pass the alpha=1 test."""
    counts = draw_count_matrix(binary_stats(f_true, n_eff), seed, reps)[:, 0]
    ref = binary_stats(1.0, n_eff)
    hits = 0
    for k in counts.tolist():
        est = binary_stats(k / n_eff, n_eff)
        if distinguishable_binary(ref, est, 1.0):
            hits += 1
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
        cfg = StrategyConfig(strat, 4, 100, alpha=1.0, nonlinear_exponent=2.0)
        n_eff = cfg.effective_samples
        floor = strategy_min_signal(cfg)
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
            for m, grid_floor in zip(ms, grid):
                cfg = StrategyConfig(strat, m, 10**e, alpha=alpha, nonlinear_exponent=k)
                floor = strategy_min_signal(cfg)
                ref = strategy_floor_mp(strat.value, m, 10**e, alpha, k)
                worst_floor = max(worst_floor, abs(floor - ref) / ref,
                                  abs(grid_floor - ref) / ref)
                sig, noise = strategy_signal_noise(cfg, floor)
                ref = strategy_signal_mp(strat.value, m, floor, k)
                worst_signal = max(worst_signal, abs(sig - ref) / ref)
                assert noise > 0.0
    assert worst_floor <= 4.0 * EPS
    assert worst_signal <= 4.0 * EPS

