import math
import sys
import time

import numpy as np
import pytest

from helpers import bisection_min_signal_100, classical_fisher_scalar, povm_statistic_scalar
from metrotrade import verify


def povm_detail_by_scalar_loop():
    worst = 0.0
    for n in range(1, 1001):
        for alpha in verify._ALPHA_GRID:
            f = n / (n + alpha * alpha)
            q = alpha * alpha / (n + alpha * alpha)
            stat = povm_statistic_scalar((1.0, 0.0), (f, q), n)
            worst = max(worst, abs(stat - alpha))
    return f"max |statistic - alpha| = {worst:.3e}"


def fisher_detail_by_scalar_loop(seed):
    """The circle and overshoot part of fisher_consistency's detail, one
    basis at a time over the same seeded draws and mesh."""
    rng = np.random.default_rng(seed + 1)
    worst_circle = 0.0
    for _ in range(100):
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        phi_b = float(rng.uniform(0.0, 2.0 * math.pi))
        if min(abs(phi - phi_b) % math.pi, math.pi - abs(phi - phi_b) % math.pi) < 1e-3:
            phi_b += 0.01
        fc = classical_fisher_scalar(math.pi / 2.0, phi_b, phi)
        worst_circle = max(worst_circle, abs(fc - 1.0))
    worst_over = 0.0
    for theta in np.linspace(0.0, math.pi, 100):
        for phi_b in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            fc = classical_fisher_scalar(float(theta), float(phi_b), 0.7)
            worst_over = max(worst_over, fc - 1.0)
    return f"|Fc-1| circle max {worst_circle:.2e}, overshoot {worst_over:.2e}"


def test_povm_reduction_detail_matches_scalar_loop():
    result = verify.check_povm_reduction(1e-12)
    assert result.passed
    assert result.detail == povm_detail_by_scalar_loop()


@pytest.mark.parametrize("seed", [0, 5, 99])
def test_fisher_consistency_detail_matches_scalar_loop(seed):
    result = verify.check_fisher_consistency(1e-4, seed=seed)
    assert result.passed
    circle_and_overshoot = result.detail.split(", curvature")[0]
    assert circle_and_overshoot == fisher_detail_by_scalar_loop(seed)


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_corrupt_flips_only_the_named_check(name):
    results = verify.run_all(seed=5, corrupt=name)
    assert [r.name for r in results if not r.passed] == [name]


def run_in_order(seed, corrupt=None):
    """Each check of _CHECKS called in turn on this thread."""
    return [fn(bad_tol if corrupt == name else tol, seed)
            for name, fn, tol, bad_tol in verify._CHECKS]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", [0, 3, 9, 2**64 - 1])
def test_pooled_run_all_equals_the_checks_in_order(monkeypatch, seed, workers):
    monkeypatch.setattr(verify, "_mc_workers", lambda: workers)
    assert verify.run_all(seed=seed) == run_in_order(seed)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_pooled_run_all_equals_the_checks_in_order_when_corrupted(monkeypatch, name, workers):
    monkeypatch.setattr(verify, "_mc_workers", lambda: workers)
    assert verify.run_all(seed=7, corrupt=name) == run_in_order(7, corrupt=name)


def test_run_all_is_the_same_under_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching threads every few microseconds
    monkeypatch.setattr(verify, "_mc_workers", lambda: 4)
    expected = run_in_order(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = [verify.run_all(seed=3) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [expected] * 3


class _CheckRaised(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_all_raises_the_first_failing_check_in_order(monkeypatch, workers):
    # the later check raises first in time, the earlier one after a wait;
    # run_all still raises the earlier one, once every check has ended
    ended = []

    def raising(label, delay):
        def check(tol, seed=0):
            time.sleep(delay)
            ended.append(label)
            raise _CheckRaised(label)
        return check

    checks = list(verify._CHECKS)
    checks[1] = ("inherent_optimum", raising("early", 0.05), 0.0, 0.0)
    checks[5] = ("bound_vs_oracle", raising("late", 0.0), 0.0, 0.0)
    monkeypatch.setattr(verify, "_CHECKS", tuple(checks))
    monkeypatch.setattr(verify, "_mc_workers", lambda: workers)
    with pytest.raises(_CheckRaised, match="^early$"):
        verify.run_all(seed=0)
    assert sorted(ended) == ["early", "late"]


N_GRID = np.arange(1, 10**4 + 1, dtype=np.float64)


def inequality_holds(phi, n, alpha):
    """1 - p >= alpha * sqrt(p (1 - p) / n) at p = (1 + cos phi) / 2."""
    p = (1.0 + np.cos(phi)) / 2.0
    return 1.0 - p >= alpha * np.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("alpha", verify._ALPHA_GRID)
def test_newton_oracle_is_certified_at_every_pair(alpha):
    # the inequality fails just left of each root and holds just right of it
    root = verify._newton_min_signal(N_GRID, alpha)
    assert not np.any(inequality_holds(root - 1e-11, N_GRID, alpha))
    assert np.all(inequality_holds(root + 1e-11, N_GRID, alpha))


@pytest.mark.parametrize("alpha", verify._ALPHA_GRID)
def test_newton_oracle_agrees_with_bisection(alpha):
    # Both oracles stop where the computed margin sep - alpha sqrt(p sep / n)
    # changes sign.  Its rounding is at most ~8 eps (cos to 4 ulp, then p,
    # sep and the root term), and its slope at the root 2 atan(c),
    # c = alpha / sqrt(n), is exactly c / 2.  So each lies within 16 eps / c
    # of the exact root, plus two spacings of the doubles it returns.
    eps = np.finfo(np.float64).eps
    newton = verify._newton_min_signal(N_GRID, alpha)
    bisection = bisection_min_signal_100(N_GRID, alpha)
    c = alpha / np.sqrt(N_GRID)
    bound = 2.0 * (16.0 * eps / c + 2.0 * np.spacing(bisection))
    assert np.all(np.abs(newton - bisection) <= bound)


@pytest.mark.parametrize("shift, passed", [(2e-9, False), (1e-10, True)])
def test_bound_vs_oracle_sees_a_shifted_closed_form(monkeypatch, shift, passed):
    # the oracle never reads the closed form: moving it at one (alpha, n)
    # pair by more than tol = 1e-9 fails the check, by less does not
    closed_form = verify.bounds.min_detectable_signal

    def shifted(alpha, n):
        values = closed_form(alpha, n)
        values[2, 4999] += shift
        return values

    monkeypatch.setattr(verify.bounds, "min_detectable_signal", shifted)
    result = verify.check_bound_vs_oracle(1e-9)
    assert result.passed is passed
    assert result.detail.endswith("50000/50000 roots certified at +-1e-11")
