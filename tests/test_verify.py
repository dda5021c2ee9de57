import math

import numpy as np
import pytest

from helpers import classical_fisher_scalar, povm_statistic_scalar
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
