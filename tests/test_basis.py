import math

import numpy as np
import pytest

from metrotrade.basis import (
    MeasurementBasis,
    basis_snr,
    find_optimal_basis,
    snr_grid,
)
from metrotrade.bounds import min_detectable_signal
from metrotrade.estimation import classical_fisher_values

from helpers import basis_probabilities

HALF_PI = math.pi / 2.0


def test_probabilities_basis_equals_state():
    p0, p1 = basis_probabilities(HALF_PI, 0.0, 0.0)
    assert abs(p0 - 1.0) < 1e-15
    assert abs(p1 - 1.0) < 1e-15


def test_probabilities_pole():
    p0, p1 = basis_probabilities(0.0, 1.3, 0.8)
    assert p0 == 0.5
    assert p1 == 0.5


def test_probabilities_basis_equals_final():
    _, p1 = basis_probabilities(HALF_PI, 0.7, 0.7)
    assert abs(p1 - 1.0) < 1e-15


def test_snr_zero_at_mid_phase():
    phi = 0.6
    assert basis_snr(MeasurementBasis(HALF_PI, phi / 2.0), phi, 5) < 1e-12


def test_snr_zero_at_pole():
    assert basis_snr(MeasurementBasis(0.0, 2.0), 0.9, 50) == 0.0


def test_snr_optimum_value():
    phi = math.pi / 10.0
    got = basis_snr(MeasurementBasis(HALF_PI, phi), phi, 1)
    assert abs(got - math.tan(math.pi / 20.0)) < 1e-12
    assert abs(got - 0.158384) < 1e-6


def test_snr_root_n_homogeneity():
    phi = 0.37
    b = MeasurementBasis(1.1, 2.2)
    one = basis_snr(b, phi, 1)
    two = basis_snr(b, phi, 2)
    assert abs(two - math.sqrt(2.0) * one) < 1e-12


def test_snr_constant_on_optimal_set():
    # theta = pi/2 with phi_b anywhere in [phi, pi] or [phi+pi, 2 pi)
    # gives exactly sqrt(n) |tan(phi/2)|
    n = 7
    for i in range(1, 100):
        phi = math.pi * i / 100.0
        ref = math.sqrt(n) * abs(math.tan(phi / 2.0))
        samples = [
            phi,
            (phi + math.pi) / 2.0,
            math.pi,
            phi + math.pi,
            phi / 2.0 + 1.5 * math.pi,
        ]
        for phi_b in samples:
            got = basis_snr(MeasurementBasis(HALF_PI, phi_b), phi, n)
            assert abs(got - ref) <= 1e-10 * max(1.0, ref)


def test_snr_reflection_symmetry():
    phi = 0.9
    for phi_b in (0.1, 0.7, 2.0, 3.3, 5.1):
        a = basis_snr(MeasurementBasis(1.0, phi_b), phi, 4)
        b = basis_snr(MeasurementBasis(1.0, phi + 2.0 * math.pi - phi_b), phi, 4)
        assert abs(a - b) < 1e-12


def test_grid_never_beats_analytic():
    phi, n = math.pi / 10.0, 1
    best = math.sqrt(n) * abs(math.tan(phi / 2.0))
    worst = 0.0
    for theta in [min(math.pi, math.pi * i / 99.0) for i in range(100)]:
        for j in range(100):
            phi_b = 2.0 * math.pi * j / 100.0
            worst = max(worst, basis_snr(MeasurementBasis(theta, phi_b), phi, n))
    assert worst <= best + 1e-9


def test_find_optimal_basis_small_shift():
    best, snr = find_optimal_basis(math.pi / 10.0, 1)
    assert abs(snr - math.tan(math.pi / 20.0)) < 1e-4
    assert abs(best.theta - HALF_PI) < 1e-3


def test_find_optimal_basis_right_angle():
    _, snr = find_optimal_basis(HALF_PI, 1)
    assert abs(snr - 1.0) < 1e-4


def test_find_optimal_basis_scales_with_budget():
    _, snr = find_optimal_basis(math.pi / 10.0, 100)
    assert abs(snr - 10.0 * math.tan(math.pi / 20.0)) < 1e-3


def test_find_optimal_basis_validation():
    with pytest.raises(ValueError):
        find_optimal_basis(0.5, 0)
    with pytest.raises(ValueError):
        find_optimal_basis(0.5, 1, grid=50)
    with pytest.raises(ValueError):
        find_optimal_basis(math.nan, 1)


def test_snr_grid_matches_basis_snr():
    phi, n, grid = 0.3, 7, 200
    thetas, phibs, values = snr_grid(phi, n, grid)
    assert values.shape == (grid, grid)
    assert thetas[0] == 0.0 and thetas[-1] == math.pi and phibs[0] == 0.0
    cells = np.random.default_rng(0).integers(0, grid, size=(50, 2)).tolist()
    for i, j in cells + [[0, 0], [grid - 1, grid - 1]]:
        ref = basis_snr(MeasurementBasis(float(thetas[i]), float(phibs[j])), phi, n)
        assert abs(values[i, j] - ref) <= 4.0 * math.ulp(ref)


def test_precision_matches_arccos_bound():
    # 2 arctan(a/sqrt(n)) and arccos((n-a2)/(n+a2)) are the same number
    for n in (1, 2, 10, 100, 10**4):
        for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
            lhs = min_detectable_signal(alpha, n)
            rhs = math.acos((n - alpha**2) / (n + alpha**2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_basis_constructor_validation():
    with pytest.raises(ValueError):
        MeasurementBasis(-0.1, 0.0)
    with pytest.raises(ValueError):
        MeasurementBasis(math.pi + 0.1, 0.0)
    b = MeasurementBasis(1.0, 2.0 * math.pi + 0.5)
    assert abs(b.phi_b - 0.5) < 1e-12


def test_fisher_flat_where_snr_varies():
    # on the equator the Fisher information is saturated everywhere,
    # but the finite-sample ratio still swings from zero to its max:
    # the two optimality notions are genuinely different
    phi, n = 0.8, 9
    snr_mid = basis_snr(MeasurementBasis(HALF_PI, phi / 2.0), phi, n)
    snr_best = basis_snr(MeasurementBasis(HALF_PI, phi), phi, n)
    assert snr_mid < 1e-12
    assert snr_best > 1.0
    for phi_b in (phi / 2.0, phi, 2.0, 3.0):
        fc = classical_fisher_values(HALF_PI, phi_b, phi)
        assert abs(fc - 1.0) < 1e-10
