import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metrotrade import basis
from metrotrade.basis import (
    MeasurementBasis,
    basis_snr,
    classical_fisher_values,
    find_optimal_basis,
    snr_grid,
)
from metrotrade.bounds import min_detectable_signal

from helpers import basis_probabilities, basis_snr_mp, classical_fisher_scalar

HALF_PI = math.pi / 2.0
EPS = sys.float_info.epsilon


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
    b = MeasurementBasis(HALF_PI, phi / 2.0)
    assert basis_snr(b.theta, b.phi_b, phi, 5) < 1e-12


def test_snr_zero_at_pole():
    b = MeasurementBasis(0.0, 2.0)
    assert basis_snr(b.theta, b.phi_b, 0.9, 50) == 0.0


def test_snr_optimum_value():
    phi = math.pi / 10.0
    b = MeasurementBasis(HALF_PI, phi)
    got = basis_snr(b.theta, b.phi_b, phi, 1)
    assert abs(got - math.tan(math.pi / 20.0)) < 1e-12
    assert abs(got - 0.158384) < 1e-6


def test_snr_root_n_homogeneity():
    phi = 0.37
    b = MeasurementBasis(1.1, 2.2)
    one = basis_snr(b.theta, b.phi_b, phi, 1)
    two = basis_snr(b.theta, b.phi_b, phi, 2)
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
            b = MeasurementBasis(HALF_PI, phi_b)
            got = basis_snr(b.theta, b.phi_b, phi, n)
            assert abs(got - ref) <= 1e-10 * max(1.0, ref)


def test_snr_reflection_symmetry():
    phi = 0.9
    for phi_b in (0.1, 0.7, 2.0, 3.3, 5.1):
        b1 = MeasurementBasis(1.0, phi_b)
        b2 = MeasurementBasis(1.0, phi + 2.0 * math.pi - phi_b)
        a = basis_snr(b1.theta, b1.phi_b, phi, 4)
        b = basis_snr(b2.theta, b2.phi_b, phi, 4)
        assert abs(a - b) < 1e-12


def test_grid_never_beats_analytic():
    phi, n = math.pi / 10.0, 1
    best = math.sqrt(n) * abs(math.tan(phi / 2.0))
    worst = 0.0
    for theta in [min(math.pi, math.pi * i / 99.0) for i in range(100)]:
        for j in range(100):
            b = MeasurementBasis(theta, 2.0 * math.pi * j / 100.0)
            worst = max(worst, basis_snr(b.theta, b.phi_b, phi, n))
    assert worst <= best + 1e-9
    # and over basis-sweep's default 400 x 400 grid
    assert snr_grid(phi, n, 400)[2].max() <= best + 1e-9


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
        find_optimal_basis(math.nan, 1)


@pytest.mark.parametrize("phi, n, message", [
    (math.inf, 1, "phi must be finite"),
    (-math.inf, 1, "phi must be finite"),
    (math.nan, 1, "phi must be finite"),
    (0.3, 0, "n must be a positive integer"),
])
def test_basis_snr_refuses_a_bad_shift_or_budget(phi, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        basis_snr(np.array([0.0, HALF_PI]), np.array([[0.5], [1.0]]), phi, n)


def _plain_snr(theta, phi_b, phi, n):
    """basis_snr's quotient written out in one expression."""
    st, ct = np.sin(theta), np.cos(theta)
    numerator = 2.0 * math.sqrt(n) * abs(math.sin(phi / 2.0)) * np.abs(
        st * np.sin(phi_b - phi / 2.0))
    return numerator / (np.sqrt((st * np.sin(phi_b)) ** 2 + ct * ct)
                        + np.sqrt((st * np.sin(phi - phi_b)) ** 2 + ct * ct))


def _nearest_double_to_pi_times(x):
    with mpmath.workdps(50):
        return float(x * mpmath.pi)


# The double of least |cos|: about -4.69e-19, whose square is a normal double.
_LEAST_COS_THETA = 6381956970095103 * 2.0**797


@pytest.mark.parametrize("theta", [
    _nearest_double_to_pi_times(0.5), _nearest_double_to_pi_times(1.5), _LEAST_COS_THETA,
])
def test_snr_where_cos_theta_is_least(theta):
    # each noise term is at least |cos theta|, so the denominator stays
    # above 0 at the doubles nearest the zeros of cos; phi_b = phi puts the
    # other projection on the state, phi_b = phi / 2 zeroes the separation
    assert 0.0 < math.cos(theta) ** 2 < 1e-30
    with mpmath.workdps(60):
        assert abs(mpmath.cos(mpmath.mpf(theta))) >= 4.68e-19
    phi = 0.3
    for phi_b in (0.0, phi / 2.0, phi, HALF_PI, 2.0, np.array([[1.0, 5.0]])):
        for n in (1, 10**6):
            got = basis_snr(theta, phi_b, phi, n)
            assert np.array_equal(got, _plain_snr(theta, phi_b, phi, n))
            assert np.all(np.isfinite(got) & (got >= 0.0))


def test_snr_mesh_equals_the_plain_quotient():
    thetas = np.linspace(0.0, math.pi, 37)[:, None]
    phibs = np.linspace(-7.0, 7.0, 41)
    for phi, n in ((math.pi / 10.0, 1), (1e-6, 3), (-2.5, 10**12)):
        assert np.array_equal(basis_snr(thetas, phibs, phi, n),
                              _plain_snr(thetas, phibs, phi, n))


def test_find_optimal_basis_searches_on_meshes(monkeypatch):
    # every search step is a mesh of the kernel, and the search stops at
    # the first mesh whose cells are below 1e-9 rad on both axes; the
    # returned ratio is the last mesh's best value, not evaluated again
    calls = []
    kernel = basis.basis_snr

    def recording(theta, phi_b, phi, n):
        values = kernel(theta, phi_b, phi, n)
        calls.append((np.ravel(theta), np.ravel(phi_b), values))
        return values

    monkeypatch.setattr(basis, "basis_snr", recording)
    best, snr = find_optimal_basis(math.pi / 10.0, 1)
    sizes = [np.size(values) for _, _, values in calls]
    assert sizes[0] == 400 * 400
    assert set(sizes[1:]) == {21 * 21}
    cells = [max(np.max(np.diff(t)), np.max(np.diff(b))) for t, b, _ in calls]
    assert cells[-1] < 1e-9 <= cells[-2]
    assert snr == np.max(calls[-1][2]) == basis_snr(best.theta, best.phi_b, math.pi / 10.0, 1)


def test_find_optimal_basis_without_a_shift():
    # a flat zero landscape puts the best cell at the pole theta = 0,
    # which the finer meshes must not step past (MeasurementBasis would
    # refuse theta < 0)
    _, snr = find_optimal_basis(0.0, 5)
    assert snr == 0.0


@given(
    st.one_of(
        st.floats(min_value=0.01, max_value=math.pi - 0.01),
        st.sampled_from((3.5, 5.0, -0.7)),
    ),
    st.sampled_from((1, 7, 10**6)),
)
# the best coarse direction is phi_b = 0, and finer meshes step below it
@example(3.12890625, 1)
def test_find_optimal_basis_reaches_the_equatorial_optimum(phi, n):
    best, snr = find_optimal_basis(phi, n)
    analytic = math.sqrt(n) * abs(math.tan(phi / 2.0))
    assert snr <= analytic * (1.0 + 16.0 * EPS)
    assert snr >= analytic * (1.0 - 1e-12)
    assert abs(best.theta - HALF_PI) <= 1e-6


def _cot_gain(z):
    # |z cot z|: how much sin magnifies a relative error in its argument
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(z == 0.0, 1.0, np.abs(z / np.tan(z)))


@pytest.mark.parametrize("phi", [math.pi / 10.0, 1e-2, 1e-4, 1e-6, 4.0])
def test_snr_grid_matches_mpmath(phi):
    # Every rounding of the kernel, counted with each sin, cos and sqrt at
    # most 1 ulp, sums to 19 units of half an ulp (10 in the numerator, 8
    # in the denominator, 1 in the quotient).  The differences
    # x = phi_b - phi/2 and y = phi - phi_b round by half an ulp of
    # themselves, which sin(x) and sin(y) magnify by |x cot x| and
    # |y cot y|; one more unit covers the second-order terms.  Cells near
    # the zeros of sin(x) are left out, where the ratio itself vanishes.
    # The difference of cosines, cos(phi_b) - cos(phi - phi_b), loses
    # about log10(1/phi) digits and fails here from phi = 1e-2 down.
    n = 3
    thetas, phibs, values = snr_grid(phi, n, 200)
    thetas, phibs, values = thetas[::7], phibs[::7], values[::7, ::7]
    x = phibs - phi / 2.0
    tol = 20.0 + _cot_gain(x) + _cot_gain(phi - phibs)
    cols = np.flatnonzero(np.abs(np.sin(x)) >= 0.1).tolist()
    for i, theta in enumerate(thetas.tolist()):
        for j in cols:
            ref = basis_snr_mp(theta, float(phibs[j]), phi, n)
            got = float(values[i, j])
            err = abs(mpmath.mpf(got) - ref)
            assert err <= tol[j] * math.ulp(float(ref)), (theta, phibs[j], got)


def test_snr_grid_matches_basis_snr():
    phi, n, grid = 0.3, 7, 200
    thetas, phibs, values = snr_grid(phi, n, grid)
    assert values.shape == (grid, grid)
    assert thetas[0] == 0.0 and thetas[-1] == math.pi and phibs[0] == 0.0
    cells = np.random.default_rng(0).integers(0, grid, size=(50, 2)).tolist()
    for i, j in cells + [[0, 0], [grid - 1, grid - 1]]:
        b = MeasurementBasis(float(thetas[i]), float(phibs[j]))
        ref = float(basis_snr(b.theta, b.phi_b, phi, n))
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
    mid, best = MeasurementBasis(HALF_PI, phi / 2.0), MeasurementBasis(HALF_PI, phi)
    snr_mid = basis_snr(mid.theta, mid.phi_b, phi, n)
    snr_best = basis_snr(best.theta, best.phi_b, phi, n)
    assert snr_mid < 1e-12
    assert snr_best > 1.0
    for phi_b in (phi / 2.0, phi, 2.0, 3.0):
        fc = classical_fisher_values(HALF_PI, phi_b, phi)
        assert abs(fc - 1.0) < 1e-10


def test_fisher_equator_is_unit():
    # five phi_b at phi = 0.7, and 100 seeded (phi, phi_b) pairs, in one call
    phi, phi_b = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, (100, 2)).T
    phi = np.concatenate(([0.7] * 5, phi))
    phi_b = np.concatenate(([0.0, 1.0, 2.5, 4.0, 6.0], phi_b))
    assert np.max(np.abs(classical_fisher_values(HALF_PI, phi_b, phi) - 1.0)) <= 1e-10


def test_fisher_values_on_circle_limit():
    # sin(pi/2) cos(0) and sin(pi/2) cos(pi) are exactly +-1 in floats:
    # a certain outcome, where the on-circle limit 1 is returned
    got = classical_fisher_values(HALF_PI, np.array([0.7, 0.0]), np.array([0.7, math.pi]))
    assert got.tolist() == [1.0, 1.0]
    assert classical_fisher_values(HALF_PI, 0.0, 0.0) == 1.0


def test_fisher_pole_is_zero():
    assert classical_fisher_values(0.0, 0.3, 1.1) == 0.0


def test_fisher_interior_value():
    fc = classical_fisher_values(math.pi / 4.0, 0.0, math.pi / 6.0)
    assert 0.0 < fc < 1.0
    # sin2(pi/4) sin2(pi/6) / (same + cos2(pi/4)) = (1/8) / (1/8 + 1/2)
    assert abs(fc - 0.2) < 1e-15


def test_fisher_matches_finite_difference():
    h = 1e-5
    cases = [
        (math.pi / 4.0, 0.0, math.pi / 6.0),
        (1.0, 0.5, 2.0),
        (2.0, 3.0, 0.9),
    ]
    for theta, phi_b, phi in cases:
        _, p_m = basis_probabilities(theta, phi_b, phi - h)
        _, p_p = basis_probabilities(theta, phi_b, phi + h)
        _, p = basis_probabilities(theta, phi_b, phi)
        dp = (p_p - p_m) / (2.0 * h)
        ref = dp * dp * (1.0 / p + 1.0 / (1.0 - p))
        got = classical_fisher_values(theta, phi_b, phi)
        assert abs(got - ref) < 1e-6 * max(ref, 1e-12)


def test_fisher_never_exceeds_quantum_limit():
    # over a 50 x 50 and a 100 x 100 mesh of directions
    for size in (50, 100):
        theta = np.linspace(0.0, math.pi, size)[:, None]
        phi_b = np.linspace(0.0, 2.0 * math.pi, size, endpoint=False)
        assert np.max(classical_fisher_values(theta, phi_b, 0.8)) <= 1.0 + 1e-10


_ANGLES = st.floats(min_value=-50.0, max_value=50.0)


@given(
    st.one_of(
        st.sampled_from([0.0, math.pi / 2.0, math.pi]),
        st.floats(min_value=0.0, max_value=math.pi),
    ),
    st.lists(_ANGLES, min_size=1, max_size=8),
    _ANGLES,
    st.sampled_from([None, 0.0, math.pi]),
)
# phi_b outside [0, 2 pi), and |sin(theta) cos(phi - phi_b)| == 1 exactly
@example(math.pi / 2.0, [-3.0, 7.5, 2.0 * math.pi], 0.3, 0.0)
@example(math.pi / 2.0, [0.4, 12.0], 0.0, math.pi)
def test_fisher_values_match_scalar_reference(theta, phi_bs, phi, offset):
    # offset pins phi on phi_b's reduced value (or opposite it), where
    # the outcome is certain and the on-circle limit applies
    phi_b = np.array(phi_bs)
    if offset is not None:
        phi = (phi_b % (2.0 * math.pi)) + offset
    got = classical_fisher_values(theta, phi_b, phi)
    phis = np.broadcast_to(phi, phi_b.shape).tolist()
    ref = np.array([
        classical_fisher_scalar(theta, b, x) for b, x in zip(phi_bs, phis)
    ])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
