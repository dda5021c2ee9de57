import csv
import io
import math
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metrotrade.bounds import (
    _qcrb_and_ratio,
    accuracy_of,
    critical_fidelity,
    inherent_precision,
    min_detectable_signal,
    povm_statistics,
)
from metrotrade.cli import _inherent_grid, main

from helpers import (
    bisect_inherent_shift,
    bisection_min_signal_100,
    distinguishable_binary,
    inherent_step_mp,
    povm_statistic_scalar,
)

# pi/4 - arccos(0.02 + cos(pi/4)) at n = 100, from 50-digit arithmetic
INHERENT_PI4_N100 = 0.028700028633896672


def test_distinguishable_identical_stats():
    assert distinguishable_binary(0.5, 0.5, 10, 1.0) is False
    assert distinguishable_binary(1.0, 1.0, 10, 1.0) is False


def test_distinguishable_threshold_equality():
    # signal equals noise exactly at the critical fidelity
    assert distinguishable_binary(1.0, 10.0 / 11.0, 10, 1.0) is True


def test_distinguishable_below_threshold():
    assert distinguishable_binary(1.0, 0.999, 10, 1.0) is False


def test_distinguishable_input_checks():
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
            distinguishable_binary(0.5, 0.5, 10, alpha)


def test_critical_fidelity_values():
    assert critical_fidelity(1.0, 1) == 0.5
    assert abs(critical_fidelity(1.0, 100) - 100.0 / 101.0) < 1e-15
    assert critical_fidelity(10.0, 100) == 0.5
    # alpha squared by multiplication: pow(a, 2) is one ulp off a * a here
    a = 9.849361880353003
    assert critical_fidelity(a, 1) == 1.0 / (1.0 + a * a)
    assert critical_fidelity(a, 1) == 0.010203047850459002
    # elementwise over broadcast alpha and n; an F below the least double
    # gives 0
    got = critical_fidelity(np.array([1.0, 10.0, 1e200]), np.array([[1], [100]]))
    assert got.tolist() == [[0.5, 1.0 / 101.0, 0.0], [100.0 / 101.0, 0.5, 0.0]]


@pytest.mark.parametrize("alpha, n", [
    (7.6e155, 3.6e15),      # alpha**2 overflows a double
    (1e-300, 1e10),         # n / alpha overflows a double
    (1.34e154, 2.0**53),    # either side of alpha**2's overflow
    (1.35e154, 2.0**53),
])
def test_critical_fidelity_matches_mpmath(alpha, n):
    # three roundings in either form, each within half an ulp
    with mpmath.workprec(200):
        ref = float(mpmath.mpf(n) / (mpmath.mpf(n) + mpmath.mpf(alpha) ** 2))
    got = critical_fidelity(alpha, n)
    assert abs(got - ref) <= 2 * math.ulp(ref), (got, ref)


def test_min_signal_single_shot():
    exact = min_detectable_signal(np.array([1.0, 1e300]), 1)
    assert abs(exact[0] - math.pi / 2.0) < 1e-15
    assert exact[1] == math.pi


def test_min_signal_n100():
    exact = min_detectable_signal(1.0, np.array([100]))
    assert exact.shape == (1,)
    assert abs(exact[0] - math.acos(99.0 / 101.0)) < 1e-15
    assert abs(exact[0] - 0.199337) < 1e-6
    assert abs(exact[0] * math.sqrt(100) - 1.99337) < 1e-5


def test_min_signal_factor_two():
    scaled = min_detectable_signal(np.array([1.0]), 10**4)[0] * 100.0
    assert 2.0 - 1e-3 <= scaled <= 2.0


def test_correction_ratio_window_and_monotonicity():
    n = np.array([1, 2, 5, 10, 100, 1000, 10**4, 10**5], dtype=np.float64)
    ratio = min_detectable_signal(1.0, n) * np.sqrt(n)
    assert np.all((2.0 * (1.0 - 1.0 / n) < ratio) & (ratio <= 2.0))
    assert np.all(np.diff(ratio) > 0.0) and ratio[0] > 0.0


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0, 1000.0])
def test_min_signal_matches_mpmath_oracle(alpha):
    # arccos((n - a2)/(n + a2)) at 200 bits over n = 1 .. 1e18 and 2**63 - 1;
    # an arccos of that argument in doubles reads 0 from n ~ 1e16
    ns = sorted({round(10 ** (k / 4)) for k in range(73)} | {2**53 + 1, 2**63 - 1})
    exact = min_detectable_signal(alpha, ns)
    # tradeoff's qcrb and correction_ratio columns
    qcrb, ratio = _qcrb_and_ratio(exact, np.array(ns, dtype=np.float64))
    for n, got, q, r in zip(ns, exact.tolist(), qcrb.tolist(), ratio.tolist()):
        with mpmath.workprec(200):
            a2 = mpmath.mpf(alpha) ** 2
            ref = float(mpmath.acos((n - a2) / (n + a2)))
        assert abs(got - ref) <= 3 * math.ulp(ref), n
        assert (q, r) == (1.0 / math.sqrt(n), got / q), n
        assert abs(r - ref * math.sqrt(n)) <= 4 * math.ulp(r), n


def test_min_signal_vs_bisection_oracle():
    # every n from 1 to 1000, and 10**4, as a column against a row of
    # alphas: one broadcast call of the bound, bisected alpha by alpha
    ns = np.append(np.arange(1, 1001), 10**4).astype(np.float64)
    alphas = (0.25, 0.5, 1.0, 2.0, 4.0)
    exact = min_detectable_signal(np.array(alphas), ns[:, None])
    oracle = np.stack([bisection_min_signal_100(ns, alpha) for alpha in alphas], axis=1)
    assert exact.shape == oracle.shape == (ns.size, len(alphas))
    assert np.max(np.abs(exact - oracle)) < 1e-9


def test_bound_kernels_refuse_bad_input():
    # every value is checked before any is evaluated; alpha comes first
    for kernel in (min_detectable_signal, critical_fidelity):
        for alpha in (0.0, -0.5, math.inf, math.nan, np.array([1.0, -math.inf])):
            with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
                kernel(alpha, 12)
        for n in (0, -1, 0.5, 2.5, math.nan, math.inf, np.array([[10], [0]])):
            with pytest.raises(ValueError, match="^n must be a positive integer$"):
                kernel(1.0, n)
        with pytest.raises(ValueError, match="^alpha"):
            kernel(np.array([1.0, -1.0]), np.array([[0], [5]]))
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            kernel(1.0, [1, 10**400])


def _tradeoff_chord(alpha, n, fq):
    # the trade-off bound 2 alpha / (sqrt(n + alpha**2) sqrt(fq)) as the
    # chord 2 sin(dphi_min / 2) of the exact bound, over sqrt(fq)
    exact = min_detectable_signal(alpha, n)
    return 2.0 * np.sin(exact / 2.0) / math.sqrt(fq)


def test_tradeoff_bound_values():
    assert abs(_tradeoff_chord(1.0, 100, 1.0) - 2.0 / math.sqrt(101.0)) < 1e-15
    assert abs(_tradeoff_chord(1.0, 100, 1.0) - 0.199007) < 1e-6
    assert abs(_tradeoff_chord(1.0, 100, 25.0) - 2.0 / (math.sqrt(101.0) * 5.0)) < 1e-15
    assert abs(_tradeoff_chord(1.0, 100, 25.0) - 0.0398) < 1e-4


def test_tradeoff_bound_saturates_at_two():
    assert abs(_tradeoff_chord(1e8, 100, 1.0) - 2.0) < 1e-8


def test_tradeoff_product_invariance():
    # tradeoff's asymptotic bound divided by alpha depends only on n
    alphas = (0.25, 0.5, 1.0, 2.0, 4.0)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["tradeoff", "--n", "10,100,1000",
                     "--alpha", ",".join(map(str, alphas))]) == 0
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    assert [(int(r[0]), float(r[1])) for r in rows] == [
        (n, alpha) for n in (10, 100, 1000) for alpha in alphas]
    for row in rows:
        ref = 2.0 / math.sqrt(int(row[0]))
        assert abs(float(row[3]) / float(row[1]) - ref) < 1e-15


def test_accuracy_of_values():
    assert abs(accuracy_of(0.2, 100) - 1.0) < 1e-15
    assert abs(accuracy_of(0.02, 100) - 0.1) < 1e-15
    # elementwise over an array of steps; an unreachable (NaN) step stays NaN
    got = accuracy_of(np.array([0.2, math.nan, 0.02]), 100)
    assert got[0] == accuracy_of(0.2, 100)
    assert math.isnan(got[1])
    assert got[2] == accuracy_of(0.02, 100)
    with pytest.raises(ValueError):
        accuracy_of(np.array([0.1, -0.1]), 100)


def test_povm_statistic_identical():
    assert povm_statistics((0.5, 0.5), (0.5, 0.5), 10) == 0.0


def test_povm_statistic_threshold_exactly_one():
    f = 10.0 / 11.0
    assert abs(povm_statistics((1.0, 0.0), (f, 1.0 - f), 10) - 1.0) < 1e-12


def test_povm_statistic_example():
    ref = math.sqrt(10.0) * math.sqrt(0.01 / 0.9 + 0.1)
    got = povm_statistics((1.0, 0.0), (0.9, 1.0 - 0.9), 10)
    assert abs(got - ref) < 1e-12
    assert abs(got - 1.05409) < 1e-5


def test_povm_statistic_divergent_cell():
    assert povm_statistics((0.5, 0.5), (1.0, 0.0), 10) == math.inf


def test_povm_statistic_reduction_identity():
    # sqrt(n) sqrt((1-F)^2/F + (1-F)) == sqrt(n (1-F)/F), and the
    # statistic crosses alpha exactly at the critical fidelity
    for n in (1, 3, 10, 100, 1000):
        for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
            f = n / (n + alpha**2)
            stat = povm_statistics((1.0, 0.0), (f, 1.0 - f), n)
            assert abs(stat - math.sqrt(n * (1.0 - f) / f)) < 1e-12
            assert abs(stat - alpha) < 1e-12
    # and every n from 1 to 1000 in one call
    n = np.arange(1, 1001)[:, None]
    alpha = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    f = n / (n + alpha**2)
    stat = povm_statistics((1.0, 0.0), np.stack((f, 1.0 - f), axis=-1), n)
    assert np.max(np.abs(stat - alpha)) <= 1e-12


def test_povm_statistic_length_check():
    with pytest.raises(ValueError):
        povm_statistics((0.2, 0.3, 0.5), (0.5, 0.5), 10)


# Probability cells for the kernel properties: empty cells and cells
# that vanish after the shift are drawn often enough to meet both rules.
_CELLS = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-300, max_value=1e-150),
)


@st.composite
def _povm_grids(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=2, max_value=6))
    cells = st.lists(_CELLS, min_size=k, max_size=k)
    p = draw(st.lists(cells, min_size=rows, max_size=rows))
    p_final = draw(st.lists(cells, min_size=rows, max_size=rows))
    n = draw(st.lists(st.integers(min_value=1, max_value=10**18),
                      min_size=rows, max_size=rows))
    return np.array(p), np.array(p_final), np.array(n)


@given(_povm_grids())
def test_povm_statistics_match_scalar_reference(grids):
    p, p_final, n = grids
    got = povm_statistics(p, p_final, n)
    rows = zip(p.tolist(), p_final.tolist(), n.tolist())
    ref = np.array([povm_statistic_scalar(*row) for row in rows])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_povm_statistics_zero_cell_rules():
    # k = 3: an empty cell on both sides is skipped, one that empties
    # after the shift is certain separation
    p = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    p_final = np.array([[0.25, 0.75, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    got = povm_statistics(p, p_final, 16)
    assert got[0] == 4.0 * math.sqrt(0.0625 / 0.25 + 0.0625 / 0.75)
    assert got[1] == math.inf
    assert got[2] == 0.0


def test_povm_statistics_broadcast_over_budgets():
    # one initial vector against a grid of final vectors and budgets,
    # the shape check_povm_reduction evaluates
    n = np.arange(1, 6)[:, None]
    alpha = np.array([0.5, 1.0, 2.0])
    a2 = alpha * alpha
    final = np.stack((n / (n + a2), a2 / (n + a2)), axis=-1)
    got = povm_statistics((1.0, 0.0), final, n)
    assert got.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            ref = povm_statistic_scalar((1.0, 0.0), final[i, j], int(n[i, 0]))
            assert got[i, j] == ref


def test_inherent_precision_half_pi():
    dphi, acc = inherent_precision(math.pi / 2.0, 100)
    assert abs(dphi - (math.pi / 2.0 - math.acos(0.02))) < 1e-15
    assert abs(dphi - 0.0200013) < 1e-7
    assert abs(acc - 0.1000067) < 1e-7


def test_inherent_precision_asymptotic():
    # dphi * n approaches 2 from above as the budget grows
    for n in (10**3, 10**5, 10**7):
        dphi, _ = inherent_precision(math.pi / 2.0, n)
        assert abs(dphi * n - 2.0) < 10.0 / n


def test_inherent_precision_frozen_value():
    dphi, acc = inherent_precision(math.pi / 4.0, 100)
    assert abs(dphi - INHERENT_PI4_N100) < 1e-12
    assert abs(acc - dphi * 5.0) < 1e-15


def test_inherent_precision_vs_bisection():
    for phi0 in (math.pi / 4.0, math.pi / 2.0, 2.0):
        dphi, _ = inherent_precision(phi0, 100)
        oracle = bisect_inherent_shift(phi0, 100)
        assert abs(dphi - oracle) < 1e-9


def test_inherent_precision_unreachable():
    dphi, acc = inherent_precision(0.1, 3)
    assert math.isnan(dphi) and math.isnan(acc)
    assert bisect_inherent_shift(0.1, 3) is None


@pytest.mark.parametrize("n, points", [(3, 199), (10**6, 999)])
def test_inherent_steps_matches_scalar_form(n, points):
    # the grids of `inherent --n 3 --grid 199` and `inherent --n 1000000`:
    # one call over the grid gives, bit for bit, one call per point
    grid = _inherent_grid(points).tolist()
    steps, accs = (a.tolist() for a in inherent_precision(np.array(grid), n))
    unreachable = 0
    for phi0, step, acc in zip(grid, steps, accs):
        dphi, acc_one = inherent_precision(phi0, n)
        if math.isnan(dphi):
            assert math.isnan(step) and math.isnan(acc) and math.isnan(acc_one)
            unreachable += 1
            continue
        assert (step, acc) == (dphi, acc_one)
    # only n = 3 leaves shallow working points unreachable
    assert (unreachable > 0) == (n == 3)


@pytest.mark.parametrize("phi0", [0.0, math.pi, math.nan])
def test_inherent_precision_refuses_a_working_point_outside_the_open_interval(phi0):
    grid = np.array([0.5, phi0, 1.5])
    with pytest.raises(ValueError, match=r"^phi0 must lie in \(0, pi\)$"):
        inherent_precision(grid, 100)


@pytest.mark.parametrize("n", [0, 2.0])
def test_inherent_precision_refuses_a_budget_that_is_no_positive_int(n):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        inherent_precision(np.array([0.5, 1.5]), n)
    # the working points are checked first
    with pytest.raises(ValueError, match="^phi0 must"):
        inherent_precision(np.array([0.5, 4.0]), n)


_U = 2.0**-53
# Relative error of one numpy float64 sin, cos or arcsin: 2 ulp.
_TRIG = 4.0 * _U


def _inherent_tolerance(phi0, n):
    """First-order relative error bound of inherent_precision's step at the
    working points phi0 (an array), from its roundings: the sine and cosine
    of phi0 / 2 (exact), their squares p0 and q0, 1/n (n rounded to a
    double, then divided), p0 + 1/n and q0 - 1/n, the two square roots of
    products, their sum, the quotient, and the arcsine with its condition
    number x / (sqrt(1 - x**2) asin x).  q0 - 1/n cancels near the edge of
    reach, which the bound follows."""
    p0 = np.cos(phi0 / 2.0) ** 2
    q0 = np.sin(phi0 / 2.0) ** 2
    inv = 1.0 / n
    e_law = 2.0 * _TRIG + _U
    e_inv = 2.0 * _U
    p2, q2 = p0 + inv, q0 - inv
    e_p2 = (e_law * p0 + e_inv * inv) / p2 + _U
    e_q2 = (e_law * q0 + e_inv * inv) / q2 + _U
    a, b = np.sqrt(q0 * p2), np.sqrt(p0 * q2)
    e_a = (e_law + e_p2 + _U) / 2.0 + _U
    e_b = (e_law + e_q2 + _U) / 2.0 + _U
    e_sum = (e_a * a + e_b * b) / (a + b) + _U
    x = inv / (a + b)
    e_x = e_inv + e_sum + _U
    cond = x / (np.sqrt((1.0 - x) * (1.0 + x)) * np.arcsin(x))
    return cond * e_x + _TRIG


def _assert_inherent_matches_mpmath(phi0, n):
    """inherent_precision(phi0, n) against a 250-bit mpmath step: NaN rows
    exactly where mpmath finds the quantum out of reach, and every other
    step and accuracy within the derived bound (the accuracy's sqrt(n) and
    product add 3 roundings)."""
    steps, accs = inherent_precision(phi0, n)
    with np.errstate(invalid="ignore"):
        tol = _inherent_tolerance(phi0, n)
    for x, step, acc, t in zip(phi0.tolist(), steps.tolist(), accs.tolist(), tol.tolist()):
        ref = inherent_step_mp(x, n)
        assert math.isnan(step) == (ref is None) == math.isnan(acc), (x, n, step)
        if ref is None:
            continue
        assert abs(step - ref) <= t * ref, (x, n, step, ref, t)
        acc_ref = ref * math.sqrt(n) / 2.0
        assert abs(acc - acc_ref) <= (t + 3.0 * _U) * acc_ref, (x, n, acc, acc_ref)


@pytest.mark.parametrize("n", [3, 100, 10**6, 10**12, 10**15])
def test_inherent_steps_match_mpmath(n):
    # over the default `inherent` grid
    _assert_inherent_matches_mpmath(_inherent_grid(999), n)


def test_inherent_steps_match_mpmath_up_to_int64_budgets():
    # budgets log-uniform up to 2**63 - 1; at each, a working point drawn
    # over the reachable range, one 1.01 times the edge of reach
    # 2 asin(1/sqrt(n)), one within 1e-12 of pi, and an unreachable one
    # 0.99 times the edge
    rng = np.random.default_rng(2027)
    logs = rng.uniform(math.log(2.0), math.log(2.0**63), 400).tolist()
    for n in [min(int(math.exp(x)), 2**63 - 1) for x in logs] + [2**63 - 1]:
        edge = 2.0 * math.asin(1.0 / math.sqrt(n))
        points = [rng.uniform(edge, math.pi), 0.99 * edge, math.pi - rng.uniform(1e-15, 1e-12)]
        if 1.01 * edge < math.pi:
            points.append(1.01 * edge)
        _assert_inherent_matches_mpmath(np.array(points), n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("phi0, n", [
    # the three points of test_unreachable_point_is_a_nan_row_with_empty_stderr
    (1e-17, 10**17),
    (5e-324, 2**63 - 1),
    (1e-300, 100),
    # just inside and outside reach at n = 10**6 and 2**53 + 1, and pi/2
    # at n = 1
    (2.0 * math.asin(1e-3) * (1 + 1e-9), 10**6),
    (2.0 * math.asin(1e-3) * (1 - 1e-9), 10**6),
    (2.0 * math.asin(2.0**-26.5) * (1 + 1e-6), 2**53 + 1),
    (2.0 * math.asin(2.0**-26.5) * (1 - 1e-6), 2**53 + 1),
    (math.pi / 2.0, 1),
])
def test_inherent_nan_rows_are_mpmath_reachability(phi0, n):
    # NaN exactly where sin**2(phi0 / 2) < 1/n at 250 bits, with no warning
    _assert_inherent_matches_mpmath(np.array([phi0]), n)


def test_inherent_optimum_is_the_closed_form_at_arccos_of_minus_one_over_n():
    # The step is least where the chord cos(phi0 + step) - cos(phi0) = -2/n
    # is centred on pi/2, at phi0* = arccos(-1/n): there it is 2 asin(1/n),
    # and the accuracy sqrt(n) asin(1/n).  phi0* is stationary, so its
    # rounding moves the step only at second order; the step and accuracy
    # are held to 250-bit mpmath within the derived bound.  A working point
    # 1e-7 to 1e-3 away gives a step larger by about d**2 / 2 relative,
    # far above that bound; nearer ones differ by less than the rounding.
    for n in (3, 100, 10**4, 10**8, 10**12, 2**53 + 1, 2**63 - 1):
        phi0 = np.array([math.acos(-1.0 / n)])
        (step,), (acc,) = (a.tolist() for a in inherent_precision(phi0, n))
        with mpmath.workprec(250):
            half = mpmath.asin(mpmath.mpf(1) / n)
            step_ref, acc_ref = float(2 * half), float(mpmath.sqrt(n) * half)
        tol = float(_inherent_tolerance(phi0, n)[0])
        assert abs(step - step_ref) <= tol * step_ref, n
        assert abs(acc - acc_ref) <= (tol + 3.0 * _U) * acc_ref, n
        offsets = np.geomspace(1e-7, 1e-3, 400)
        near = inherent_precision(np.concatenate([phi0 - offsets, phi0 + offsets]), n)[0]
        assert np.all(near >= step), n


def test_inherent_accuracy_decreases_with_budget():
    accs = [inherent_precision(math.pi / 2.0, n)[1] for n in (10, 100, 1000, 10**4)]
    assert all(b < a for a, b in zip(accs, accs[1:]))


@given(
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_min_signal_bracket_property(n, alpha):
    # trade-off bound never exceeds the exact requirement, and the
    # asymptotic form never falls below it; slack 1e-9 absorbs the
    # arccos conditioning when the argument sits next to 1
    exact = min_detectable_signal(alpha, n)
    assert 0.0 < exact <= math.pi
    assert _tradeoff_chord(alpha, n, 1.0) <= exact + 1e-9
    assert exact <= 2.0 * alpha / math.sqrt(n) + 1e-9
