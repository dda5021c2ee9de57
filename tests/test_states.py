import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metrotrade.states import (
    GeneratorSpec,
    ProbeKind,
    ProbePhaseState,
    canonical_spread,
    fidelity,
    quantum_fisher_information,
)

from helpers import ghz_fidelity_bruteforce, product_fidelity_bruteforce


def test_fidelity_identical_states():
    s = ProbePhaseState(1.234)
    assert fidelity(s, 1.234) == 1.0


def test_fidelity_single_pi_over_3():
    s = ProbePhaseState(math.pi / 3.0)
    assert abs(fidelity(s, 0.0) - 0.75) < 1e-15


def test_fidelity_ghz_m3():
    # cos(3 * pi/6) = 0, so the overlap sits at exactly one half
    s = ProbePhaseState(math.pi / 6.0, particles=3, kind=ProbeKind.GHZ)
    assert abs(fidelity(s, 0.0) - 0.5) < 1e-15


def test_fidelity_product_m2_vs_bruteforce():
    s = ProbePhaseState(math.pi / 2.0, particles=2, kind=ProbeKind.PRODUCT)
    got = fidelity(s, 0.0)
    oracle = product_fidelity_bruteforce(math.pi / 2.0, 0.0, 2)
    assert abs(got - 0.25) < 1e-15
    assert abs(got - oracle) < 1e-12


def test_fidelity_product_random_vs_bruteforce():
    for m in (1, 2, 3):
        for delta in (0.1, 0.7, 1.9, 3.0):
            s = ProbePhaseState(delta, particles=m, kind=ProbeKind.PRODUCT)
            assert abs(fidelity(s, 0.0) - product_fidelity_bruteforce(delta, 0.0, m)) < 1e-12


def test_fidelity_ghz_random_vs_bruteforce():
    for m in (1, 2, 3, 4):
        for delta in (0.1, 0.7, 1.9, 3.0):
            s = ProbePhaseState(delta, particles=m, kind=ProbeKind.GHZ)
            assert abs(fidelity(s, 0.0) - ghz_fidelity_bruteforce(delta, 0.0, m)) < 1e-12


def test_signal_zero_at_zero_shift():
    s = ProbePhaseState(0.5)
    assert 1.0 - fidelity(s, 0.5) == 0.0


def test_signal_ghz_complement():
    s = ProbePhaseState(math.pi / 6.0, particles=3, kind=ProbeKind.GHZ)
    assert abs(1.0 - fidelity(s, 0.0) - 0.5) < 1e-15


def test_signal_small_angle():
    # (1 - cos d)/2 = d^2/4 + O(d^4); also equals (d * spread)^2 at spread 1/2
    s = ProbePhaseState(0.01)
    assert abs(1.0 - fidelity(s, 0.0) - 2.5e-5) < 1e-9
    spread = canonical_spread(s).spread
    assert abs(1.0 - fidelity(s, 0.0) - (0.01 * spread) ** 2) < 1e-9


def test_qfi_unit_spread():
    assert quantum_fisher_information(GeneratorSpec(0.5)) == 1.0


def test_qfi_zero_spread():
    assert quantum_fisher_information(GeneratorSpec(0.0)) == 0.0


def test_qfi_matches_fidelity_curvature():
    # Fq = -2 F''(0) by central finite difference, for all four kinds
    h = 1e-4
    cases = [
        (ProbeKind.SINGLE, 1, 1.0),
        (ProbeKind.PRODUCT, 5, 1.0),
        (ProbeKind.GHZ, 5, 1.0),
        (ProbeKind.NONLINEAR, 3, 2.0),
    ]
    for kind, m, k in cases:
        def f(d):
            return fidelity(
                ProbePhaseState(d, particles=m, kind=kind, nonlinear_exponent=k),
                0.0,
            )

        curv = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)
        fq = quantum_fisher_information(
            canonical_spread(
                ProbePhaseState(0.0, particles=m, kind=kind, nonlinear_exponent=k)
            )
        )
        assert abs(-2.0 * curv - fq) < 1e-4 * max(1.0, fq)


def test_canonical_spreads():
    assert canonical_spread(ProbePhaseState(0.0)).spread == 0.5
    assert canonical_spread(
        ProbePhaseState(0.0, particles=4, kind=ProbeKind.PRODUCT)
    ).spread == 1.0
    assert canonical_spread(
        ProbePhaseState(0.0, particles=4, kind=ProbeKind.GHZ)
    ).spread == 2.0
    assert canonical_spread(
        ProbePhaseState(0.0, particles=4, kind=ProbeKind.NONLINEAR, nonlinear_exponent=2.0)
    ).spread == 8.0


def test_m1_reductions():
    # every family collapses to the single-qubit overlap at one particle
    for delta in (0.3, 1.1, 2.5):
        base = fidelity(ProbePhaseState(delta), 0.0)
        for kind in (ProbeKind.PRODUCT, ProbeKind.GHZ, ProbeKind.NONLINEAR):
            other = fidelity(ProbePhaseState(delta, particles=1, kind=kind), 0.0)
            assert abs(other - base) < 1e-15


def test_phase_wraps():
    s = ProbePhaseState(2.0 * math.pi + 0.25)
    assert abs(s.phase - 0.25) < 1e-12


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        ProbePhaseState(math.nan)
    with pytest.raises(ValueError):
        ProbePhaseState(0.0, particles=0, kind=ProbeKind.GHZ)
    with pytest.raises(ValueError):
        ProbePhaseState(0.0, particles=3, kind=ProbeKind.SINGLE)
    with pytest.raises(ValueError):
        ProbePhaseState(0.0, particles=2, kind=ProbeKind.NONLINEAR, nonlinear_exponent=0.5)
    with pytest.raises(ValueError):
        GeneratorSpec(-0.1)


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(list(ProbeKind)),
)
def test_fidelity_always_in_unit_interval(phase, ref, m, kind):
    if kind is ProbeKind.SINGLE:
        m = 1
    s = ProbePhaseState(phase, particles=m, kind=kind)
    f = fidelity(s, ref)
    assert 0.0 <= f <= 1.0
