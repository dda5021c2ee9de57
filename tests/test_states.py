"""Probe states of the four resource strategies, as `metrotrade.resources`
models them: the signal 1 - F inside the monotone branch against
brute-force state vectors, and the quantum Fisher information -2 F''(0)
of one probe."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metrotrade.errors import BranchError
from metrotrade.resources import StrategyConfig, StrategyKind, strategy_signal_noise

from helpers import ghz_fidelity_bruteforce, product_fidelity_bruteforce

# (strategy, M, k) at which each probe's curvature is checked
PROBES = [
    (StrategyKind.ENSEMBLE, 1, 1.0),
    (StrategyKind.PRODUCT, 5, 1.0),
    (StrategyKind.GHZ, 5, 1.0),
    (StrategyKind.NONLINEAR, 3, 2.0),
]


def _probe(kind, m, k=1.0):
    return StrategyConfig(kind, m, 1, nonlinear_exponent=k)


def _signal(kind, m, phi, k=1.0):
    return strategy_signal_noise(_probe(kind, m, k), phi)[0]


def test_fidelity_single_pi_over_3():
    # F = (1 + cos(pi/3)) / 2 = 3/4
    assert abs(_signal(StrategyKind.ENSEMBLE, 1, math.pi / 3.0) - 0.25) < 1e-15


def test_fidelity_ghz_m3():
    # cos(3 * pi/6) = 0, so the overlap sits at exactly one half
    assert abs(_signal(StrategyKind.GHZ, 3, math.pi / 6.0) - 0.5) < 1e-15


def test_fidelity_product_m2_vs_bruteforce():
    sig = _signal(StrategyKind.PRODUCT, 2, math.pi / 2.0)
    oracle = 1.0 - product_fidelity_bruteforce(math.pi / 2.0, 0.0, 2)
    assert abs(sig - 0.75) < 1e-15
    assert abs(sig - oracle) < 1e-12


def test_fidelity_product_random_vs_bruteforce():
    # the product branch is (0, pi) for every M
    for m in (1, 2, 3):
        for delta in (0.1, 0.7, 1.9, 3.0):
            oracle = 1.0 - product_fidelity_bruteforce(delta, 0.0, m)
            assert abs(_signal(StrategyKind.PRODUCT, m, delta) - oracle) < 1e-12


def test_fidelity_ghz_random_vs_bruteforce():
    # the ghz branch is (0, pi / M)
    for m in (1, 2, 3, 4):
        for frac in (0.03, 0.2, 0.6, 0.95):
            delta = frac * math.pi / m
            oracle = 1.0 - ghz_fidelity_bruteforce(delta, 0.0, m)
            assert abs(_signal(StrategyKind.GHZ, m, delta) - oracle) < 1e-12


def test_signal_zero_at_zero_shift():
    # F -> 1 as the shift does: at 1e-200 the squared half-angle
    # underflows, so signal and noise are exactly 0 for every probe
    for kind, m, k in PROBES:
        assert strategy_signal_noise(_probe(kind, m, k), 1e-200) == (0.0, 0.0)


def test_signal_ghz_complement():
    sig = _signal(StrategyKind.GHZ, 3, math.pi / 6.0)
    assert abs(sig - (1.0 - ghz_fidelity_bruteforce(math.pi / 6.0, 0.0, 3))) < 1e-15


def test_signal_small_angle():
    # 1 - F = Fq d**2 / 4 + O(d**4); at spread 1/2 that is (d / 2)**2
    assert abs(_signal(StrategyKind.ENSEMBLE, 1, 0.01) - 2.5e-5) < 1e-9
    for kind, m, k in PROBES:
        cfg = _probe(kind, m, k)
        phi = 1e-3 / cfg.frequency_factor
        sig = strategy_signal_noise(cfg, phi)[0]
        assert abs(sig - cfg.quantum_fisher_information * phi * phi / 4.0) <= 1e-5 * sig


def test_qfi_unit_spread():
    # one body, spread 1/2: Fq = 1 for every strategy
    for kind in StrategyKind:
        assert _probe(kind, 1, 2.0).quantum_fisher_information == 1.0


def test_qfi_matches_fidelity_curvature():
    # Fq = -2 F''(0) by central finite difference; F is even, so the
    # difference is 4 (1 - F(h)) / h**2
    h = 1e-4
    for kind, m, k in PROBES:
        cfg = _probe(kind, m, k)
        curv = 4.0 * strategy_signal_noise(cfg, h)[0] / (h * h)
        fq = cfg.quantum_fisher_information
        assert abs(curv - fq) < 1e-4 * max(1.0, fq)


def test_canonical_spreads():
    # Fq = 4 spread**2 with spreads 1/2, sqrt(M)/2, M/2 and M**k/2 at M = 4
    expect = {StrategyKind.ENSEMBLE: 1.0, StrategyKind.PRODUCT: 4.0,
              StrategyKind.GHZ: 16.0, StrategyKind.NONLINEAR: 256.0}
    for kind, fq in expect.items():
        assert _probe(kind, 4, 2.0).quantum_fisher_information == fq


def test_m1_reductions():
    # every family collapses to the single-qubit overlap at one particle
    for delta in (0.3, 1.1, 2.5):
        base = _signal(StrategyKind.ENSEMBLE, 1, delta)
        for kind in (StrategyKind.PRODUCT, StrategyKind.GHZ, StrategyKind.NONLINEAR):
            assert abs(_signal(kind, 1, delta, 2.0) - base) < 1e-15


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        _probe(StrategyKind.GHZ, 0)
    with pytest.raises(ValueError):
        _probe(StrategyKind.PRODUCT, 2.0)
    with pytest.raises(ValueError):
        _probe(StrategyKind.NONLINEAR, 2, 0.5)
    with pytest.raises(BranchError):
        _signal(StrategyKind.ENSEMBLE, 1, math.nan)


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(list(StrategyKind)),
)
@example(0.9999999999999999, 1, StrategyKind.PRODUCT)  # sin2 rounds to 1
def test_fidelity_always_in_unit_interval(frac, m, kind):
    cfg = _probe(kind, m, 2.0)
    phi = frac * math.pi / cfg.frequency_factor
    if not 0.0 < phi < math.pi / cfg.frequency_factor:
        return  # frac * limit rounded onto an end of the branch
    sig, noise = strategy_signal_noise(cfg, phi)
    assert 0.0 <= sig <= 1.0
    assert noise >= 0.0
