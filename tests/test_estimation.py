import concurrent.futures
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metrotrade import _MC_WORKERS
from metrotrade.estimation import (
    EstimatorReport,
    classical_fisher_values,
    exact_bias_report,
    _report_from_pmf,
    monte_carlo_report,
)
from metrotrade import sampling
from metrotrade.sampling import _MC_CHUNK, draw_count_matrix

from helpers import basis_probabilities, classical_fisher_scalar

EPS = sys.float_info.epsilon

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
    # binomial symmetry at p = 1/2 meets arccos antisymmetry about 1/2
    for n in (4, 10, 16, 33):
        rep = exact_bias_report(math.pi / 2.0, n)
        assert abs(rep.bias_phi) < 1e-12
        assert abs(rep.bias_p) < 1e-12


def test_exact_report_unbiased_p_everywhere():
    for phi in (0.3, 1.0, 2.2, 3.0):
        for n in (3, 17, 64):
            rep = exact_bias_report(phi, n)
            assert abs(rep.bias_p) < 1e-12


def test_mse_decomposition_enforced():
    rep = exact_bias_report(1.0, 20)
    assert abs(rep.mse_phi - (rep.var_phi + rep.bias_phi**2)) < 1e-10
    with pytest.raises(ValueError):
        EstimatorReport(
            mean_p_hat=0.5,
            bias_p=0.0,
            mean_phi_hat=1.0,
            bias_phi=0.0,
            var_phi=1.0,
            mse_phi=2.0,
            mode="ExactEnumeration",
        )


def test_monte_carlo_matches_exact():
    exact = exact_bias_report(math.pi / 4.0, 10)
    mc = monte_carlo_report(math.pi / 4.0, 10, trials=10**5, seed=0)
    assert mc.mode == "MonteCarlo"
    se = math.sqrt(exact.var_phi / 10**5)
    assert abs(mc.bias_phi - exact.bias_phi) <= 5.0 * se
    assert abs(mc.mse_phi - (mc.var_phi + mc.bias_phi**2)) < 1e-10


def test_monte_carlo_symmetry_case():
    mc = monte_carlo_report(math.pi / 2.0, 100, trials=10**5, seed=1)
    assert abs(mc.bias_phi) <= 5.0 * math.sqrt(mc.var_phi / 10**5)


def test_monte_carlo_reproducible():
    a = monte_carlo_report(1.2, 25, trials=2000, seed=77)
    b = monte_carlo_report(1.2, 25, trials=2000, seed=77)
    assert a == b


def test_monte_carlo_chunks_match_one_draw():
    # two chunks reduce to the report of one draw over all the trials
    phi, n, seed, trials = 0.9, 12, 5, _MC_CHUNK + 1000
    p = (1.0 + math.cos(phi)) / 2.0
    counts = draw_count_matrix(p, n, seed, trials)
    weights = np.bincount(counts, minlength=n + 1) / trials
    one_draw = _report_from_pmf(phi, p, n, np.arange(n + 1), weights, "MonteCarlo")
    assert monte_carlo_report(phi, n, trials, seed) == one_draw


def _one_draw_report(phi, n, trials, seed):
    """The reduction of one unchunked draw_count_matrix call."""
    p = (1.0 + math.cos(phi)) / 2.0
    counts = draw_count_matrix(p, n, seed, trials)
    lo = int(counts.min())
    weights = np.bincount(counts - lo) / trials
    return _report_from_pmf(
        phi, p, n, lo + np.arange(weights.size), weights, "MonteCarlo"
    )


@pytest.mark.parametrize("workers", [1, _MC_WORKERS])
def test_monte_carlo_pool_matches_one_draw(monkeypatch, workers):
    # 16 chunks: drawn on the calling thread alone, or on the widest pool
    # whatever this host's CPU count; every chunk is counted through the
    # module global, and the first finds the (p, n) table already built,
    # once
    phi, n, seed, trials = 0.9, 12, 5, 2**20
    p = (1.0 + math.cos(phi)) / 2.0
    table, kernel = sampling._binomial_cdf_table, sampling._window_histogram
    builds, callers, first_draw = [], [], []
    lock = threading.Lock()

    def build(*args):
        builds.append(args)
        return table(*args)

    def spy(*args, **kwargs):
        with lock:
            if not callers:
                first_draw.append(list(builds))
            callers.append(threading.current_thread())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(sampling, "_mc_workers", lambda: workers)
    monkeypatch.setattr(sampling, "_binomial_cdf_table", build)
    monkeypatch.setattr(sampling, "_window_histogram", spy)
    rep = monte_carlo_report(phi, n, trials, seed)
    assert len(callers) == trials // _MC_CHUNK
    assert first_draw == [[(p, n)]]
    assert builds == [(p, n)]
    on_main = [t is threading.main_thread() for t in callers]
    assert all(on_main) == (workers == 1)
    monkeypatch.undo()
    assert rep == _one_draw_report(phi, n, trials, seed)


@pytest.mark.parametrize("phi", [1e-9, math.pi - 1e-9])
def test_monte_carlo_at_a_certain_outcome_matches_one_draw(phi):
    # p rounds to 1 or 0: the table holds the one count, n or 0
    p = (1.0 + math.cos(phi)) / 2.0
    assert p in (0.0, 1.0)
    assert monte_carlo_report(phi, 100, 1000, 4) == _one_draw_report(phi, 100, 1000, 4)


def test_monte_carlo_builds_the_cdf_table_once(monkeypatch):
    # n = 2**34 at p = 1/2 needs a 1.57M-entry window; the chunks share it,
    # also when drawn on a pool
    phi, n, seed, trials = math.pi / 2.0, 2**34, 11, 2**20
    assert trials >= 4 * _MC_CHUNK
    monkeypatch.setattr(sampling, "_mc_workers", lambda: _MC_WORKERS)
    p = (1.0 + math.cos(phi)) / 2.0
    table, builds = sampling._binomial_cdf_table, []
    monkeypatch.setattr(sampling, "_binomial_cdf_table",
                        lambda *args: builds.append(args) or table(*args))
    rep = monte_carlo_report(phi, n, trials, seed)
    assert builds == [(p, n)]
    monkeypatch.undo()
    assert rep == _one_draw_report(phi, n, trials, seed)


@pytest.mark.parametrize("workers", [2, _MC_WORKERS])
def test_monte_carlo_pool_starts_below_two_chunks_per_worker(monkeypatch, workers):
    class NoPool(Exception):
        pass

    def refuse(*args, **kwargs):
        raise NoPool

    monkeypatch.setattr(sampling, "_mc_workers", lambda: workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    below = (2 * workers - 1) * _MC_CHUNK
    assert monte_carlo_report(1.0, 10, below, 0).mode == "MonteCarlo"
    with pytest.raises(NoPool):
        monte_carlo_report(1.0, 10, below + 1, 0)


def test_monte_carlo_matches_per_trial_sums():
    # reference: the moments summed trial by trial, each weighted 1/trials;
    # per term the two differ by at most two roundings, so the sums of
    # these non-negative terms agree to 4 eps relative
    phi, n, seed, trials = 0.7, 10, 3, 10**5
    p = (1.0 + math.cos(phi)) / 2.0
    p_hat = draw_count_matrix(p, n, seed, trials) / n
    phi_hat = np.arccos(2.0 * p_hat - 1.0)
    w = 1.0 / trials
    mean_phi = math.fsum((w * phi_hat).tolist())
    ref = {
        "mean_p_hat": math.fsum(p_hat.tolist()) / trials,
        "mean_phi_hat": mean_phi,
        "var_phi": math.fsum((w * (phi_hat - mean_phi) ** 2).tolist()),
        "mse_phi": math.fsum((w * (phi_hat - phi) ** 2).tolist()),
    }
    rep = monte_carlo_report(phi, n, trials, seed)
    for name, value in ref.items():
        assert abs(getattr(rep, name) - value) <= 4.0 * EPS * value, name


def test_monte_carlo_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(sampling, "_mc_workers", lambda: _MC_WORKERS)
    tracemalloc.start()
    try:
        monte_carlo_report(1.0, 10, trials=2**22, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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
    with pytest.raises(ValueError):
        monte_carlo_report(1.0, 10, trials=50, seed=0)


def test_fisher_equator_is_unit():
    for phi_b in (0.0, 1.0, 2.5, 4.0, 6.0):
        fc = classical_fisher_values(math.pi / 2.0, phi_b, 0.7)
        if abs(math.cos(0.7 - phi_b)) == 1.0:
            continue
        assert abs(fc - 1.0) < 1e-10


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
    for i in range(50):
        theta = math.pi * i / 49.0
        for j in range(50):
            phi_b = 2.0 * math.pi * j / 50.0
            fc = classical_fisher_values(theta, phi_b, 0.8)
            assert fc <= 1.0 + 1e-10


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


def test_fisher_values_on_circle_limit():
    # sin(pi/2) cos(0) and sin(pi/2) cos(pi) are exactly +-1 in floats:
    # a certain outcome, where the on-circle limit 1 is returned
    got = classical_fisher_values(
        math.pi / 2.0, np.array([0.7, 0.0]), np.array([0.7, math.pi])
    )
    assert got.tolist() == [1.0, 1.0]
    assert classical_fisher_values(math.pi / 2.0, 0.0, 0.0) == 1.0
