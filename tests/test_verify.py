import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    bisection_min_signal_100,
    classical_fisher_scalar,
    min_signal_inequality_holds,
    povm_statistic_scalar,
    substream_uniform_ref,
)
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


def fisher_points_by_scalar_loop(seed):
    """fisher_consistency's 100 equator points (phi, phi_b), one at a time:
    uniforms 2i and 2i + 1 of the substream at seed + 1, scaled onto
    [0.05, pi - 0.05] and [0, 2 pi], with phi_b nudged off a degenerate
    basis."""
    points = []
    for i in range(100):
        u_phi, u_b = (substream_uniform_ref((seed + 1) % 2**64, t) for t in (2 * i, 2 * i + 1))
        phi = 0.05 + (math.pi - 0.1) * u_phi
        phi_b = 2.0 * math.pi * u_b
        if min(abs(phi - phi_b) % math.pi, math.pi - abs(phi - phi_b) % math.pi) < 1e-3:
            phi_b += 0.01
        points.append((phi, phi_b))
    return points


def fisher_detail_by_scalar_loop(seed):
    """The circle and overshoot part of fisher_consistency's detail, one
    basis at a time over the same substream draws and mesh."""
    worst_circle = 0.0
    for phi, phi_b in fisher_points_by_scalar_loop(seed):
        fc = classical_fisher_scalar(math.pi / 2.0, phi_b, phi)
        worst_circle = max(worst_circle, abs(fc - 1.0))
    worst_over = 0.0
    for theta in np.linspace(0.0, math.pi, 100):
        for phi_b in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            fc = classical_fisher_scalar(float(theta), float(phi_b), 0.7)
            worst_over = max(worst_over, fc - 1.0)
    return f"|Fc-1| circle max {worst_circle:.2e}, overshoot {worst_over:.2e}"


def test_povm_reduction_detail_matches_scalar_loop():
    passed, detail = verify.check_povm_reduction(1e-12)
    assert passed
    assert detail == povm_detail_by_scalar_loop()


@pytest.mark.parametrize("seed", [0, 5, 99, 2**64 - 1])
def test_fisher_consistency_detail_matches_scalar_loop(monkeypatch, seed):
    # both details read 0.00e+00 on any equator points, so the points the
    # check evaluates on the equator are held to the scalar loop's too
    calls = []
    fisher_values = verify.estimation.classical_fisher_values

    def recording(theta, phi_b, phi):
        calls.append((phi, phi_b))
        return fisher_values(theta, phi_b, phi)

    monkeypatch.setattr(verify.estimation, "classical_fisher_values", recording)
    passed, detail = verify.check_fisher_consistency(1e-4, seed=seed)
    assert passed
    phis, phi_bs = calls[0]
    assert list(zip(phis.tolist(), phi_bs.tolist())) == fisher_points_by_scalar_loop(seed)
    circle_and_overshoot = detail.split(", curvature")[0]
    assert circle_and_overshoot == fisher_detail_by_scalar_loop(seed)


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_corrupt_flips_only_the_named_check(name):
    results = verify.run_all(seed=5, corrupt=name)
    assert [r.name for r in results if not r.passed] == [name]


def draw_monte_carlo_on_pool(monkeypatch, workers):
    """Cut bias_structure's 10**5 Monte Carlo trials into 25 chunks of 2**12,
    counted on `workers` threads of count_histogram's pool; returns the list
    that each counted chunk appends its thread to."""
    kernel, callers = verify.sampling._window_histogram, []

    def spy(*args):
        callers.append(threading.current_thread())
        return kernel(*args)

    monkeypatch.setattr(verify.sampling, "_MC_CHUNK", 2**12)
    monkeypatch.setattr(verify.sampling, "_mc_workers", lambda: workers)
    monkeypatch.setattr(verify.sampling, "_window_histogram", spy)
    return callers


# The two tests below are named for a pooled run_all; what is pooled is
# count_histogram inside bias_structure (ROADMAP item 6 renames them).
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", [0, 3, 9, 2**64 - 1])
def test_pooled_run_all_equals_the_checks_in_order(monkeypatch, seed, workers):
    # the report does not depend on how the Monte Carlo is chunked or on
    # how many threads count it
    expected = verify.run_all(seed=seed)
    callers = draw_monte_carlo_on_pool(monkeypatch, workers)
    assert verify.run_all(seed=seed) == expected
    assert len(callers) == 25
    assert all(t is threading.main_thread() for t in callers) == (workers == 1)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_pooled_run_all_equals_the_checks_in_order_when_corrupted(monkeypatch, name, workers):
    expected = verify.run_all(seed=7, corrupt=name)
    draw_monte_carlo_on_pool(monkeypatch, workers)
    assert verify.run_all(seed=7, corrupt=name) == expected


def test_run_all_with_a_pooled_count_histogram_is_the_same_under_frequent_thread_switches(
        monkeypatch):
    # the Monte Carlo on four threads, switching every few microseconds
    expected = verify.run_all(seed=3)
    callers = draw_monte_carlo_on_pool(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = [verify.run_all(seed=3) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [expected] * 3
    assert len(callers) == 3 * 25


class _CheckRaised(Exception):
    pass


@pytest.mark.parametrize("first", [1, 2, 4])
def test_run_all_raises_the_first_failing_check_in_order(monkeypatch, first):
    # the check at index `first` raises, and so would the one at index 5;
    # run_all raises the first, and no check after it runs
    ran = []

    def recording(name, fn):
        def check(tol, seed=0):
            ran.append(name)
            return fn(tol, seed)
        return check

    def raising(name):
        def check(tol, seed=0):
            ran.append(name)
            raise _CheckRaised(name)
        return check

    checks = [(name, recording(name, fn), tol, bad_tol)
              for name, fn, tol, bad_tol in verify._CHECKS]
    for index in (first, 5):
        name = checks[index][0]
        checks[index] = (name, raising(name), 0.0, 0.0)
    monkeypatch.setattr(verify, "_CHECKS", tuple(checks))
    with pytest.raises(_CheckRaised, match=f"^{verify.CHECK_NAMES[first]}$"):
        verify.run_all(seed=0)
    assert ran == list(verify.CHECK_NAMES[:first + 1])


N_GRID = np.arange(1, 10**4 + 1, dtype=np.float64)


@pytest.mark.parametrize("alpha", verify._ALPHA_GRID)
def test_newton_oracle_is_certified_at_every_pair(alpha):
    # the inequality fails just left of each root and holds just right of it
    root = verify._newton_min_signal(N_GRID, alpha)
    assert not np.any(min_signal_inequality_holds(root - 1e-11, N_GRID, alpha))
    assert np.all(min_signal_inequality_holds(root + 1e-11, N_GRID, alpha))


@pytest.mark.parametrize("alpha", verify._ALPHA_GRID)
def test_newton_oracle_agrees_with_bisection(alpha):
    # Each oracle stops where its computed margin changes sign; with
    # c = alpha / sqrt(n) the exact root is phi = 2 atan(c), y = cos phi.
    # Bisection's margin sep - alpha sqrt(p sep / n) rounds by at most ~8 eps
    # (cos to 4 ulp, then p, sep and the root term), and its slope in phi at
    # the root is exactly c / 2, so it lies within 16 eps / c of the root,
    # plus two spacings of the doubles it returns.  Newton's twice-margin
    # (1 - y) - c sqrt((1 - y)(1 + y)) rounds by at most 4 eps (1 - y) from
    # its two terms, each 1 - y = 2 c**2 / (1 + c**2) at the root, and its
    # slope there is -(1 + c**2) / 2, so y lies within
    # 16 eps c**2 / (1 + c**2)**2 of the root, plus one spacing of y (at
    # most eps / 2).  arccos scales both by 1 / sin phi = (1 + c**2) / (2 c):
    # 8 eps c / (1 + c**2) + eps (1 + c**2) / (4 c), which is below 16 eps / c
    # for c <= 4, plus two spacings of the arccos it returns.  So one
    # 16 eps / c + 2 spacings bounds either oracle's distance to the root.
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
    verdict, detail = verify.check_bound_vs_oracle(1e-9)
    assert bool(verdict) is passed
    assert detail.endswith("50000/50000 roots certified at +-1e-11")


# One-line kernel faults a reader could plausibly write: the file, the exact
# source line, its faulty replacement and the one check that must fail.
# verify misses six more today (ROADMAP item 13); they join this table when
# the checks that should see them can.
KERNEL_FAULTS = {
    "min_signal_at_n_plus_1": (
        "bounds.py",
        "    return 2.0 * np.arctan(alpha / np.sqrt(n))\n",
        "    return 2.0 * np.arctan(alpha / np.sqrt(n + 1.0))\n",
        "bound_vs_oracle"),
    "min_signal_scaled": (
        "bounds.py",
        "    return 2.0 * np.arctan(alpha / np.sqrt(n))\n",
        "    return 2.0 * np.arctan(alpha / np.sqrt(n)) * (1 + 1e-7)\n",
        "bound_vs_oracle"),
    "critical_fidelity_scaled": (
        "bounds.py",
        "    return m / (m + alpha * (alpha / scale))\n",
        "    return m / (m + alpha * (alpha / scale)) * (1 + 1e-9)\n",
        "povm_reduction"),
    "phase_estimate_scaled": (
        "estimation.py",
        "        return 2.0 * np.arctan2(np.sqrt(n - k), np.sqrt(k)) - phi\n",
        "        return 2.0 * np.arctan2(np.sqrt(n - k), np.sqrt(k)) * (1 + 1e-6) - phi\n",
        "bias_structure"),
    "histogram_counts_off_by_one": (
        "estimation.py",
        '    return _report_from_pmf(phi, p, n, lo + ks, hist[ks] / trials, "MonteCarlo")\n',
        '    return _report_from_pmf(phi, p, n, lo + 1 + ks, hist[ks] / trials, "MonteCarlo")\n',
        "bias_structure"),
    "basis_snr_scaled": (
        "basis.py",
        "    return ratio\n",
        "    return ratio * (1 + 1e-6)\n",
        "optimal_basis"),
    "quantum_fisher_scaled": (
        "resources.py",
        "    return e * f * f\n",
        "    return e * f * f * (1 + 1e-3)\n",
        "fisher_consistency"),
}


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_verify_fails_the_check_a_kernel_fault_breaks(tmp_path, fault):
    filename, line, faulty, check = KERNEL_FAULTS[fault]
    package = Path(verify.__file__).resolve().parent
    copy = tmp_path / "src" / package.name
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / filename).read_text()
    assert source.count(line) == 1
    (copy / filename).write_text(source.replace(line, faulty))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    proc = subprocess.run([sys.executable, "-m", "metrotrade", "verify"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    failed = [row.split()[1] for row in proc.stdout.splitlines() if row.startswith("FAIL ")]
    assert failed == [check]
