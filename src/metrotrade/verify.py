"""Self-verification harness: every module invariant at pinned parameters.

Each check recomputes one headline property from scratch, compares it
against its expected value at a fixed tolerance and returns its verdict
and a detail line.  run_all names each result from its _CHECKS entry and
returns the results in a fixed order with deterministic formatting, so
two runs with the same seed produce byte-identical reports.  The checks run
in turn on the calling thread: their numpy calls on 10**4-element arrays
hold the interpreter lock for most of their time, so a thread pool would
gain little.

The corrupt hook exists for testing the harness itself: naming a check
replaces its tolerance with an impossible one, which must flip that
check (and only that check) to FAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from . import bounds, estimation, resources, sampling

_ALPHA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_factor2(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Exact minimum signal approaches twice the inverse-root benchmark."""
    n = np.array([10**2, 10**3, 10**4, 10**5], dtype=np.float64)
    ratios = bounds._qcrb_and_ratio(bounds.min_detectable_signal(1.0, n), n)[1].tolist()
    at_1e4 = ratios[2]
    in_band = (1.99 - tol) <= at_1e4 <= (2.0 + tol)
    monotone = all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 2.0
    return in_band and monotone, (f"ratio(1e4)={at_1e4:.12f} in [1.99,2] and monotone "
                                  f"{'+'.join(f'{r:.10f}' for r in ratios)}")


def check_inherent_optimum(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Resolution and accuracy at phi0 = pi/2, n = 100, match their values."""
    n = 100
    dphi, acc = bounds.inherent_precision(math.pi / 2.0, n)
    res = 1.0 / dphi
    ok_res = abs(res - 49.9967) <= tol * 49.9967
    ok_acc = abs(acc - 0.100007) <= tol * 0.100007
    grid = np.linspace(0.0, math.pi, 2003)[1:-1]
    best_res = float(np.nanmax(1.0 / bounds.inherent_precision(grid, n)[0]))
    ok_peak = best_res - res <= tol * res
    return ok_res and ok_acc and ok_peak, (
        f"res={res:.6f} (vs 49.9967), acc={acc:.9f} (vs 0.100007), "
        f"grid max {best_res:.6f} within tolerance of pi/2 value")


def check_accuracy_decreases(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Inherent accuracy falls with the sample budget at phi0 = pi/2."""
    accs = [bounds.inherent_precision(math.pi / 2.0, n)[1] for n in (10, 10**2, 10**3, 10**4)]
    return (all(b < a - tol for a, b in zip(accs, accs[1:])),
            "alpha(n) = " + ", ".join(f"{a:.6f}" for a in accs))


def check_optimal_basis(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Mesh refinement recovers the analytic optimum at phi = pi/10, n = 1."""
    phi, n = math.pi / 10.0, 1
    analytic = math.tan(phi / 2.0)
    best, snr = basis_mod.find_optimal_basis(phi, n)
    ok_snr = abs(snr - analytic) <= tol
    ok_theta = abs(best.theta - math.pi / 2.0) <= 1e-3
    ok_cap = snr <= analytic + 1e-9
    return (ok_snr and ok_theta and ok_cap,
            f"snr={snr:.10f} vs analytic {analytic:.10f}, theta={best.theta:.8f}")


def check_povm_reduction(tol: float, seed: int = 0) -> tuple[bool, str]:
    """The separation statistic equals alpha exactly at critical fidelity."""
    n = np.arange(1, 1001)[:, None]
    alpha = np.array(_ALPHA_GRID)
    a2 = alpha * alpha
    final = np.stack((bounds.critical_fidelity(alpha, n), a2 / (n + a2)), axis=-1)
    stat = bounds.povm_statistics((1.0, 0.0), final, n)
    worst = float(np.max(np.abs(stat - alpha)))
    return worst <= tol, f"max |statistic - alpha| = {worst:.3e}"


# Half-width of the bracket that certifies each Newton root: 100 times the
# predicate's rounding noise on this grid (about 2**-52 / (alpha/sqrt(n))
# <= 9e-14) and 100 times below the check's tolerance.
_CERTIFY_H = 1e-11


def _detects(phi, n_arr: np.ndarray, alpha: float) -> np.ndarray:
    """The defining inequality 1 - p >= alpha * sqrt(p (1 - p) / n), with
    p = (1 + cos phi) / 2 the probability of the unshifted outcome."""
    p = (1.0 + np.cos(phi)) / 2.0
    sep = 1.0 - p
    return sep >= alpha * np.sqrt(p * sep / n_arr)


def _newton_min_signal(n_arr: np.ndarray, alpha: float) -> np.ndarray:
    """Oracle: root of the inequality's margin sep - alpha sqrt(p sep / n)
    by six Newton steps on y = cos phi, with no reference to the closed form.

    With c = alpha / sqrt(n), twice the margin is (1 - y) - c sqrt((1 - y)
    (1 + y)), whose slope c y / sqrt(1 - y**2) - 1 reuses the root term, so
    the steps need no trig call.  The start cos(min(2c, 2.8)) lies at or
    left of the root y = cos(2 atan c), as atan x <= x and 2.8 caps 2c above
    every root on the grid (2 atan 4 ~ 2.652).  The margin is convex in y
    and positive there, so the steps rise to the root without overshoot.
    Convergence is not assumed: check_bound_vs_oracle certifies each root
    with _detects.
    """
    c = alpha / np.sqrt(n_arr)
    y = np.cos(np.minimum(2.0 * c, 2.8))
    for _ in range(6):
        sep = 1.0 - y
        amp = np.sqrt(sep * (1.0 + y))
        y = y - (sep - c * amp) / (c * y / amp - 1.0)
    return np.arccos(y)


def check_bound_vs_oracle(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Closed-form minimum signal agrees with a certified Newton root."""
    n_arr = np.arange(1, 10**4 + 1, dtype=np.float64)
    bound = bounds.min_detectable_signal(np.array(_ALPHA_GRID)[:, None], n_arr)
    worst = 0.0
    certified = 0
    for alpha, closed in zip(_ALPHA_GRID, bound):
        root = _newton_min_signal(n_arr, alpha)
        bracketed = ~_detects(root - _CERTIFY_H, n_arr, alpha)
        bracketed &= _detects(root + _CERTIFY_H, n_arr, alpha)
        certified += int(np.count_nonzero(bracketed))
        worst = max(worst, float(np.max(np.abs(closed - root))))
    return certified == bound.size and worst <= tol, (
        f"max |closed - newton| = {worst:.3e}, "
        f"{certified}/{bound.size} roots certified at +-{_CERTIFY_H:.0e}")


def check_bias_structure(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Frequency estimate unbiased, phase estimate biased, MC agrees."""
    exact = estimation.exact_bias_report(math.pi / 4.0, 10)
    ok_p = abs(exact.bias_p) < tol
    ok_phi = abs(exact.bias_phi) > 10.0 * tol
    sym = estimation.exact_bias_report(math.pi / 2.0, 16)
    ok_sym = abs(sym.bias_phi) < tol
    trials = 10**5
    mc = estimation.monte_carlo_report(math.pi / 4.0, 10, trials, seed)
    se = math.sqrt(mc.var_phi / trials)
    ok_mc = abs(mc.bias_phi - exact.bias_phi) <= 5.0 * se
    return ok_p and ok_phi and ok_sym and ok_mc, (
        f"bias_p={exact.bias_p:.2e}, bias_phi={exact.bias_phi:.9f}, "
        f"mc-exact={mc.bias_phi - exact.bias_phi:.2e} (5se={5 * se:.2e}), "
        f"sym={sym.bias_phi:.2e}")


def check_resource_scaling(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Fitted log-log slopes match -1/2, -1/2, -1 and -k."""
    grid = (2, 4, 8, 16, 32)
    expect = {
        resources.StrategyKind.ENSEMBLE: -0.5,
        resources.StrategyKind.PRODUCT: -0.5,
        resources.StrategyKind.GHZ: -1.0,
    }
    pieces = []
    passed = True
    for strat, target in expect.items():
        rep = resources.fit_scaling(strat, grid, 100, 1.0)
        passed = passed and abs(rep.fitted_exponent - target) <= tol
        pieces.append(f"{strat.value}={rep.fitted_exponent:.4f}")
    rep = resources.fit_scaling(
        resources.StrategyKind.NONLINEAR, (2, 4, 8, 16), 100, 1.0, nonlinear_exponent=2.0
    )
    passed = passed and abs(rep.fitted_exponent - (-2.0)) <= 2.0 * tol
    pieces.append(f"nonlinear(k=2)={rep.fitted_exponent:.4f}")
    return passed, "slopes " + ", ".join(pieces)


def check_noise_amplification(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Entanglement raises noise at fixed phase while lowering the floor."""
    phi, n, ms = 0.01, 100, (1, 2, 4, 8)
    ghz = resources.StrategyKind.GHZ
    noises = resources.strategy_signal_noise(ghz, ms, n, phi)[1].tolist()
    floors = resources._min_signals(ghz, ms, n, 1.0).tolist()
    up = all(b > a + tol for a, b in zip(noises, noises[1:]))
    down = all(b < a - tol for a, b in zip(floors, floors[1:]))
    return up and down, ("noise " + "->".join(f"{x:.2e}" for x in noises)
                         + ", floor " + "->".join(f"{x:.4f}" for x in floors))


def check_fisher_consistency(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Measured information saturates the quantum value on the equator only."""
    # point i takes uniforms 2i (phi) and 2i + 1 (phi_b) of the substream
    # at seed + 1
    u = sampling._substream_uniforms((seed + 1) % 2**64, 200).reshape(100, 2)
    phis = 0.05 + (math.pi - 0.1) * u[:, 0]
    phi_bs = 2.0 * math.pi * u[:, 1]
    gap = np.abs(phis - phi_bs) % math.pi
    phi_bs = np.where(np.minimum(gap, math.pi - gap) < 1e-3, phi_bs + 0.01, phi_bs)
    circle = estimation.classical_fisher_values(math.pi / 2.0, phi_bs, phis)
    worst_circle = float(np.max(np.abs(circle - 1.0)))
    kind = resources.StrategyKind
    fq = float(resources.quantum_fisher_information(kind.ENSEMBLE, (1,))[0])
    mesh = estimation.classical_fisher_values(
        np.linspace(0.0, math.pi, 100)[:, None],
        np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False),
        0.7,
    )
    worst_over = max(0.0, float(np.max(mesh - fq)))
    # F is even, so -2 F''(0) ~ -2 (F(h) - 2 + F(-h)) / h**2 = 4 (1 - F(h)) / h**2
    h = 1e-4
    worst_curv = 0.0
    for strat, m, k in ((kind.ENSEMBLE, 1, 1.0), (kind.PRODUCT, 5, 1.0),
                        (kind.GHZ, 5, 1.0), (kind.NONLINEAR, 3, 2.0)):
        sig = float(resources.strategy_signal_noise(strat, (m,), 1, h, k)[0][0])
        fq_k = float(resources.quantum_fisher_information(strat, (m,), k)[0])
        worst_curv = max(worst_curv, abs(4.0 * sig / (h * h) - fq_k) / fq_k)
    passed = worst_circle <= 1e-10 and worst_over <= 1e-10 and worst_curv <= tol
    return passed, (f"|Fc-1| circle max {worst_circle:.2e}, overshoot {worst_over:.2e}, "
                    f"curvature rel err {worst_curv:.2e}")


def check_reproducibility(tol: float, seed: int = 0) -> tuple[bool, str]:
    """Identical seeds reproduce identical sampled counts, bit for bit."""
    # The corrupt hook (negative tol) reruns with a different seed, which
    # must be caught as a mismatch; it wraps, as the seed is 64 bits.
    seed2 = seed if tol >= 0.0 else (seed + 1) % 2**64
    a = sampling.draw_count_matrix(0.7, 50, seed, 2000)
    b = sampling.draw_count_matrix(0.7, 50, seed2, 2000)
    c = sampling.draw_count_matrix(0.7, 50, seed, 500)
    same = np.array_equal(a, b)
    prefix = np.array_equal(a[:500], c)
    return same and prefix, (f"rerun identical: {same}, "
                             f"prefix stable under trial count: {prefix}")


# (name, function, tolerance, corrupted tolerance).  The corrupted value
# is chosen per check so that it forces a failure: slack-style
# comparisons need an impossibly large tolerance, closeness checks an
# impossibly negative one.
_CHECKS = (
    ("factor2_correction", check_factor2, 0.0, -1.0),
    ("inherent_optimum", check_inherent_optimum, 1e-3, -1.0),
    ("accuracy_decreases", check_accuracy_decreases, 0.0, 1e9),
    ("optimal_basis", check_optimal_basis, 1e-4, -1.0),
    ("povm_reduction", check_povm_reduction, 1e-12, -1.0),
    ("bound_vs_oracle", check_bound_vs_oracle, 1e-9, -1.0),
    ("bias_structure", check_bias_structure, 1e-12, -1.0),
    ("resource_scaling", check_resource_scaling, 0.05, -1.0),
    ("noise_amplification", check_noise_amplification, 0.0, 1e9),
    ("fisher_consistency", check_fisher_consistency, 1e-4, -1.0),
    ("reproducibility", check_reproducibility, 0.0, -1.0),
)

CHECK_NAMES = tuple(name for name, _, _, _ in _CHECKS)


def run_all(seed: int = 0, corrupt: str | None = None):
    """Run every check; corrupt (if given) sabotages that check's tolerance.

    The checks of _CHECKS, read when called, run in turn in _CHECKS order
    on the calling thread.  The first check that raises propagates, and
    the checks after it do not run.
    """
    if corrupt is not None and corrupt not in CHECK_NAMES:
        raise ValueError(f"unknown check name: {corrupt}")
    results = []
    for name, fn, tol, bad_tol in _CHECKS:
        passed, detail = fn(bad_tol if corrupt == name else tol, seed)
        results.append(CheckResult(name, bool(passed), detail))
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<22} {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append(f"OK: {len(results)} checks passed")
    return "\n".join(lines) + "\n"
