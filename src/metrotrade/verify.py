"""Self-verification harness: every module invariant at pinned parameters.

Each check recomputes one headline property from scratch and compares
it against its expected value at a fixed tolerance.  run_all returns
the results in a fixed order with deterministic formatting, so two
runs with the same seed produce byte-identical reports.

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


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_factor2(tol: float) -> CheckResult:
    """Exact minimum signal approaches twice the inverse-root benchmark."""
    n = np.array([10**2, 10**3, 10**4, 10**5], dtype=np.float64)
    # exact / qcrb, as tradeoff's correction_ratio column
    ratios = (bounds.min_detectable_signal(1.0, n) / (1.0 / np.sqrt(n))).tolist()
    at_1e4 = ratios[2]
    in_band = (1.99 - tol) <= at_1e4 <= (2.0 + tol)
    monotone = all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 2.0
    passed = in_band and monotone
    return _result(
        "factor2_correction",
        passed,
        f"ratio(1e4)={at_1e4:.12f} in [1.99,2] and monotone "
        f"{'+'.join(f'{r:.10f}' for r in ratios)}",
    )


def check_inherent_optimum(tol: float) -> CheckResult:
    """Resolution and accuracy at phi0 = pi/2, n = 100, match their values."""
    n = 100
    dphi, acc = bounds.inherent_precision(math.pi / 2.0, n)
    res = 1.0 / dphi
    ok_res = abs(res - 49.9967) <= tol * 49.9967
    ok_acc = abs(acc - 0.100007) <= tol * 0.100007
    grid = np.linspace(0.0, math.pi, 2003)[1:-1]
    best_res = float(np.nanmax(1.0 / bounds.inherent_steps(grid, n)))
    ok_peak = best_res - res <= tol * res
    passed = ok_res and ok_acc and ok_peak
    return _result(
        "inherent_optimum",
        passed,
        f"res={res:.6f} (vs 49.9967), acc={acc:.9f} (vs 0.100007), "
        f"grid max {best_res:.6f} within tolerance of pi/2 value",
    )


def check_accuracy_decreases(tol: float) -> CheckResult:
    """Inherent accuracy falls with the sample budget at phi0 = pi/2."""
    accs = []
    for n in (10, 10**2, 10**3, 10**4):
        _, acc = bounds.inherent_precision(math.pi / 2.0, n)
        accs.append(acc)
    passed = all(b < a - tol for a, b in zip(accs, accs[1:]))
    return _result(
        "accuracy_decreases",
        passed,
        "alpha(n) = " + ", ".join(f"{a:.6f}" for a in accs),
    )


def check_optimal_basis(tol: float) -> CheckResult:
    """Grid + polish recovers the analytic optimum at phi = pi/10, n = 1."""
    phi, n = math.pi / 10.0, 1
    analytic = math.tan(phi / 2.0)
    best, snr = basis_mod.find_optimal_basis(phi, n, grid=400)
    ok_snr = abs(snr - analytic) <= tol
    ok_theta = abs(best.theta - math.pi / 2.0) <= 1e-3
    ok_cap = snr <= analytic + 1e-9
    passed = ok_snr and ok_theta and ok_cap
    return _result(
        "optimal_basis",
        passed,
        f"snr={snr:.10f} vs analytic {analytic:.10f}, theta={best.theta:.8f}",
    )


def check_povm_reduction(tol: float) -> CheckResult:
    """The separation statistic equals alpha exactly at critical fidelity."""
    n = np.arange(1, 1001)[:, None]
    alpha = np.array(_ALPHA_GRID)
    a2 = alpha * alpha
    final = np.stack((bounds.critical_fidelity(alpha, n), a2 / (n + a2)), axis=-1)
    stat = bounds.povm_statistics((1.0, 0.0), final, n)
    worst = float(np.max(np.abs(stat - alpha)))
    passed = worst <= tol
    return _result(
        "povm_reduction", passed, f"max |statistic - alpha| = {worst:.3e}"
    )


def _bisection_min_signal(n_arr: np.ndarray, alpha: float) -> np.ndarray:
    """Oracle: smallest phi with |p(phi) - 1| >= alpha * noise, by bisection.

    Stops at the fixed point: once lo and hi are adjacent doubles, mid
    equals the end it would replace, and no later step changes either.
    """
    lo = np.full(n_arr.shape, 1e-12)
    hi = np.full(n_arr.shape, math.pi - 1e-12)
    for _ in range(100):
        mid = (lo + hi) / 2.0
        p = (1.0 + np.cos(mid)) / 2.0
        sep = 1.0 - p
        noise = np.sqrt(p * (1.0 - p) / n_arr)
        ok = sep >= alpha * noise
        if np.array_equal(mid, np.where(ok, hi, lo)):
            break
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def check_bound_vs_oracle(tol: float) -> CheckResult:
    """Closed-form minimum signal agrees with the bisection oracle."""
    n_arr = np.arange(1, 10**4 + 1, dtype=np.float64)
    bound = bounds.min_detectable_signal(np.array(_ALPHA_GRID)[:, None], n_arr)
    worst = 0.0
    for alpha, closed in zip(_ALPHA_GRID, bound):
        oracle = _bisection_min_signal(n_arr, alpha)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    passed = worst <= tol
    return _result(
        "bound_vs_oracle", passed, f"max |closed - bisection| = {worst:.3e}"
    )


def check_bias_structure(tol: float, seed: int = 0) -> CheckResult:
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
    passed = ok_p and ok_phi and ok_sym and ok_mc
    return _result(
        "bias_structure",
        passed,
        f"bias_p={exact.bias_p:.2e}, bias_phi={exact.bias_phi:.9f}, "
        f"mc-exact={mc.bias_phi - exact.bias_phi:.2e} (5se={5 * se:.2e}), "
        f"sym={sym.bias_phi:.2e}",
    )


def check_resource_scaling(tol: float) -> CheckResult:
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
    return _result("resource_scaling", passed, "slopes " + ", ".join(pieces))


def check_noise_amplification(tol: float) -> CheckResult:
    """Entanglement raises noise at fixed phase while lowering the floor."""
    phi, n = 0.01, 100
    noises, floors = [], []
    for m in (1, 2, 4, 8):
        cfg = resources.StrategyConfig(resources.StrategyKind.GHZ, m, n)
        _, noise = resources.strategy_signal_noise(cfg, phi)
        noises.append(noise)
        floors.append(resources.strategy_min_signal(cfg))
    up = all(b > a + tol for a, b in zip(noises, noises[1:]))
    down = all(b < a - tol for a, b in zip(floors, floors[1:]))
    passed = up and down
    return _result(
        "noise_amplification",
        passed,
        "noise " + "->".join(f"{x:.2e}" for x in noises)
        + ", floor " + "->".join(f"{x:.4f}" for x in floors),
    )


def check_fisher_consistency(tol: float, seed: int = 0) -> CheckResult:
    """Measured information saturates the quantum value on the equator only."""
    rng = np.random.default_rng(seed + 1)
    phis, phi_bs = [], []
    for _ in range(100):
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        phi_b = float(rng.uniform(0.0, 2.0 * math.pi))
        if min(abs(phi - phi_b) % math.pi, math.pi - abs(phi - phi_b) % math.pi) < 1e-3:
            phi_b += 0.01
        phis.append(phi)
        phi_bs.append(phi_b)
    circle = estimation.classical_fisher_values(
        math.pi / 2.0, np.array(phi_bs), np.array(phis)
    )
    worst_circle = float(np.max(np.abs(circle - 1.0)))
    kind = resources.StrategyKind
    fq = resources.StrategyConfig(kind.ENSEMBLE, 1, 1).quantum_fisher_information
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
        cfg = resources.StrategyConfig(strat, m, 1, nonlinear_exponent=k)
        sig, _ = resources.strategy_signal_noise(cfg, h)
        fq_k = cfg.quantum_fisher_information
        worst_curv = max(worst_curv, abs(4.0 * sig / (h * h) - fq_k) / fq_k)
    passed = worst_circle <= 1e-10 and worst_over <= 1e-10 and worst_curv <= tol
    return _result(
        "fisher_consistency",
        passed,
        f"|Fc-1| circle max {worst_circle:.2e}, overshoot {worst_over:.2e}, "
        f"curvature rel err {worst_curv:.2e}",
    )


def check_reproducibility(tol: float, seed: int = 0) -> CheckResult:
    """Identical seeds reproduce identical sampled counts, bit for bit."""
    # The corrupt hook (negative tol) reruns with a different seed, which
    # must be caught as a mismatch.
    seed2 = seed if tol >= 0.0 else seed + 1
    stats = sampling.binary_stats(0.7, 50)
    a = sampling.draw_count_matrix(stats, seed, 2000)
    b = sampling.draw_count_matrix(stats, seed2, 2000)
    c = sampling.draw_count_matrix(stats, seed, 500)
    same = np.array_equal(a, b)
    prefix = np.array_equal(a[:500], c)
    passed = same and prefix
    return _result(
        "reproducibility",
        passed,
        f"rerun identical: {same}, prefix stable under trial count: {prefix}",
    )


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
    """Run every check; corrupt (if given) sabotages that check's tolerance."""
    if corrupt is not None and corrupt not in CHECK_NAMES:
        raise ValueError(f"unknown check name: {corrupt}")
    results = []
    for name, fn, tol, bad_tol in _CHECKS:
        use_tol = bad_tol if corrupt == name else tol
        kwargs = {}
        if fn in (check_bias_structure, check_fisher_consistency, check_reproducibility):
            kwargs["seed"] = seed
        results.append(fn(use_tol, **kwargs))
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
