"""Independent reference checks for the output of every metrotrade command.

Outputs are recomputed from closed forms, never compared with stored
bytes, so a change that moves only last digits still passes.  Float
tolerances are forward-error bounds of the formula the program evaluates:
`C_ULP` roundings times the condition number of that formula at the row's
inputs.  Monte Carlo rows are held to `Z_MC` standard errors of the exact
moments of the estimator.

`check(argv, data)` returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import math
import sys

import numpy as np

EPS = sys.float_info.epsilon
C_ULP = 16.0
Z_MC = 6.0
# Fit tolerance of metrotrade's own resource_scaling self-check (slopes
# within 0.05, nonlinear within twice that): the documented accuracy of
# a least-squares slope over a finite M grid.
SLOPE_TOL = 0.05
VERIFY_CHECKS = (
    "factor2_correction", "inherent_optimum", "accuracy_decreases",
    "optimal_basis", "povm_reduction", "bound_vs_oracle", "bias_structure",
    "resource_scaling", "noise_amplification", "fisher_consistency",
    "reproducibility",
)


class Mismatch(Exception):
    pass


def _flags(argv):
    return {argv[i][2:]: argv[i + 1] for i in range(0, len(argv) - 1, 2)}


def _table(text, header):
    if "\r" in text or not text.endswith("\n"):
        raise Mismatch("CSV must use bare LF line endings and end with one")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(header):
        raise Mismatch(f"header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise Mismatch("ragged CSV row")
    return rows


def _floats(rows, start=0):
    cols = [c for r in rows for c in r[start:]]
    return np.array(cols, dtype=np.float64).reshape(len(rows), -1)


def _near(name, got, ref, tol):
    """Elementwise |got - ref| <= tol, with NaN only where ref is NaN."""
    got, ref, tol = np.broadcast_arrays(np.asarray(got, float), np.asarray(ref, float),
                                        np.asarray(tol, float))
    bad = np.isnan(got) != np.isnan(ref)
    with np.errstate(invalid="ignore"):
        bad |= ~np.isnan(ref) & ~(np.abs(got - ref) <= tol)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise Mismatch(f"{name}: {bad.sum()} value(s) off, first {got.ravel()[i]!r} "
                       f"vs reference {ref.ravel()[i]!r} (tol {tol.ravel()[i]:.3g})")


def _acos_near_one_tol(theta):
    """Relative error bound of acos(x) where x carries a few roundings."""
    with np.errstate(divide="ignore"):
        return C_ULP * EPS * (1.0 + 1.0 / (theta * np.sin(theta)))


def check_tradeoff(f, text):
    ns = [int(v) for v in f.get("n", "10,100,1000,10000").split(",")]
    alphas = [float(v) for v in f.get("alpha", "0.25,0.5,1,2,4").split(",")]
    rows = _table(text, ["n", "alpha", "exact_bound", "asymptotic_bound", "qcrb",
                         "correction_ratio"])
    if [(int(r[0]), float(r[1])) for r in rows] != [(n, a) for n in ns for a in alphas]:
        raise Mismatch("tradeoff: (n, alpha) grid rows differ")
    n = np.array([int(r[0]) for r in rows], dtype=float)
    a = np.array([float(r[1]) for r in rows])
    vals = _floats(rows, 2)
    exact = 2.0 * np.arctan(a / np.sqrt(n))
    _near("exact_bound", vals[:, 0], exact, exact * _acos_near_one_tol(exact))
    _near("asymptotic_bound", vals[:, 1], 2.0 * a / np.sqrt(n), C_ULP * EPS * vals[:, 1])
    _near("qcrb", vals[:, 2], 1.0 / np.sqrt(n), C_ULP * EPS * vals[:, 2])
    _near("correction_ratio", vals[:, 3], vals[:, 0] / vals[:, 2], C_ULP * EPS * vals[:, 3])


def _inherent_grid(points):
    step = math.pi / (points + 1)
    grid = [i * step for i in range(1, points + 1)]
    if math.pi / 2.0 not in grid:
        grid = sorted(grid + [math.pi / 2.0])
    return np.array(grid)


def check_inherent(f, text):
    n = int(f.get("n", "100"))
    rows = _table(text, ["phi0", "resolution", "accuracy"])
    vals = _floats(rows)
    grid = _inherent_grid(int(f.get("grid", "999")))
    if len(rows) != len(grid):
        raise Mismatch(f"inherent: {len(rows)} rows, expected {len(grid)}")
    phi0 = vals[:, 0]
    _near("phi0", phi0, grid, C_ULP * EPS * grid)
    cos0 = np.array([math.cos(p) for p in phi0.tolist()])
    arg = 2.0 / n + cos0
    unreachable = arg > 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        theta2 = np.arccos(arg)
        delta = phi0 - theta2
        # Both sides subtract two nearby angles: the error of theta2 (from
        # the roundings in arg, amplified by 1/sin(theta2)) over delta.
        d_theta2 = C_ULP * EPS * (np.abs(cos0) + 2.0 / n) / np.sin(theta2) + C_ULP * EPS * theta2
        rel = (d_theta2 + C_ULP * EPS * phi0) / delta + C_ULP * EPS
    resolution = np.where(unreachable, np.nan, 1.0 / delta)
    accuracy = np.where(unreachable, np.nan, delta * math.sqrt(n) / 2.0)
    _near("resolution", vals[:, 1], resolution, rel * np.abs(resolution))
    _near("accuracy", vals[:, 2], accuracy, rel * np.abs(accuracy))


def check_basis_sweep(f, text):
    n = int(f.get("n", "1"))
    phi = float(f.get("phi", repr(math.pi / 10.0)))
    points = int(f.get("grid", "400"))
    rows = _table(text, ["theta", "phi_b", "snr"])
    summary = rows.pop()
    if len(rows) != points * points or summary[0] != "summary":
        raise Mismatch("basis-sweep: expected grid x grid rows and a summary row")
    vals = _floats(rows)
    idx = np.arange(points, dtype=np.float64)
    thetas = np.repeat(idx * math.pi / (points - 1), points)
    phibs = np.tile(idx * 2.0 * math.pi / points, points)
    _near("theta", vals[:, 0], thetas, C_ULP * EPS * thetas)
    _near("phi_b", vals[:, 1], phibs, C_ULP * EPS * phibs)
    theta, phib = vals[:, 0], vals[:, 1]
    st, ct, root_n = np.sin(theta), np.cos(theta), math.sqrt(n)
    # cos(phi_b) - cos(phi - phi_b) = -2 sin(phi/2) sin(phi_b - phi/2),
    # which has no cancellation where the two cosines nearly agree.
    num = 2.0 * root_n * np.abs(st * math.sin(phi / 2.0) * np.sin(phib - phi / 2.0))
    den = np.sqrt((st * np.sin(phib)) ** 2 + ct * ct) + np.sqrt(
        (st * np.sin(phi - phib)) ** 2 + ct * ct)
    snr = num / den
    cancel = root_n * np.abs(st) * (np.abs(np.cos(phib)) + np.abs(np.cos(phi - phib))
                                    + abs(phi) + np.abs(phib))
    _near("snr", vals[:, 2], snr, C_ULP * EPS * (cancel / den + snr))
    grid_max, analytic = float(summary[1]), float(summary[2])
    ref = root_n * abs(math.tan(phi / 2.0))
    _near("summary analytic", analytic, ref, C_ULP * EPS * ref)
    if grid_max != float(vals[:, 2].max()) or grid_max > ref * (1.0 + C_ULP * EPS):
        raise Mismatch(f"summary grid max {grid_max!r} is not the column max "
                       f"or exceeds the analytic optimum {ref!r}")


def _product_floor(big_n, a2, m):
    return 2.0 * math.atan(math.sqrt(math.expm1(math.log1p(a2 / big_n) / m)))


def check_resources(f, text):
    ms = [int(v) for v in f.get("m-grid", "2,4,8,16,32").split(",")]
    big_n = int(f.get("big-n", "100"))
    alpha = float(f.get("alpha", "1"))
    k = float(f.get("k", "2"))
    a2 = alpha * alpha
    rows = _table(text, ["strategy", "M", "N", "min_signal", "fitted_exponent"])
    # (name, stable closed form, angle fed to acos, target slope, slope tol)
    strategies = (
        ("ensemble", lambda m: 2.0 * math.atan(alpha / math.sqrt(m * big_n)),
         lambda m, x: x, -0.5, SLOPE_TOL),
        ("product", lambda m: _product_floor(big_n, a2, m), lambda m, x: x / 2.0,
         -0.5, SLOPE_TOL),
        ("ghz", lambda m: 2.0 / m * math.atan(alpha / math.sqrt(big_n)),
         lambda m, x: m * x / 2.0, -1.0, SLOPE_TOL),
        ("nonlinear", lambda m: 2.0 / m**k * math.atan(alpha / math.sqrt(big_n)),
         lambda m, x: m**k * x / 2.0, -k, 2.0 * SLOPE_TOL),
    )
    expect = [(s[0], m, big_n) for s in strategies for m in ms]
    if [(r[0], int(r[1]), int(r[2])) for r in rows] != expect:
        raise Mismatch("resources: strategy/M/N rows differ")
    for i, (name, floor, angle, slope, slope_tol) in enumerate(strategies):
        block = rows[i * len(ms):(i + 1) * len(ms)]
        got = np.array([float(r[3]) for r in block])
        ref = np.array([floor(m) for m in ms])
        theta = np.array([angle(m, x) for m, x in zip(ms, ref)])
        _near(f"{name} min_signal", got, ref, ref * _acos_near_one_tol(theta))
        fitted = {float(r[4]) for r in block}
        if len(fitted) != 1 or abs(fitted.pop() - slope) > slope_tol:
            raise Mismatch(f"{name}: fitted exponent not within {slope_tol} of {slope}")


def _fsum(values):
    return math.fsum(values.tolist())


def _moments(phi, n):
    """Exact moments of p_hat and phi_hat = acos(2 k/n - 1) over k ~ Bin(n, p).

    Up to n = 64 the pmf is enumerated with math.comb and summed with fsum.
    Beyond, it is evaluated with math.lgamma over mean +- 15 sigma (the mass
    outside is below 1e-45) and renormalised.
    """
    p = (1.0 + math.cos(phi)) / 2.0
    q = 1.0 - p
    if n <= 64:
        ks = range(n + 1)
        w = np.array([math.comb(n, k) * p**k * q ** (n - k) for k in ks])
    else:
        sigma = math.sqrt(n * p * q)
        ks = range(max(0, int(n * p - 15.0 * sigma)), min(n, int(n * p + 15.0 * sigma) + 1) + 1)
        k = np.array(ks, dtype=np.float64)
        logw = (math.lgamma(n + 1.0)
                - np.array([math.lgamma(j + 1.0) + math.lgamma(n - j + 1.0) for j in ks])
                + k * math.log(p) + (n - k) * math.log1p(-p))
        w = np.exp(logw - logw.max())
        w /= _fsum(w)
    f = np.array([math.acos(2.0 * (k / n) - 1.0) for k in ks])
    mean_p = _fsum(w * (np.array(ks) / n))
    mean = _fsum(w * f)
    var = _fsum(w * (f - mean) ** 2)
    mse = _fsum(w * (f - phi) ** 2)
    m4c = _fsum(w * (f - mean) ** 4)
    m4 = _fsum(w * (f - phi) ** 4)
    return {"p": p, "var_p": p * q / n, "mean_p": mean_p, "mean": mean,
            "var": var, "mse": mse, "m4c": m4c, "m4": m4}


def check_bias_mc(f, text):
    n = int(f.get("n", "10"))
    phi = float(f.get("phi", repr(math.pi / 4.0)))
    trials = int(f.get("trials", "100000"))
    rows = _table(text, ["mode", "mean_p", "bias_p", "mean_phi", "bias_phi", "var_phi",
                         "mse_phi"])
    modes = (["ExactEnumeration"] if n <= 64 else []) + ["MonteCarlo"]
    if [r[0] for r in rows] != modes:
        raise Mismatch(f"bias-mc: modes {[r[0] for r in rows]}, expected {modes}")
    mo = _moments(phi, n)
    vals = _floats(rows, 1)
    for row in vals:
        mean_p, bias_p, mean_phi, bias_phi, var_phi, mse_phi = row
        _near("bias_p = mean_p - p", bias_p, mean_p - mo["p"], C_ULP * EPS)
        _near("bias_phi = mean_phi - phi", bias_phi, mean_phi - phi, C_ULP * EPS * math.pi)
        _near("mse = var + bias^2", mse_phi, var_phi + bias_phi**2, 1e-10)
    if n <= 64:
        got = vals[0]
        ref = [mo["mean_p"], mo["mean_p"] - mo["p"], mo["mean"], mo["mean"] - phi,
               mo["var"], mo["mse"]]
        scale = np.array([1.0, 1.0, math.pi, math.pi, math.pi**2, math.pi**2])
        _near("exact row", got, ref, C_ULP * EPS * scale)
    got = vals[-1]
    se = {
        "mean_p": math.sqrt(mo["var_p"] / trials),
        "mean_phi": math.sqrt(mo["var"] / trials),
        "var_phi": math.sqrt(max(mo["m4c"] - mo["var"] ** 2, 0.0) / trials),
        "mse_phi": math.sqrt(max(mo["m4"] - mo["mse"] ** 2, 0.0) / trials),
    }
    for name, value, exact in (("mean_p", got[0], mo["p"]), ("mean_phi", got[2], mo["mean"]),
                               ("var_phi", got[4], mo["var"]), ("mse_phi", got[5], mo["mse"])):
        if not abs(value - exact) <= Z_MC * se[name] + C_ULP * EPS * abs(exact):
            raise Mismatch(f"Monte Carlo {name} {value!r} is {abs(value - exact) / se[name]:.1f} "
                           f"standard errors from the exact {exact!r}")


def check_verify(f, text):
    lines = text.split("\n")
    if lines.pop() != "" or lines[-1] != f"OK: {len(VERIFY_CHECKS)} checks passed":
        raise Mismatch(f"verify summary line {lines[-1]!r}")
    got = [tuple(line.split()[:2]) for line in lines[:-1]]
    if got != [("PASS", name) for name in VERIFY_CHECKS]:
        raise Mismatch("verify: not every built-in check PASSed")


_CHECKERS = {
    "tradeoff": check_tradeoff,
    "inherent": check_inherent,
    "basis-sweep": check_basis_sweep,
    "resources": check_resources,
    "bias-mc": check_bias_mc,
    "verify": check_verify,
}


def check(argv, data: bytes):
    """None if `data`, the output of `metrotrade <argv>`, is right, else why not."""
    try:
        _CHECKERS[argv[0]](_flags(argv[1:]), data.decode("ascii"))
    except Mismatch as exc:
        return f"{argv[0]}: {exc}"
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return f"{argv[0]}: unreadable output ({exc!r})"
    return None
