"""Independent oracles used by the test suite.

Everything here is written against first principles (statevectors,
bisection on the defining inequality, high-precision mpmath sums)
rather than the package's own closed forms, so a shared bug cannot
cancel out.
"""

import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np


def bisect_min_signal(n: int, alpha: float, iters: int = 200) -> float:
    """Smallest phase x where a perfect reference beats projection noise.

    Solves  (1 - F(x)) >= alpha * sqrt(F(x) (1 - F(x)) / n)  for the
    single-qubit overlap F(x) = (1 + cos x) / 2 by bisection, with no
    reference to the arccos closed form.
    """

    def margin(x):
        f = 0.5 * (1.0 + math.cos(x))
        return (1.0 - f) - alpha * math.sqrt(max(f * (1.0 - f), 0.0) / n)

    lo, hi = 0.0, math.pi
    assert margin(hi) > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def bisect_inherent_shift(phi0: float, n: int, iters: int = 200):
    """Smallest downward shift d with p(phi0 - d) - p(phi0) >= 1/n.

    p(x) = (1 + cos x) / 2 increases as x decreases on (0, pi), so the
    margin is monotone in d and bisection applies.  Returns None when
    even d = phi0 cannot produce a 1/n probability step.
    """

    def margin(d):
        return 0.5 * (math.cos(phi0 - d) - math.cos(phi0)) - 1.0 / n

    if margin(phi0) < 0.0:
        return None
    lo, hi = 0.0, phi0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def inherent_step_mp(phi0: float, n: int, prec: int = 250):
    """phi0 - theta2 at `prec` bits, phi0 taken exactly, as a float, where
    sin**2(theta2 / 2) = sin**2(phi0 / 2) - 1/n: the step that raises the
    outcome probability cos**2(phi0 / 2) by 1/n.  None where that is out of
    reach, sin**2(phi0 / 2) < 1/n."""
    with mpmath.workprec(prec):
        x = mpmath.mpf(phi0)
        q2 = mpmath.sin(x / 2) ** 2 - mpmath.mpf(1) / n
        if q2 < 0:
            return None
        return float(x - 2 * mpmath.asin(mpmath.sqrt(q2)))


def phase_estimate_moments_mp(phi: float, n: int, prec: int = 250):
    """Moments of phi_hat = 2 atan2(sqrt(n - k), sqrt(k)) over
    k ~ B(n, cos**2(phi / 2)) at `prec` bits, phi taken exactly.

    Every count is summed for n <= 64.  Beyond, the counts k = n, n - 1, ...
    are summed from the top by the pmf ratio until a term past the mean
    falls below 2**-prec of the sum, so this suits only n sin**2(phi / 2)
    of order 1.  Returns the moments as floats (mean_p, bias_phi, var_phi,
    mse_phi, and the fourth moments m4c about the mean and m4 about phi),
    the counts summed as an int array, and, as float arrays, each count's
    weight and phi_hat.
    """
    with mpmath.workprec(prec):
        x = mpmath.mpf(phi)
        p, q = mpmath.cos(x / 2) ** 2, mpmath.sin(x / 2) ** 2
        if n <= 64:
            ks = list(range(n + 1))
            ws = [mpmath.binomial(n, k) * p**k * q ** (n - k) for k in ks]
        else:
            ks, ws, term, eps = [], [], p**n, mpmath.mpf(2) ** -prec
            for j in range(n + 1):
                ks.append(n - j)
                ws.append(term)
                if j > n * q and term < eps * mpmath.fsum(ws):
                    break
                term = term * (n - j) * q / ((j + 1) * p)
        hats = [2 * mpmath.atan2(mpmath.sqrt(n - k), mpmath.sqrt(k)) for k in ks]
        total = mpmath.fsum(ws)
        ws = [w / total for w in ws]

        def mean(values):
            return mpmath.fsum(w * v for w, v in zip(ws, values))

        mean_phi = mean(hats)
        out = {
            "mean_p": mean([mpmath.mpf(k) / n for k in ks]),
            "bias_phi": mean_phi - x,
            "var_phi": mean([(h - mean_phi) ** 2 for h in hats]),
            "mse_phi": mean([(h - x) ** 2 for h in hats]),
            "m4c": mean([(h - mean_phi) ** 4 for h in hats]),
            "m4": mean([(h - x) ** 4 for h in hats]),
        }
        out = {key: float(value) for key, value in out.items()}
        out["counts"] = np.array(ks)
        out["weights"] = np.array([float(w) for w in ws])
        out["phi_hats"] = np.array([float(h) for h in hats])
    return out


def bisection_min_signal_100(n_arr: np.ndarray, alpha: float) -> np.ndarray:
    """Smallest phi where 1 - p >= alpha * sqrt(p (1 - p) / n), elementwise
    over n_arr, by 100 bisection steps: the reference for verify's Newton
    oracle."""
    lo = np.full(n_arr.shape, 1e-12)
    hi = np.full(n_arr.shape, math.pi - 1e-12)
    for _ in range(100):
        mid = (lo + hi) / 2.0
        p = (1.0 + np.cos(mid)) / 2.0
        sep = 1.0 - p
        noise = np.sqrt(p * (1.0 - p) / n_arr)
        ok = sep >= alpha * noise
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def strategy_floor_mp(strategy: str, m: int, n: int, alpha: float, k: float,
                      prec: int = 300) -> float:
    """Phase where the strategy's fidelity falls to n_eff / (n_eff + alpha**2),
    from the naive inverse forms at `prec` bits: acos(2 F0 - 1) over the
    fringe frequency, or 2 acos(F0**(1/(2m))) for the product probe.
    strategy is the StrategyKind value; n_eff is m n for the ensemble."""
    with mpmath.workprec(prec):
        n_eff = m * n if strategy == "ensemble" else n
        f0 = mpmath.mpf(n_eff) / (n_eff + mpmath.mpf(alpha) ** 2)
        if strategy == "product":
            return float(2 * mpmath.acos(f0 ** (mpmath.mpf(1) / (2 * m))))
        freq = {"ensemble": 1, "ghz": m, "nonlinear": mpmath.mpf(m) ** k}[strategy]
        return float(mpmath.acos(2 * f0 - 1) / freq)


def strategy_signal_mp(strategy: str, m: int, phi: float, k: float,
                       prec: int = 300) -> float:
    """1 - F(phi) of the strategy's probe at `prec` bits, phi taken exactly."""
    with mpmath.workprec(prec):
        d = mpmath.mpf(phi)
        if strategy == "product":
            return float(1 - mpmath.cos(d / 2) ** (2 * m))
        freq = {"ensemble": 1, "ghz": m, "nonlinear": mpmath.mpf(m) ** k}[strategy]
        return float(1 - (1 + mpmath.cos(freq * d)) / 2)


def _qubit(phi: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)


def product_fidelity_bruteforce(phi_a: float, phi_b: float, m: int) -> float:
    """|<psi_a|psi_b>|^2 for an m-fold tensor product of equatorial qubits."""
    va = np.array([1.0])
    vb = np.array([1.0])
    for _ in range(m):
        va = np.kron(va, _qubit(phi_a))
        vb = np.kron(vb, _qubit(phi_b))
    return float(abs(np.vdot(va, vb)) ** 2)


def ghz_fidelity_bruteforce(phi_a: float, phi_b: float, m: int) -> float:
    """|<psi_a|psi_b>|^2 for m-qubit GHZ states with phase m*phi on |1...1>."""
    dim = 2**m
    va = np.zeros(dim, dtype=complex)
    vb = np.zeros(dim, dtype=complex)
    va[0] = vb[0] = 1.0
    va[-1] = np.exp(1j * m * phi_a)
    vb[-1] = np.exp(1j * m * phi_b)
    va /= math.sqrt(2.0)
    vb /= math.sqrt(2.0)
    return float(abs(np.vdot(va, vb)) ** 2)


def povm_statistic_scalar(p, p_final, n) -> float:
    """Separation statistic sqrt(n) sqrt(sum (p'_i - p_i)**2 / p'_i) one
    cell at a time, in outcome order: the reference for
    bounds.povm_statistics.  A cell with p' = 0 is skipped if p = 0 too
    and makes the statistic infinite otherwise.

    Squares are products: CPython's float ** 2 goes through the C
    library's pow, which is not correctly rounded everywhere (glibc 2.36
    misses x * x by one ulp for about 7 in 10**4 arguments).
    """
    total = 0.0
    for pi, pfi in zip(p, p_final):
        if pfi == 0.0:
            if pi == 0.0:
                continue
            return math.inf
        d = pfi - pi
        total += d * d / pfi
    return math.sqrt(n) * math.sqrt(total)


_M64 = 2**64 - 1


def _mix64_ref(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def substream_uniform_ref(seed: int, trial: int) -> float:
    """The (seed, trial) uniform of sampling._substream_uniforms, in plain
    integers masked to 64 bits."""
    golden = 0x9E3779B97F4A7C15
    h = _mix64_ref((seed + golden * (trial + 1)) & _M64)
    h = _mix64_ref((h + golden) & _M64)
    return ((h >> 11) + 0.5) * 2.0**-53


def _unmix64_ref(z):
    """The inverse of _mix64_ref: each xorshift and odd multiply undone."""

    def unshift(z, shift):
        x = z
        for _ in range(64 // shift):
            x = z ^ (x >> shift)
        return x

    z = (unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64)) & _M64
    z = (unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _M64
    return unshift(z, 30)


def seed_of_draw_word(word: int, trial: int = 0) -> int:
    """The seed whose hash word at trial is word: the uniform of that
    (seed, trial) is ((word >> 11) + 0.5) * 2**-53."""
    golden = 0x9E3779B97F4A7C15
    h = (_unmix64_ref(word) - golden) & _M64
    return (_unmix64_ref(h) - golden * (trial + 1)) & _M64


def classical_fisher_scalar(theta: float, phi_b: float, phi: float) -> float:
    """Fisher information of the two-outcome measurement along
    (theta, phi_b) at phase phi, with math-module scalars: the reference
    for estimation.classical_fisher_values.  phi_b is reduced modulo
    2 pi as MeasurementBasis does; where sin(theta) cos(phi - phi_b) is
    exactly +-1 the on-circle limit 1 is returned."""
    phi_b = phi_b % (2.0 * math.pi)
    st = math.sin(theta)
    ct = math.cos(theta)
    delta = phi - phi_b
    s = st * math.cos(delta)
    if abs(s) == 1.0:
        return 1.0
    x = st * math.sin(delta)
    num = x * x
    return num / (num + ct * ct)


def basis_probabilities(theta: float, phi_b: float, phi: float):
    """Outcome probabilities (initial, final) of the measurement along
    (theta, phi_b) before and after a phase shift phi."""
    st = math.sin(theta)
    return (1.0 + st * math.cos(phi_b)) / 2.0, (1.0 + st * math.cos(phi - phi_b)) / 2.0


def basis_snr_mp(theta: float, phi_b: float, phi: float, n: int, prec: int = 200):
    """Separation over summed projection noise of n shots along
    (theta, phi_b), straight from the outcome probabilities, as an mpmath
    float at `prec` bits with every angle taken exactly."""
    with mpmath.workprec(prec):
        st = mpmath.sin(mpmath.mpf(theta))
        p0 = (1 + st * mpmath.cos(mpmath.mpf(phi_b))) / 2
        p1 = (1 + st * mpmath.cos(mpmath.mpf(phi) - mpmath.mpf(phi_b))) / 2
        noise = mpmath.sqrt(p0 * (1 - p0) / n) + mpmath.sqrt(p1 * (1 - p1) / n)
        return abs(p1 - p0) / noise


def distinguishable_binary(p0: float, p1: float, n: int, alpha: float) -> bool:
    """Whether outcome probabilities p0 and p1, each estimated from n
    shots, are alpha-sigma separable, straight from the defining
    criterion |p1 - p0| >= alpha * (dp1 + dp0), with the projection
    noise dp = sqrt(p (1 - p) / n) of each.

    Identical deterministic estimates (zero separation, zero noise) are
    declared indistinguishable rather than letting 0 >= 0 slip through.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be positive and finite")
    separation = abs(p1 - p0)
    noise = math.sqrt(p0 * (1.0 - p0) / n) + math.sqrt(p1 * (1.0 - p1) / n)
    if separation == 0.0 and noise == 0.0:
        return False
    return separation >= alpha * noise


def binomial_mode(n: int, p: float, q: float) -> int:
    """The mode floor((n + 1) P) of k ~ B(n, P) for the law with odds
    p : q, P = p / (p + q), in exact rationals."""
    return math.floor((n + 1) * Fraction(p) / (Fraction(p) + Fraction(q)))


def phase_estimate_bias_ref(phi: float, p: float, q: float, n: int):
    """(bias_phi, var_phi) of phi_hat = 2 atan2(sqrt(n - k), sqrt(k)) over
    k ~ B(n, P), the law with odds p : q, in plain floats: the pmf relative
    to the exact mode (binomial_mode) by the ratio pmf[k+1]/pmf[k] =
    (n - k) p / ((k + 1) q), summed out from the mode on each side until a
    term falls below 2**-64 of the mode's or the count leaves 0..n.  The
    cost grows with the window, so it suits n p q up to ~10**5."""
    if p == 0.0 or q == 0.0:
        ks, ws = [0 if p == 0.0 else n], [1.0]
    else:
        mode = binomial_mode(n, p, q)
        ks, ws = [mode], [1.0]
        for step in (1, -1):
            k, w = mode, 1.0
            while 0 <= k + step <= n and w >= 2.0**-64:
                w *= (n - k) * p / ((k + 1) * q) if step == 1 else k * q / ((n - k + 1) * p)
                k += step
                ks.append(k)
                ws.append(w)
    hats = [2.0 * math.atan2(math.sqrt(n - k), math.sqrt(k)) for k in ks]
    total = math.fsum(ws)
    bias = math.fsum(w * (h - phi) for w, h in zip(ws, hats)) / total
    var = math.fsum(w * (h - phi - bias) ** 2 for w, h in zip(ws, hats)) / total
    return bias, var


def binomial_cdf_mp(n: int, p: float, k: int, q: float | None = None, prec: int = 160):
    """P(K <= k) for K ~ Binomial(n, p) as an mpmath float, p taken exactly.
    Given q, the law is the one with odds p : q, both taken exactly (the
    probabilities p / (p + q) and q / (p + q)); without it, q is 1 - p.

    The pmf at k comes from log-gamma at `prec` bits; the tail on the
    side of k away from the mean is summed term by term with the pmf
    ratio, whose terms shrink geometrically, until a term falls below
    2**-100 of the running sum.  Below the mean that tail is the CDF
    itself, above it the CDF is one minus the upper tail.
    """
    with mpmath.workprec(prec):
        big_p = mpmath.mpf(p)
        big_q = 1 - big_p
        if q is not None:
            norm = big_p + mpmath.mpf(q)
            big_p, big_q = big_p / norm, mpmath.mpf(q) / norm
        lg = mpmath.loggamma
        term = mpmath.exp(
            lg(n + 1) - lg(k + 1) - lg(n - k + 1)
            + k * mpmath.log(big_p) + (n - k) * mpmath.log(big_q)
        )
        eps = mpmath.mpf(2) ** -100
        total = mpmath.mpf(0)
        if k < n * p:
            j = k
            while j >= 0 and term > total * eps:
                total += term
                term = term * j * big_q / ((n - j + 1) * big_p)
                j -= 1
            return +total
        j = k
        while j < n:
            term = term * (n - j) * big_p / ((j + 1) * big_q)
            j += 1
            total += term
            if term <= total * eps:
                break
        return 1 - total


def _cell_text(cell) -> str:
    if isinstance(cell, str):
        return cell
    if isinstance(cell, int):
        return str(cell)
    return f"{cell:.17g}"


def csv_text_per_cell(header, rows) -> str:
    """Reference for cli._csv_text, formatting one cell at a time: str
    as is, int by str(), anything else f"{x:.17g}"; LF after every line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell_text(cell) for cell in row))
    return "\n".join(lines) + "\n"


def assert_same_text(actual: str, expected: str):
    """Require actual == expected, failing with a short message: the two
    lengths and the first line that differs (None past the end of a
    text).  pytest's own report on a failed == of two multi-megabyte
    strings diffs them whole, which can take minutes."""
    if actual == expected:
        return
    lines = itertools.zip_longest(actual.split("\n"), expected.split("\n"))
    number, (got, want) = next(
        (number, pair) for number, pair in enumerate(lines, 1) if pair[0] != pair[1])
    raise AssertionError(
        f"texts of {len(actual)} and {len(expected)} characters first differ "
        f"at line {number}: {got!r} != {want!r}")


def svg_coordinates(svg: str) -> list:
    """Every number in the x, y and points attributes of an SVG text."""
    return [float(tok)
            for attr in re.findall(r' (?:x|y|points)="([^"]*)"', svg)
            for tok in re.split(r"[ ,]+", attr.strip()) if tok]
