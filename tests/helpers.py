"""Independent oracles used by the test suite.

Everything here is written against first principles (statevectors,
bisection on the defining inequality, high-precision mpmath sums)
rather than the package's own closed forms, so a shared bug cannot
cancel out.
"""

import math

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


def inherent_step_mp(phi0: float, n: int, prec: int = 200):
    """phi0 - arccos(2/n + cos phi0) at `prec` bits, phi0 taken exactly,
    as a float; None where the arccos argument exceeds 1."""
    with mpmath.workprec(prec):
        x = mpmath.mpf(phi0)
        c = mpmath.mpf(2) / n + mpmath.cos(x)
        if c > 1:
            return None
        return float(x - mpmath.acos(c))


def bisection_min_signal_100(n_arr: np.ndarray, alpha: float) -> np.ndarray:
    """verify's bisection oracle run for a fixed 100 iterations, with no
    stop at its fixed point: the reference for the early-stopped form."""
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


def distinguishable_binary(stats0, stats1, alpha: float) -> bool:
    """Whether two binary OutcomeStats are alpha-sigma separable, straight
    from the defining criterion |p1 - p0| >= alpha * (dp1 + dp0).

    Identical deterministic estimates (zero separation, zero noise) are
    declared indistinguishable rather than letting 0 >= 0 slip through.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be positive and finite")
    if stats0.sample_budget != stats1.sample_budget:
        raise ValueError("stats must share the same sample budget")
    separation = abs(stats1.probabilities[0] - stats0.probabilities[0])
    noise = stats0.std_devs[0] + stats1.std_devs[0]
    if separation == 0.0 and noise == 0.0:
        return False
    return separation >= alpha * noise


def binomial_cdf_mp(n: int, p: float, k: int, prec: int = 160):
    """P(K <= k) for K ~ Binomial(n, p) as an mpmath float, p taken exactly.

    The pmf at k comes from log-gamma at `prec` bits; the tail on the
    side of k away from the mean is summed term by term with the pmf
    ratio, whose terms shrink geometrically, until a term falls below
    2**-100 of the running sum.  Below the mean that tail is the CDF
    itself, above it the CDF is one minus the upper tail.
    """
    with mpmath.workprec(prec):
        big_p = mpmath.mpf(p)
        big_q = 1 - big_p
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
