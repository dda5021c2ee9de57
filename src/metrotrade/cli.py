"""Command line interface: `metrotrade <command> [flags]`.

Commands
    tradeoff     detection bounds across an (n, alpha) grid
    inherent     quantization-limited resolution and accuracy vs phi0
    basis-sweep  signal-to-noise landscape over measurement directions
    resources    detection floor and fitted scaling for each strategy
    bias-mc      estimator bias report, exact enumeration vs Monte Carlo
    verify       run the built-in invariant suite

Exit codes: 0 success, 1 usage error, 2 domain/precondition error,
3 verification failure.

CSV is the primary output (full 17-digit floats, LF line endings,
deterministic row order); SVG charts of the same rows are rendered only
for --format svg or both.  --format both writes <out>.csv and <out>.svg
next to each other.  Each command takes only the flags it reads.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
# basis_snr and inherent_precision go uncalled: perfbench/tracing.py patches them here.
from .basis import basis_snr, snr_grid  # noqa: F401
from .bounds import (  # noqa: F401
    accuracy_of, inherent_precision, inherent_steps, min_detectable_signal,
)
from .estimation import exact_bias_report, monte_carlo_report
from .resources import StrategyKind, fit_scaling
from .sampling import EXACT_ENUM_LIMIT, _SEED_MAX
from .svgchart import Panel, Series, render_chart
from .verify import CHECK_NAMES, format_report, run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; we reserve 2 for
    domain errors, so syntax problems are rerouted through UsageError."""

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _float_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _one(parse_list):
    """Argument type for a flag that takes one value of parse_list's kind."""

    def parse(text: str):
        values = parse_list(text)
        if len(values) != 1:
            raise argparse.ArgumentTypeError(f"expected a single value: {text!r}")
        return values

    return parse


def _uint64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an unsigned integer: {text!r}")
    if not 0 <= value <= _SEED_MAX:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


# Rows formatted by one % in _csv_text, and the most grid rows a command
# may write (the same cap as the sampler's CDF window).
_BLOCK_ROWS = 2**16
_GRID_ROWS_MAX = 2**22


class _RowBlocks:
    """CSV data rows held as consecutive blocks, each a 2-D float array or
    a list of rows; len() counts rows, as for a list of rows."""

    def __init__(self, *blocks):
        self.blocks = blocks

    def __len__(self):
        return sum(len(block) for block in self.blocks)


def _row_template(row) -> str:
    """%-template of one CSV line: str and int cells as str() writes them,
    any other cell as a 17-significant-digit float."""
    return ",".join(
        "%s" if isinstance(cell, (str, int)) else "%.17g" for cell in row
    ) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text of header and rows, every line ending in LF.

    rows is a list of rows, a 2-D float array or a _RowBlocks of those.
    A float array is written _BLOCK_ROWS rows at a time with a single %
    on one line template repeated; a list row gets the template of its
    own cells.
    """
    parts = [",".join(header) + "\n"]
    for block in rows.blocks if isinstance(rows, _RowBlocks) else (rows,):
        if isinstance(block, np.ndarray):
            template = ",".join(["%.17g"] * block.shape[1]) + "\n"
            for start in range(0, len(block), _BLOCK_ROWS):
                chunk = block[start:start + _BLOCK_ROWS]
                parts.append(template * len(chunk) % tuple(chunk.ravel().tolist()))
        else:
            parts.extend(_row_template(row) % tuple(row) for row in block)
    return "".join(parts)


@dataclass
class RunConfig:
    """Validated flag set for one CLI invocation.  A command sets the
    fields of the flags it registers; build_parser holds every default."""

    command: str
    n_list: list | None = None
    alpha_list: list | None = None
    phi0: float | None = None
    phi: float | None = None
    m_grid: list | None = None
    big_n: int | None = None
    k: float | None = None
    trials: int | None = None
    seed: int | None = None
    grid: int | None = None
    out: str | None = None
    fmt: str | None = None
    corrupt: str | None = None

    def validate(self):
        """Check what no library call checks before output: inherent's
        interior-point preconditions, the row caps of --grid and of the
        tradeoff lists (ahead of any allocation) and --format both without --out.  Every other flag
        value is checked where the library reads it."""
        if self.command == "inherent":
            if self.n_list[0] < 3:
                raise ValueError("n must be >= 3 for a reachable interior point")
            if self.phi0 is not None and not 0.0 < self.phi0 < math.pi:
                raise ValueError("phi0 must lie in (0, pi)")
            if self.phi0 is None:  # --grid is read only without --phi0
                if self.grid < 1:
                    raise ValueError("grid must be >= 1")
                if self.grid >= _GRID_ROWS_MAX:
                    raise ValueError(f"grid must be <= {_GRID_ROWS_MAX - 1}")
        elif self.command == "basis-sweep" and self.grid**2 > _GRID_ROWS_MAX:
            raise ValueError(
                f"grid must be <= {math.isqrt(_GRID_ROWS_MAX)} points per axis"
            )
        elif (self.command == "tradeoff"
              and len(self.n_list) * len(self.alpha_list) > _GRID_ROWS_MAX):
            raise ValueError(f"n and alpha lists must give <= {_GRID_ROWS_MAX} rows")
        if self.fmt == "both" and self.out is None:
            raise UsageError("--format both requires --out")


def cmd_tradeoff(cfg: RunConfig):
    header = ["n", "alpha", "exact_bound", "asymptotic_bound", "qcrb",
              "correction_ratio"]
    # one kernel call over the n-major (n, alpha) mesh
    n_col = np.asarray(cfg.n_list, dtype=np.float64)[:, None]
    alphas = np.asarray(cfg.alpha_list, dtype=np.float64)
    exact = min_detectable_signal(alphas, n_col)
    root_n = np.sqrt(n_col)
    with np.errstate(over="ignore"):  # 2 alpha past a double reads inf
        asymptotic = 2.0 * alphas / root_n
    qcrb = 1.0 / root_n
    columns = np.broadcast_arrays(exact, asymptotic, qcrb, exact / qcrb)
    exact, asymptotic, qcrb, ratio = (column.ravel().tolist() for column in columns)
    # the n cell is the caller's int, so str() writes it exactly past 2**53
    rows = [[n, alpha, e, s, q, r] for (n, alpha), e, s, q, r in zip(
        itertools.product(cfg.n_list, cfg.alpha_list), exact, asymptotic, qcrb, ratio)]
    xs = tuple(range(len(rows)))
    series = [
        Series("exact_bound", xs, tuple(exact)),
        Series("asymptotic_bound", xs, tuple(asymptotic)),
        Series("qcrb", xs, tuple(qcrb)),
    ]
    return header, rows, [
        Panel("detection bounds across the (n, alpha) grid", "row", "radians",
              tuple(series)),
    ]


def _inherent_grid(n_points: int):
    """Interior grid over (0, pi) with pi/2 always included."""
    grid = np.arange(1, n_points + 1) * (math.pi / (n_points + 1))
    if not (grid == math.pi / 2.0).any():
        grid = np.sort(np.append(grid, math.pi / 2.0))
    return grid


def cmd_inherent(cfg: RunConfig):
    n = cfg.n_list[0]
    header = ["phi0", "resolution", "accuracy"]
    if cfg.phi0 is not None:
        phi0 = np.array([cfg.phi0])
    else:
        phi0 = _inherent_grid(cfg.grid)
    delta = inherent_steps(phi0, n)
    resolution = 1.0 / delta
    accuracy = accuracy_of(delta, n)
    rows = np.column_stack((phi0, resolution, accuracy))
    xs = tuple(phi0.tolist())
    return header, rows, [
        Panel(f"resolution vs phi0 (n={n})", "phi0", "1/dphi",
              (Series("resolution", xs, tuple(resolution.tolist())),)),
        Panel(f"accuracy vs phi0 (n={n})", "phi0", "alpha",
              (Series("accuracy", xs, tuple(accuracy.tolist())),)),
    ]


def cmd_basis_sweep(cfg: RunConfig):
    phi, n, grid = cfg.phi, cfg.n_list[0], cfg.grid
    header = ["theta", "phi_b", "snr"]
    thetas, phibs, values = snr_grid(phi, n, grid)
    block = np.column_stack(
        (np.repeat(thetas, grid), np.tile(phibs, grid), values.ravel())
    )
    analytic = math.sqrt(n) * abs(math.tan(phi / 2.0))
    rows = _RowBlocks(block, [["summary", float(values.max()), analytic]])
    # Equatorial slice for the chart: theta closest to pi/2.
    eq = values[np.argmin(np.abs(thetas - math.pi / 2.0))]
    return header, rows, [
        Panel(
            f"snr vs phi_b on the equatorial slice (phi={phi:.6g}, n={n})",
            "phi_b", "snr",
            (Series("snr(theta~pi/2)", tuple(phibs.tolist()), tuple(eq.tolist())),),
        ),
    ]


def cmd_resources(cfg: RunConfig):
    header = ["strategy", "M", "N", "min_signal", "fitted_exponent"]
    rows = []
    panels = []
    alpha = cfg.alpha_list[0]
    for strat in StrategyKind:
        rep = fit_scaling(strat, cfg.m_grid, cfg.big_n, alpha,
                          nonlinear_exponent=cfg.k)
        for m, floor in zip(rep.m_values, rep.phis):
            rows.append([strat.value, m, cfg.big_n, floor, rep.fitted_exponent])
        panels.append(Series(strat.value, rep.m_values, rep.phis))
    return header, rows, [
        Panel(f"detection floor vs M (N={cfg.big_n}, alpha={alpha:.6g})",
              "M", "min signal", tuple(panels)),
    ]


def cmd_bias_mc(cfg: RunConfig):
    phi, n = cfg.phi, cfg.n_list[0]
    header = ["mode", "mean_p", "bias_p", "mean_phi", "bias_phi", "var_phi",
              "mse_phi"]
    rows = []
    reports = []
    if n <= EXACT_ENUM_LIMIT:
        reports.append(exact_bias_report(phi, n))
    reports.append(monte_carlo_report(phi, n, cfg.trials, cfg.seed))
    for rep in reports:
        rows.append([
            rep.mode.value, rep.mean_p_hat, rep.bias_p, rep.mean_phi_hat,
            rep.bias_phi, rep.var_phi, rep.mse_phi,
        ])
    xs = tuple(range(len(rows)))
    return header, rows, [
        Panel(f"estimator bias at phi={phi:.6g}, n={n}", "row", "bias_phi",
              (Series("bias_phi", xs, tuple(r[4] for r in rows)),)),
    ]


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(cfg: RunConfig, header, rows, panels) -> int:
    """Write the rows as CSV, their chart as SVG, or both; each is
    rendered only when it is written."""
    if cfg.fmt == "both":
        stem = cfg.out
        for suffix in (".csv", ".svg"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        _write_text(stem + ".csv", _csv_text(header, rows))
        _write_text(stem + ".svg", render_chart(panels))
        return EXIT_OK
    text = _csv_text(header, rows) if cfg.fmt == "csv" else render_chart(panels)
    if cfg.out:
        _write_text(cfg.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "tradeoff": cmd_tradeoff,
    "inherent": cmd_inherent,
    "basis-sweep": cmd_basis_sweep,
    "resources": cmd_resources,
    "bias-mc": cmd_bias_mc,
}

# Flags a command can take, by the keyword build_parser's add() names
# them with: (flag, RunConfig field, type, help).  --n and --alpha take a
# comma list under n_list/alpha_list and a single value under n/alpha.
_FLAGS = {
    "n_list": ("--n", "n_list", _int_list, "comma list of sample budgets"),
    "n": ("--n", "n_list", _one(_int_list), "sample budget"),
    "alpha_list": ("--alpha", "alpha_list", _float_list,
                   "comma list of confidence levels in noise-sigma units"),
    "alpha": ("--alpha", "alpha_list", _one(_float_list),
              "confidence level in noise-sigma units"),
    "phi0": ("--phi0", "phi0", float, "working-point phase in (0, pi)"),
    "phi": ("--phi", "phi", float, "phase shift under test"),
    "m_grid": ("--m-grid", "m_grid", _int_list, "comma list of probe sizes M"),
    "big_n": ("--big-n", "big_n", int, "repetition count N"),
    "k": ("--k", "k", float, "nonlinear generator order"),
    "trials": ("--trials", "trials", int, "Monte Carlo trial count"),
    "seed": ("--seed", "seed", _uint64, "64-bit unsigned sampling seed"),
    "grid": ("--grid", "grid", int, "grid resolution"),
}


# Flags that take a value.  argparse reads a value that starts with "-"
# but is no plain number (-inf, -1,4, -1e-3) as an unknown option.
_VALUE_FLAGS = {flag for flag, _, _, _ in _FLAGS.values()} | {"--out", "--format", "--corrupt"}


def _attach_dash_values(argv):
    """argv (or sys.argv[1:]) with each "-"-led value written onto its
    flag as --flag=value."""
    args = []
    for arg in sys.argv[1:] if argv is None else argv:
        if args and args[-1] in _VALUE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            args[-1] += "=" + arg
        else:
            args.append(arg)
    return args


def build_parser() -> _Parser:
    parser = _Parser(prog="metrotrade", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **defaults):
        """A command taking --out, --format and the _FLAGS named in defaults."""
        p = sub.add_parser(name, help=help_text)
        for key, default in defaults.items():
            flag, dest, kind, flag_help = _FLAGS[key]
            p.add_argument(flag, dest=dest, type=kind, default=default,
                           help=flag_help)
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--format", dest="fmt", choices=("csv", "svg", "both"),
                       default="csv", help="output format")

    add("tradeoff", "detection bounds over an (n, alpha) grid",
        n_list=[10, 100, 1000, 10000], alpha_list=[0.25, 0.5, 1.0, 2.0, 4.0])
    add("inherent", "quantization-limited resolution/accuracy vs phi0",
        n=[100], phi0=None, grid=999)
    add("basis-sweep", "snr landscape over measurement directions",
        n=[1], phi=math.pi / 10.0, grid=400)
    add("resources", "detection floor scaling per strategy",
        m_grid=[2, 4, 8, 16, 32], big_n=100, alpha=[1.0], k=2.0)
    add("bias-mc", "estimator bias, exact vs Monte Carlo",
        n=[10], phi=math.pi / 4.0, trials=10**5, seed=0)
    pv = sub.add_parser("verify", help="run the built-in invariant suite")
    pv.add_argument("--seed", type=_uint64, default=0)
    pv.add_argument("--corrupt", choices=CHECK_NAMES, default=None,
                    help="test hook: sabotage one check's tolerance")
    pv.add_argument("--out", type=str, default=None)
    return parser


def run_verify(seed: int, corrupt, out) -> int:
    results = run_all(seed=seed, corrupt=corrupt)
    report = format_report(results)
    if out:
        _write_text(out, report)
    else:
        sys.stdout.write(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = RunConfig(**vars(parser.parse_args(_attach_dash_values(argv))))
        if cfg.command == "verify":
            return run_verify(cfg.seed, cfg.corrupt, cfg.out)
        cfg.validate()
        header, rows, panels = _COMMANDS[cfg.command](cfg)
        return _emit(cfg, header, rows, panels)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
