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
import contextlib
import importlib
import itertools
import math
import os
import sys

import numpy as np

from . import __version__, _mc_workers
from .bounds import _qcrb_and_ratio, inherent_precision, min_detectable_signal

# Names of other modules, each bound into this module the first time a
# command needs it (_bind) or code outside looks it up here (__getattr__),
# so a command loads only the modules it runs.  A name already set here,
# as perfbench/tracing.py and the tests patch them, stays the one called.
# basis_snr is listed so that perfbench/tracing.py can patch it: commands
# reach that kernel only through snr_grid.
_LAZY = {
    "basis_snr": "basis", "snr_grid": "basis",
    "exact_bias_report": "estimation", "monte_carlo_report": "estimation",
    "StrategyKind": "resources", "fit_scaling": "resources", "_SEED_MAX": "sampling",
    "Panel": "svgchart", "Series": "svgchart", "render_chart": "svgchart",
    "CHECK_NAMES": "verify", "format_report": "verify", "run_all": "verify",
}


def __getattr__(name):
    """A _LAZY name, loaded on its first lookup and kept in this module."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _bind(*names):
    """Bind each of names from _LAZY into this module, unless it is here."""
    for name in names:
        if name not in globals():
            __getattr__(name)


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


def _list_of(kind, noun: str):
    """Argument type for a flag that takes a comma list of kind values."""

    def parse(text: str):
        try:
            values = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}: {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "numbers")


def _uint64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an unsigned integer: {text!r}")
    _bind("_SEED_MAX")
    if not 0 <= value <= _SEED_MAX:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


@contextlib.contextmanager
def _refuse_past_a_double(what: str):
    """Re-raise an int's OverflowError on conversion to a float, which
    names no input, as a ValueError that names what overflowed and the
    limit: from 2**1024 - 2**970 on, an int rounds past the largest double."""
    try:
        yield
    except OverflowError:
        raise ValueError(f"{what} must be below 2**1024 - 2**970 to convert "
                         "to a float") from None


# Lines formatted by one % in _csv_text (a mesh band holds at least one
# whole outer row), and the most grid rows a command may write (the same
# cap as the sampler's CDF window).
_BLOCK_ROWS = 2**14
_GRID_ROWS_MAX = 2**22
# The largest n that bias-mc prints an exact row for: the benchmark's
# output oracle, perfbench/checks.check_bias_mc, expects none above 64.
_EXACT_ROW_MAX_N = 64


class _RowBlocks:
    """CSV data rows held as consecutive _Mesh blocks; len() counts lines."""

    def __init__(self, *blocks):
        self.blocks = blocks

    def __len__(self):
        return sum(len(block) for block in self.blocks)


def _cell_format(cell) -> str:
    """%-conversion of one CSV cell: str and int cells as str() writes
    them, any other cell as a 17-significant-digit float."""
    return "%s" if isinstance(cell, (str, int)) else "%.17g"


class _Mesh:
    """CSV data rows over an outer x inner mesh, outer-major.

    kinds has one letter per column: "o" for a sequence of outer cells,
    one per outer row; "i" for a sequence of inner cells, one per inner
    row; "c" for a float array that broadcasts to shape (outer, inner).
    Line (i, j) holds outer[i], inner[j] and cell[i, j] in kinds' order.
    At least one column is "c"; the cells set the shape.  len() counts
    lines.  Every command's CSV rows are one mesh, or a _RowBlocks of them.
    """

    def __init__(self, kinds, *columns):
        self.kinds, self.columns = kinds, columns
        self.cells = np.broadcast_arrays(
            *(col for kind, col in zip(kinds, columns) if kind == "c"))
        self.shape = self.cells[0].shape

    def __len__(self):
        return self.shape[0] * self.shape[1]

    @property
    def band(self):
        """Outer rows per piece of text_blocks: whole rows, about
        _BLOCK_ROWS lines."""
        return max(1, _BLOCK_ROWS // self.shape[1])

    def text_blocks(self, first, last):
        """The CSV lines of outer rows first..last-1, a band of whole outer
        rows per piece.  Outer and inner cells are formatted once each:
        the template of one outer row's lines is built from their text,
        and only the cells go through %.17g, with one % per band."""
        n_inner = self.shape[1]
        outer_cols = [col for kind, col in zip(self.kinds, self.columns) if kind == "o"]
        # Outer text goes into the band template by a first %, so whatever
        # must reach the cells' % intact is escaped once more.
        esc = "%%" if outer_cols else "%"
        pieces = [
            [(_cell_format(cell) % cell).replace("%", esc * 2) for cell in col]
            if kind == "i" else
            itertools.repeat("%s" if kind == "o" else esc + ".17g", n_inner)
            for kind, col in zip(self.kinds, self.columns)
        ]
        outer_row_lines = "".join(",".join(line) + "\n" for line in zip(*pieces))
        outer = list(zip(*(
            [(_cell_format(cell) % cell).replace("%", "%%") for cell in col[first:last]]
            for col in outer_cols
        )))
        band = self.band
        for start in range(first, last, band):
            stop = min(start + band, last)
            template = outer_row_lines * (stop - start)
            if outer_cols:
                template %= tuple(itertools.chain.from_iterable(
                    row * n_inner for row in outer[start - first:stop - first]))
            cells = np.stack([col[start:stop] for col in self.cells], axis=-1)
            yield template % tuple(cells.ravel().tolist())


def _format_in_child(mesh, first, last, write_fd, read_fds):
    """The forked side of _mesh_text: write the text of outer rows
    first..last-1 to write_fd and exit, with status 0 only if all of it
    was written.  Never returns."""
    status = 1
    try:
        for fd in read_fds:
            os.close(fd)
        # formatted whole before the first write: the parent reads this
        # pipe only once it has formatted its own run
        text = "".join(mesh.text_blocks(first, last)).encode()
        with open(write_fd, "wb") as pipe:
            pipe.write(text)
        status = 0
    finally:
        os._exit(status)


def _mesh_text(mesh):
    """The CSV lines of a mesh as a list of pieces, formatted on up to
    _mc_workers() processes.

    %-formatting holds the GIL, so threads cannot share it.  A mesh is cut
    into contiguous runs of whole outer rows, one per worker and at most
    one per band: forked children format runs 1, 2, ... and each writes
    its text to a pipe of its own while this process formats run 0; the
    pipes are then read in run order, so the bytes are those of a single
    process.  With one worker there is only run 0, and nothing is forked.
    A child runs only numpy, % and writes to its pipe, and takes no lock
    another thread could hold.  Every child is reaped before this
    returns, and one that fails makes it raise.
    """
    n_outer = mesh.shape[0]
    bands, workers = -(-n_outer // mesh.band), 1
    if bands > 1 and hasattr(os, "fork"):
        workers = min(_mc_workers(), bands)
    cuts = [k * n_outer // workers for k in range(workers + 1)]
    read_fds, pids = [], []
    try:
        for first, last in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            read_fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _format_in_child(mesh, first, last, write_fd, read_fds)
            finally:
                os.close(write_fd)
            pids.append(pid)
        parts = list(mesh.text_blocks(0, cuts[1]))
        for read_fd in read_fds:
            with open(read_fd, "rb", closefd=False) as pipe:
                parts.append(pipe.read().decode())
    finally:
        # a child still writing sees its pipe closed and exits
        for read_fd in read_fds:
            os.close(read_fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise RuntimeError("a CSV formatting process failed")
    return parts


def _csv_text(header, rows) -> str:
    """CSV text of header and rows, every line ending in LF.

    rows is a _Mesh or a _RowBlocks of them.
    """
    parts = [",".join(header) + "\n"]
    for mesh in rows.blocks if isinstance(rows, _RowBlocks) else (rows,):
        parts.extend(_mesh_text(mesh))
    return "".join(parts)


def _stem(out: str) -> str:
    """The path --format both writes <stem>.csv and <stem>.svg at."""
    for suffix in (".csv", ".svg"):
        if out.endswith(suffix):
            return out[: -len(suffix)]
    return out


class RunConfig(argparse.Namespace):
    """The parsed flags of one CLI invocation: the command, and an
    attribute per flag it registers, defaults from build_parser."""

    def validate(self):
        """Check what spans commands: --out names a file, and --format both
        needs --out with a file name before its suffix.  Each command
        checks what no library call checks before it allocates, and every
        other flag value is checked where the library reads it."""
        if self.out == "":
            raise UsageError("--out must name a file")
        if getattr(self, "fmt", None) == "both":  # verify takes no --format
            if self.out is None:
                raise UsageError("--format both requires --out")
            if not os.path.basename(_stem(self.out)):
                raise UsageError(f"--format both needs a file name before .csv or .svg: "
                                 f"{self.out!r}")


def cmd_tradeoff(cfg: RunConfig):
    if len(cfg.n_list) * len(cfg.alpha_list) > _GRID_ROWS_MAX:
        raise ValueError(f"n and alpha lists must give <= {_GRID_ROWS_MAX} rows")
    header = ["n", "alpha", "exact_bound", "asymptotic_bound", "qcrb",
              "correction_ratio"]
    # one kernel call over the n-major (n, alpha) mesh
    with _refuse_past_a_double("--n"):
        n_col = np.asarray(cfg.n_list, dtype=np.float64)[:, None]
    alphas = np.asarray(cfg.alpha_list, dtype=np.float64)
    exact = min_detectable_signal(alphas, n_col)
    with np.errstate(over="ignore"):  # 2 alpha past a double reads inf
        asymptotic = 2.0 * alphas / np.sqrt(n_col)
    qcrb, ratio = _qcrb_and_ratio(exact, n_col)
    # the n cell is the caller's int, so str() writes it exactly past 2**53
    rows = _Mesh("oiccoc", cfg.n_list, cfg.alpha_list, exact, asymptotic,
                 qcrb.ravel().tolist(), ratio)

    def chart():
        xs = tuple(range(len(rows)))
        return [Panel("detection bounds across the (n, alpha) grid", "row", "radians", (
            Series("exact_bound", xs, tuple(exact.ravel().tolist())),
            Series("asymptotic_bound", xs, tuple(asymptotic.ravel().tolist())),
            Series("qcrb", xs, tuple(np.broadcast_to(qcrb, exact.shape).ravel().tolist())),
        ))]

    return header, rows, chart


def _inherent_grid(n_points: int):
    """Interior grid over (0, pi) with pi/2 always included."""
    grid = np.arange(1, n_points + 1) * (math.pi / (n_points + 1))
    if not (grid == math.pi / 2.0).any():
        grid = np.sort(np.append(grid, math.pi / 2.0))
    return grid


def cmd_inherent(cfg: RunConfig):
    n = cfg.n
    if n < 1:  # inherent_precision checks it too, but after the grid
        raise ValueError("n must be a positive integer")
    if cfg.phi0 is not None:  # inherent_precision checks it
        phi0 = np.array([cfg.phi0])
    else:  # --grid is read only without --phi0
        if cfg.grid < 1:
            raise ValueError("grid must be >= 1")
        if cfg.grid >= _GRID_ROWS_MAX:
            raise ValueError(f"grid must be <= {_GRID_ROWS_MAX - 1}")
        phi0 = _inherent_grid(cfg.grid)
    header = ["phi0", "resolution", "accuracy"]
    with _refuse_past_a_double("--n"):
        delta, accuracy = inherent_precision(phi0, n)
    resolution = 1.0 / delta
    # a mesh of one inner row: every column is a cell
    rows = _Mesh("ccc", phi0[:, None], resolution[:, None], accuracy[:, None])

    def chart():
        xs = tuple(phi0.tolist())
        return [
            Panel(f"resolution vs phi0 (n={n})", "phi0", "1/dphi",
                  (Series("resolution", xs, tuple(resolution.tolist())),)),
            Panel(f"accuracy vs phi0 (n={n})", "phi0", "alpha",
                  (Series("accuracy", xs, tuple(accuracy.tolist())),)),
        ]

    return header, rows, chart


def cmd_basis_sweep(cfg: RunConfig):
    phi, n, grid = cfg.phi, cfg.n, cfg.grid
    # snr_grid checks the low end of grid, negative values included
    if grid > math.isqrt(_GRID_ROWS_MAX):
        raise ValueError(f"grid must be <= {math.isqrt(_GRID_ROWS_MAX)} points per axis")
    header = ["theta", "phi_b", "snr"]
    _bind("snr_grid")
    with _refuse_past_a_double("--n"):
        thetas, phibs, values = snr_grid(phi, n, grid)
    analytic = math.sqrt(n) * abs(math.tan(phi / 2.0))
    rows = _RowBlocks(_Mesh("oic", thetas, phibs, values),
                      _Mesh("occ", ["summary"], [[values.max()]], [[analytic]]))

    def chart():
        # Equatorial slice: theta closest to pi/2.
        eq = values[np.argmin(np.abs(thetas - math.pi / 2.0))]
        return [Panel(
            f"snr vs phi_b on the equatorial slice (phi={phi:.6g}, n={n})",
            "phi_b", "snr",
            (Series("snr(theta~pi/2)", tuple(phibs.tolist()), tuple(eq.tolist())),),
        )]

    return header, rows, chart


def cmd_resources(cfg: RunConfig):
    header = ["strategy", "M", "N", "min_signal", "fitted_exponent"]
    alpha = cfg.alpha
    _bind("StrategyKind", "fit_scaling")
    names = [strat.value for strat in StrategyKind]
    # an M of --m-grid, or the ensemble's M N shots, past a double
    with _refuse_past_a_double("--big-n times M"):
        reps = [fit_scaling(strat, cfg.m_grid, cfg.big_n, alpha, nonlinear_exponent=cfg.k)
                for strat in StrategyKind]
    # strategy by M; the M and N cells are ints
    rows = _Mesh("oiocc", names, reps[0].m_values, [cfg.big_n] * len(reps),
                 [rep.phis for rep in reps], [[rep.fitted_exponent] for rep in reps])

    def chart():
        return [Panel(f"detection floor vs M (N={cfg.big_n}, alpha={alpha:.6g})",
                      "M", "min signal",
                      tuple(Series(name, rep.m_values, rep.phis)
                            for name, rep in zip(names, reps)))]

    return header, rows, chart


def cmd_bias_mc(cfg: RunConfig):
    phi, n = cfg.phi, cfg.n
    header = ["mode", "mean_p", "bias_p", "mean_phi", "bias_phi", "var_phi",
              "mse_phi"]
    _bind("exact_bias_report", "monte_carlo_report")
    reports = [exact_bias_report(phi, n)] if n <= _EXACT_ROW_MAX_N else []
    reports.append(monte_carlo_report(phi, n, cfg.trials, cfg.seed))
    # one line per report; cells.T holds a (reports x 1) column per field
    cells = np.array([[rep.mean_p_hat, rep.bias_p, rep.mean_phi_hat, rep.bias_phi,
                       rep.var_phi, rep.mse_phi] for rep in reports])
    rows = _Mesh("occcccc", [rep.mode for rep in reports], *cells.T[:, :, None])

    def chart():
        xs = tuple(range(len(rows)))
        return [Panel(f"estimator bias at phi={phi:.6g}, n={n}", "row", "bias_phi",
                      (Series("bias_phi", xs, tuple(rep.bias_phi for rep in reports)),))]

    return header, rows, chart


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write(out, text: str):
    """Write text to the file out, or to stdout when out is None.  stdout
    is flushed, so that a full disk or a closed pipe raises here; if it
    does, stdout is closed, dropping what its buffer still holds, so that
    the interpreter's exit does not fail too."""
    if out is not None:
        _write_text(out, text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):
            sys.stdout.close()
        raise


def _emit(cfg: RunConfig, header, rows, chart) -> int:
    """Write the rows as CSV, their chart as SVG, or both; each is
    rendered only when it is written, and chart() builds the chart's
    panels only then, from the Panel and Series bound here."""
    if cfg.fmt != "csv":
        _bind("Panel", "Series", "render_chart")
    if cfg.fmt == "both":
        stem = _stem(cfg.out)
        _write(stem + ".csv", _csv_text(header, rows))
        _write(stem + ".svg", render_chart(chart()))
    else:
        _write(cfg.out, _csv_text(header, rows) if cfg.fmt == "csv" else render_chart(chart()))
    return EXIT_OK


_COMMANDS = {
    "tradeoff": cmd_tradeoff,
    "inherent": cmd_inherent,
    "basis-sweep": cmd_basis_sweep,
    "resources": cmd_resources,
    "bias-mc": cmd_bias_mc,
}

# Flags a command can take, by their RunConfig attribute, which is the
# keyword build_parser's add() names them with: (flag, metavar, type,
# help).  --n and --alpha take a comma list under n_list/alpha_list and a
# single value under n/alpha.
_FLAGS = {
    "n_list": ("--n", "N_LIST", _int_list, "comma list of sample budgets"),
    "n": ("--n", None, int, "sample budget"),
    "alpha_list": ("--alpha", "ALPHA_LIST", _float_list,
                   "comma list of confidence levels in noise-sigma units"),
    "alpha": ("--alpha", None, float, "confidence level in noise-sigma units"),
    "phi0": ("--phi0", None, float, "working-point phase in (0, pi)"),
    "phi": ("--phi", None, float, "phase shift under test"),
    "m_grid": ("--m-grid", None, _int_list, "comma list of probe sizes M"),
    "big_n": ("--big-n", None, int, "repetition count N"),
    "k": ("--k", None, float, "nonlinear generator order"),
    "trials": ("--trials", None, int, "Monte Carlo trial count"),
    "seed": ("--seed", None, _uint64, "64-bit unsigned sampling seed"),
    "grid": ("--grid", None, int, "grid resolution"),
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


# The parser of each command an argv can name, and (under None) of an argv
# naming none, built on first use and kept for the process: parsing reads
# a parser and never changes it, and every default is immutable.
_PARSERS = {}


def build_parser(args=None) -> _Parser:
    """The parser of argv args.  Every command is a subparser, so usage
    lines and invalid-choice errors name them all, but only the command
    args name (their first token that is not an option; all of them when
    args is None) gets its flags, as only that one parses any.  An argv
    gets the parser kept for its command, or for no command when it names
    none or an unknown one, so no argv adds a parser past seven."""
    names = (*_COMMANDS, "verify")
    if args is None:
        return _new_parser(names)
    command = next((a for a in args if a[:1] != "-"), None)
    key = command if command in names else None
    if key not in _PARSERS:
        _PARSERS[key] = _new_parser(() if key is None else (key,))
    return _PARSERS[key]


def _new_parser(flagged) -> _Parser:
    """A parser in which only the commands named in flagged take flags."""
    parser = _Parser(prog="metrotrade", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **defaults):
        """A command taking --out, --format and the _FLAGS named in defaults."""
        p = sub.add_parser(name, help=help_text)
        if name not in flagged:
            return
        for key, default in defaults.items():
            flag, metavar, kind, flag_help = _FLAGS[key]
            p.add_argument(flag, dest=key, metavar=metavar, type=kind, default=default,
                           help=flag_help)
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--format", dest="fmt", choices=("csv", "svg", "both"),
                       default="csv", help="output format")

    add("tradeoff", "detection bounds over an (n, alpha) grid",
        n_list=(10, 100, 1000, 10000), alpha_list=(0.25, 0.5, 1.0, 2.0, 4.0))
    add("inherent", "quantization-limited resolution/accuracy vs phi0",
        n=100, phi0=None, grid=999)
    add("basis-sweep", "snr landscape over measurement directions",
        n=1, phi=math.pi / 10.0, grid=400)
    add("resources", "detection floor scaling per strategy",
        m_grid=(2, 4, 8, 16, 32), big_n=100, alpha=1.0, k=2.0)
    add("bias-mc", "estimator bias, exact vs Monte Carlo",
        n=10, phi=math.pi / 4.0, trials=10**5, seed=0)
    pv = sub.add_parser("verify", help="run the built-in invariant suite")
    if "verify" not in flagged:
        return parser
    pv.add_argument("--seed", type=_uint64, default=0)
    _bind("CHECK_NAMES")
    pv.add_argument("--corrupt", choices=CHECK_NAMES, default=None, metavar="NAME",
                    help="test hook: sabotage the tolerance of check NAME")
    pv.add_argument("--out", type=str, default=None)
    return parser


def run_verify(seed: int, corrupt, out) -> int:
    _bind("run_all", "format_report")
    results = run_all(seed=seed, corrupt=corrupt)
    _write(out, format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def main(argv=None) -> int:
    args = _attach_dash_values(argv)
    parser = build_parser(args)
    try:
        cfg = parser.parse_args(args, RunConfig())
        cfg.validate()
        if cfg.command == "verify":
            return run_verify(cfg.seed, cfg.corrupt, cfg.out)
        header, rows, chart = _COMMANDS[cfg.command](cfg)
        return _emit(cfg, header, rows, chart)
    except SystemExit as exc:  # argparse's exit after -h, --help or --version
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

