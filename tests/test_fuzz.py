"""A seeded fuzz of every command's flags through cli.main.

Each command is drawn with each of its flags present or absent, the
values taken from edge pools (0, +-1, 2, 3, 64, 65, 2**53 + 1, 2**60 + 100,
2**62, 2**62 + 3000, 2**63 - 808, 2**63 +- 1, 10**400, nan, +-inf, -0.0,
5e-324, 1e-320, 1e-9, 1e-7, pi and its neighbours, 1e308 and 8.9e307)
and from ranges.  Grids and trial counts stay small enough that the
module runs in a few seconds.  Whatever the argv, the run must end in a
documented exit code with no traceback: a refusal is one stderr line and
no output, a success prints nothing on stderr and raises no
RuntimeWarning, a chart's coordinates are finite, and so is every numeric
CSV cell but the two documented kinds: inherent's unreachable rows, nan
in both resolution and accuracy, and tradeoff's asymptotic_bound, inf
past the largest double.  Output goes to stdout, or with --out to a file
in a temporary directory, emptied after each argv, and with --format both
to the CSV and SVG files of the path's stem; an empty --out, or a both
path with no file name before its suffix, is a usage error.  Half of the
bias-mc argvs take every flag in range, and where bias-mc's window is
short enough to sum cheaply, its Monte Carlo bias_phi must lie within 5
standard errors of the exact bias.  verify is drawn in a test of its own,
with its seed, --corrupt and --out: it fails exactly the corrupted check.
"""

import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import phase_estimate_bias_ref, svg_coordinates
from metrotrade.bounds import _outcome_law
from metrotrade.cli import _GRID_ROWS_MAX, main
from metrotrade.sampling import binomial_weights
from metrotrade.verify import CHECK_NAMES

# Non-round counts above 2**53, where a float (n + 1) p misses the mode,
# meet phases whose law has p near 1.
_INTS = [0, 1, -1, 2, 3, 64, 65, 2**53 + 1, 2**60 + 100, 2**62, 2**62 + 3000,
         2**63 - 808, 2**63 - 1, 2**63, 2**63 + 1, 10**400]
_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 64.0, 65.0, float(2**53 + 1), float(2**62),
           math.nan, math.inf, -math.inf, 5e-324, 1e-320, 1e-9, 1e-7, math.pi,
           math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0), math.pi / 2,
           1e308, 8.9e307]
# Counts past every cap, refused before anything is allocated.
_HUGE = [2**62, 2**63 - 1, 2**63, 2**63 + 1, 10**400]


def _text(value) -> str:
    return str(value) if isinstance(value, int) else repr(value)


def _ints(low, high):
    return st.one_of(st.sampled_from(_INTS), st.integers(low, high)).map(_text)


def _floats(low, high):
    return st.one_of(st.sampled_from(_FLOATS), st.floats(low, high)).map(_text)


def _small(cap):
    """A count from -1 to cap, or one past every cap."""
    return st.one_of(st.integers(-1, cap), st.sampled_from(_HUGE)).map(_text)


def _list(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


# Each command's flags, with the values each may take.
_COMMAND_FLAGS = {
    "tradeoff": {"--n": _list(_ints(1, 10**6)), "--alpha": _list(_floats(1e-3, 10.0))},
    "inherent": {"--n": _ints(1, 10**6), "--phi0": _floats(0.0, math.pi),
                 "--grid": _small(9)},
    "basis-sweep": {"--n": _ints(1, 10**6), "--phi": _floats(-7.0, 7.0),
                    "--grid": st.one_of(st.just("200"), _small(199))},
    "resources": {"--m-grid": _list(_ints(1, 100)), "--big-n": _ints(1, 10**6),
                  "--alpha": _floats(1e-3, 10.0), "--k": _floats(0.5, 4.0)},
    "bias-mc": {"--n": _ints(1, 10**6), "--phi": _floats(0.0, math.pi),
                "--trials": _small(1000), "--seed": _ints(0, 2**64 - 1)},
}
# Values in range for every bias-mc flag, drawn for half of its argvs, so
# that more of them reach the value check.
_BIAS_MC_VALID = {"--n": st.integers(1, 10**4).map(str),
                  "--phi": st.floats(1e-3, math.pi - 1e-3).map(repr),
                  "--trials": st.integers(100, 1000).map(str)}
# Paths --out may name; "" and a both stem of ".csv" are refused.
_OUTS = ["", ".csv", "out", "out.csv", "out.svg"]
# Flags a command always gets, so that no run takes a costly default.
_ALWAYS = {("basis-sweep", "--grid"), ("bias-mc", "--trials")}
# The documented non-finite CSV cells, by command and column.
_NONFINITE = {("inherent", "resolution"): "nan", ("inherent", "accuracy"): "nan",
              ("tradeoff", "asymptotic_bound"): "inf"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    flags = _COMMAND_FLAGS[command]
    if command == "bias-mc" and draw(st.booleans()):
        flags = {**flags, **_BIAS_MC_VALID}
    for flag, values in flags.items():
        if (command, flag) in _ALWAYS or draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(_OUTS))]
    return argv + ["--format", draw(st.sampled_from(["csv", "svg", "both"]))]


def _assert_cells_finite(command, csv):
    header, _, body = csv.partition("\n")
    if "nan" not in body and "inf" not in body:
        return  # %.17g writes a non-finite number as nan, inf or -inf
    for row in body.splitlines():
        cells = dict(zip(header.split(","), row.split(",")))
        for name, cell in cells.items():
            try:
                value = float(cell)
            except ValueError:  # a label: a strategy, a mode or the summary line
                continue
            assert math.isfinite(value) or _NONFINITE.get((command, name)) == cell, (name, row)
        if command == "inherent":
            assert (cells["resolution"] == "nan") == (cells["accuracy"] == "nan"), row


# The largest bias-mc window whose moments the fuzz sums.
_EXACT_WINDOW_MAX = 2**14


def _assert_bias_near_exact(flags, csv):
    """bias-mc's Monte Carlo bias_phi within 5 standard errors, plus 4 ulp
    of phi, of the exact bias summed by the independent reference, where
    binomial_weights' window has at most _EXACT_WINDOW_MAX entries.  The
    package's exact_bias_report would be no reference: it reads the same
    window as the sampler, so a misplaced window moves both alike."""
    phi = float(flags.get("--phi", math.pi / 4.0))
    n, trials = int(flags.get("--n", "10")), int(flags["--trials"])
    p, q = map(float, _outcome_law(phi))
    if binomial_weights(p, q, n)[1].size > _EXACT_WINDOW_MAX:
        return
    header, *rows = csv.splitlines()
    drawn = dict(zip(header.split(","), rows[-1].split(",")))
    assert drawn["mode"] == "MonteCarlo"
    bias, var = phase_estimate_bias_ref(phi, p, q, n)
    tol = 5.0 * math.sqrt(var / trials) + 4.0 * math.ulp(phi)
    assert abs(float(drawn["bias_phi"]) - bias) <= tol, (drawn, bias, var)


def _expected_files(flags, fmt):
    """The files that --out names, each mapped to its format."""
    if "--out" not in flags:
        return {}
    if fmt != "both":
        return {flags["--out"]: fmt}
    stem = flags["--out"].removesuffix(".csv").removesuffix(".svg")
    return {stem + ".csv": "csv", stem + ".svg": "svg"}


@pytest.fixture(scope="module")
def out_dir():
    """A directory for --out, emptied after each argv."""
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def _run(argv, out_dir):
    """Run argv, with a non-empty --out path taken inside out_dir, and
    assert that it raised no RuntimeWarning.  Returns the exit code,
    stdout, stderr and the text of each file written, by name; the files
    are removed."""
    if "--out" in argv:
        at = argv.index("--out") + 1
        if argv[at]:
            argv = [*argv[:at], str(out_dir / argv[at]), *argv[at + 1:]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    written = {}
    for path in out_dir.iterdir():
        written[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    return code, out.getvalue(), err.getvalue(), written


def _assert_refused(argv, code, out, err, written):
    """A refusal: one stderr line, usage error or domain error by code,
    and no output."""
    assert out == "" and not written, (argv, written)
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert err.startswith("usage error: " if code == 1 else "error: "), (argv, err)


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
@example(["bias-mc", "--phi", "5e-324", "--format", "svg"])
@example(["bias-mc", "--n", "9223372036854775000", "--phi", "1e-9", "--trials", "1000",
          "--format", "csv"])
@example(["tradeoff", "--n", "1", "--alpha", "1e-300,8.9e307", "--format", "svg"])
@example(["tradeoff", "--n", "1", "--alpha", "1e-300,1e308", "--format", "csv"])
@example(["inherent", "--n", "3", "--grid", "5", "--format", "csv"])
@example(["resources", "--out", "out.svg", "--format", "both"])
@example(["inherent", "--grid", "3", "--format", "both"])
@example(["tradeoff", "--n", ",".join(["1"] * 2049), "--alpha", ",".join(["1"] * 2049),
          "--out", "out", "--format", "csv"])
def test_every_command_ends_in_its_exit_code_without_a_traceback(out_dir, argv):
    command, fmt = argv[0], argv[-1]
    flags = dict(zip(argv[1::2], argv[2::2]))
    code, out, err, written = _run(argv, out_dir)
    assert code in (0, 1, 2), (argv, code)
    # the refusals that span flags; an absent list is its default, at most
    # 5 long, so only two given lists can pass the row cap
    if flags.get("--out") == "" or fmt == "both" and flags.get("--out") in (None, ".csv"):
        assert code == 1, argv
    elif command == "tradeoff" and math.prod(
            len(flags.get(flag, "").split(",")) for flag in ("--n", "--alpha")
    ) > _GRID_ROWS_MAX:
        assert code == 2, argv
        assert err == f"error: n and alpha lists must give <= {_GRID_ROWS_MAX} rows\n"
    if code:
        _assert_refused(argv, code, out, err, written)
        return
    assert err == "", (argv, err)
    outputs = _expected_files(flags, fmt)
    assert set(written) == set(outputs), (argv, written)
    if not outputs:
        outputs, written = {"stdout": fmt}, {"stdout": out}
    else:
        assert out == ""
    for name, kind in outputs.items():
        text = written[name]
        assert text, (argv, name)
        if kind == "svg":
            assert all(map(math.isfinite, svg_coordinates(text))), argv
        else:
            _assert_cells_finite(command, text)
            if command == "bias-mc":
                _assert_bias_near_exact(flags, text)


_VERIFY_FLAGS = {"--seed": _ints(0, 2**64 - 1),
                 "--corrupt": st.sampled_from([*CHECK_NAMES, "no_such_check"]),
                 "--out": st.sampled_from(["", "report"])}


@st.composite
def _verify_argvs(draw):
    argv = ["verify"]
    for flag, values in _VERIFY_FLAGS.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


# A verify run takes ~30 ms in process, so it is drawn far less often.
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_verify_argvs())
def test_verify_fails_exactly_the_corrupted_check(out_dir, argv):
    flags = dict(zip(argv[1::2], argv[2::2]))
    code, out, err, written = _run(argv, out_dir)
    if (flags.get("--out") == "" or flags.get("--corrupt") == "no_such_check"
            or not 0 <= int(flags.get("--seed", 0)) < 2**64):
        assert code == 1, argv
        _assert_refused(argv, code, out, err, written)
        return
    assert err == "", (argv, err)
    corrupt = flags.get("--corrupt")
    assert code == (3 if corrupt else 0), (argv, code)
    if "--out" in flags:
        assert out == "" and set(written) == {flags["--out"]}, (argv, written)
        out = written[flags["--out"]]
    else:
        assert not written, (argv, written)
    failed = [row.split()[1] for row in out.splitlines() if row.startswith("FAIL ")]
    assert failed == ([corrupt] if corrupt else []), (argv, out)
