"""A seeded fuzz of every command's flags through cli.main.

Each command is drawn with each of its flags present or absent, the
values taken from edge pools (0, +-1, 2, 3, 64, 65, 2**53 + 1, 2**62,
2**63 +- 1, 10**400, nan, +-inf, -0.0, 5e-324, 1e-320, pi and its
neighbours, 1e308 and 8.9e307) and from ranges.  Grids and trial counts
stay small enough that the module runs in a few seconds.  Whatever the
argv, the run must end in a documented exit code with no traceback: a
refusal is one stderr line and no stdout, a success prints nothing on
stderr and raises no RuntimeWarning, and a chart's coordinates are finite.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import svg_coordinates
from metrotrade.cli import main

_INTS = [0, 1, -1, 2, 3, 64, 65, 2**53 + 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 10**400]
_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 64.0, 65.0, float(2**53 + 1), float(2**62),
           math.nan, math.inf, -math.inf, 5e-324, 1e-320, math.pi,
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
# Flags a command always gets, so that no run takes a costly default.
_ALWAYS = {("basis-sweep", "--grid"), ("bias-mc", "--trials")}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag, values in _COMMAND_FLAGS[command].items():
        if (command, flag) in _ALWAYS or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv + ["--format", draw(st.sampled_from(["csv", "svg"]))]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
@example(["bias-mc", "--phi", "5e-324", "--format", "svg"])
@example(["tradeoff", "--n", "1", "--alpha", "1e-300,8.9e307", "--format", "svg"])
def test_every_command_ends_in_its_exit_code_without_a_traceback(argv):
    code, out, err, caught = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith("usage error: " if code == 1 else "error: "), (argv, err)
    else:
        assert err == "", (argv, err)
        assert out
    if code == 0 and argv[-1] == "svg":
        assert all(map(math.isfinite, svg_coordinates(out))), argv
