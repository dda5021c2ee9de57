import csv
import io
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import assert_same_text, csv_text_per_cell
from metrotrade import cli, estimation, resources, sampling, verify
from metrotrade.bounds import _outcome_law
from metrotrade.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def child_env():
    """Environment for a child interpreter that imports this package."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_tradeoff_csv_contents():
    code, out, _ = run_cli(["tradeoff", "--n", "1,100", "--alpha", "1.0"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "alpha", "exact_bound", "asymptotic_bound", "qcrb",
                      "correction_ratio"]
    assert len(rows) == 2
    assert float(rows[0][2]) == math.pi / 2.0
    assert abs(float(rows[1][2]) - math.acos(99.0 / 101.0)) < 1e-15
    assert abs(float(rows[1][3]) - 0.2) < 1e-15
    assert abs(float(rows[1][4]) - 0.1) < 1e-15
    assert abs(float(rows[1][5]) - 1.99337) < 1e-5


def test_tradeoff_is_one_kernel_call(monkeypatch):
    calls = []
    kernel = cli.min_detectable_signal

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(cli, "min_detectable_signal", counted)
    code, out, err = run_cli(["tradeoff"])
    assert code == 0 and err == ""
    assert len(parse_csv(out)[1]) == 20
    assert len(calls) == 1


def test_tradeoff_edge_cells():
    # n past 2**53 is written as given; 2 alpha past a double reads inf
    # without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["tradeoff", "--n", "9007199254740993",
                                  "--alpha", "1,1.7e308"])
    assert code == 0 and err == ""
    rows = parse_csv(out)[1]
    assert out.splitlines()[1].startswith("9007199254740993,")
    assert [row[0] for row in rows] == ["9007199254740993"] * 2
    assert rows[1][2:4] == ["3.1415926535897931", "inf"]


def test_tradeoff_alpha_linearity():
    _, out1, _ = run_cli(["tradeoff", "--n", "100", "--alpha", "0.5"])
    _, out2, _ = run_cli(["tradeoff", "--n", "100", "--alpha", "1.0"])
    a1 = float(parse_csv(out1)[1][0][3])
    a2 = float(parse_csv(out2)[1][0][3])
    assert abs(a2 - 2.0 * a1) < 1e-15


def test_inherent_csv(tmp_path):
    path = tmp_path / "inh.csv"
    code, _, _ = run_cli(["inherent", "--grid", "99", "--out", str(path)])
    assert code == 0
    header, rows = parse_csv(path.read_text())
    assert header == ["phi0", "resolution", "accuracy"]
    assert len(rows) in (99, 100)
    by_phi = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    res, acc = by_phi[math.pi / 2.0]
    assert abs(res - 49.9967) < 0.0001
    assert abs(acc - 0.100007) < 1e-6
    # small-angle rows are unreachable and reported as nan; skip them when
    # scanning for the extremes
    finite = [v for v in by_phi.values() if math.isfinite(v[0])]
    assert len(finite) < len(by_phi)
    # pi/2 carries (near enough) the best resolution and the worst accuracy
    assert res >= max(v[0] for v in finite) * (1.0 - 1e-3)
    assert acc <= min(v[1] for v in finite) * (1.0 + 1e-3)


def test_inherent_single_point():
    code, out, _ = run_cli(["inherent", "--phi0", str(math.pi / 4.0), "--n", "100"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0][1]) - 1.0 / 0.028700028633896672) < 1e-6


def test_inherent_flags_unreachable_rows():
    code, out, _ = run_cli(["inherent", "--n", "3", "--grid", "199"])
    assert code == 0
    _, rows = parse_csv(out)
    nan_rows = [r for r in rows if r[1] == "nan"]
    ok_rows = [r for r in rows if r[1] != "nan"]
    assert nan_rows and ok_rows
    for r in nan_rows:
        assert r[2] == "nan"
        assert float(r[0]) < math.acos(1.0 - 2.0 / 3.0)


@pytest.mark.parametrize("n", [1, 2])
def test_inherent_at_one_or_two_shots_is_nan_out_of_reach(n):
    # every row where q0 < 1/n is nan, and every other row finite: none
    # at n = 1, those past about pi/2 at n = 2
    code, out, err = run_cli(["inherent", "--n", str(n), "--grid", "199"])
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    _, q0 = _outcome_law(np.array([float(r[0]) for r in rows]))
    cells = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.array_equal(np.isnan(cells).all(axis=1), q0 < 1.0 / n)
    assert np.isfinite(cells).all(axis=1).any() == (n == 2)


@pytest.mark.parametrize("argv", [
    # sin**2(phi0 / 2) below 1/n at each; the ids name how an earlier
    # arccos form of the step met them: 2/n + cos phi0 rounding to 1, with
    # an arcsine argument above 1 or a sine of 0, and the sum above 1
    ["--n", "100000000000000000", "--phi0", "1e-17"],
    ["--n", "9223372036854775807", "--phi0", "5e-324"],
    ["--phi0", "1e-300"],
], ids=["sum-rounds-to-1", "zero-sine", "sum-above-1"])
def test_unreachable_point_is_a_nan_row_with_empty_stderr(argv):
    proc = subprocess.run([sys.executable, "-m", "metrotrade", "inherent", *argv],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, rows = parse_csv(proc.stdout)
    assert header == ["phi0", "resolution", "accuracy"]
    assert rows == [[rows[0][0], "nan", "nan"]]
    assert float(rows[0][0]) == float(argv[-1])


def test_basis_sweep_summary_row():
    code, out, _ = run_cli(["basis-sweep", "--grid", "200"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta", "phi_b", "snr"]
    assert len(rows) == 200 * 200 + 1
    summary = rows[-1]
    assert summary[0] == "summary"
    grid_max, analytic = float(summary[1]), float(summary[2])
    assert abs(analytic - math.tan(math.pi / 20.0)) < 1e-12
    assert grid_max <= analytic + 1e-9
    assert grid_max > 0.9 * analytic
    # theta = 0 rows measure nothing
    assert all(float(r[2]) == 0.0 for r in rows[:-1] if float(r[0]) == 0.0)


def test_basis_sweep_budget_scaling():
    _, out1, _ = run_cli(["basis-sweep", "--grid", "200", "--n", "1"])
    _, out2, _ = run_cli(["basis-sweep", "--grid", "200", "--n", "2"])
    _, rows1 = parse_csv(out1)
    _, rows2 = parse_csv(out2)
    for r1, r2 in zip(rows1[:500], rows2[:500]):
        assert abs(float(r2[2]) - math.sqrt(2.0) * float(r1[2])) < 1e-9


def test_resources_csv():
    code, out, _ = run_cli(["resources", "--m-grid", "2,4,8,16,32"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["strategy", "M", "N", "min_signal", "fitted_exponent"]
    assert len(rows) == 4 * 5
    slopes = {r[0]: float(r[4]) for r in rows}
    assert abs(slopes["ensemble"] + 0.5) <= 0.05
    assert abs(slopes["product"] + 0.5) <= 0.05
    assert abs(slopes["ghz"] + 1.0) <= 0.05
    assert abs(slopes["nonlinear"] + 2.0) <= 0.1
    ghz_m4 = [r for r in rows if r[0] == "ghz" and r[1] == "4"][0]
    assert abs(float(ghz_m4[3]) - 0.05) < 0.001
    # strategy by M: each strategy's lines in --m-grid order, cell for cell
    # as fit_scaling reports them
    expected = []
    for strat in resources.StrategyKind:
        rep = resources.fit_scaling(strat, [2, 4, 8, 16, 32], 100, 1.0, nonlinear_exponent=2.0)
        expected += [[strat.value, m, 100, floor, rep.fitted_exponent]
                     for m, floor in zip(rep.m_values, rep.phis)]
    assert_same_text(out, csv_text_per_cell(header, expected))


def test_bias_mc_csv_holds_each_report_in_header_order():
    phi, n, trials, seed = 0.3, 12, 1000, 4
    code, out, _ = run_cli(["bias-mc", "--phi", repr(phi), "--n", str(n),
                            "--trials", str(trials), "--seed", str(seed)])
    assert code == 0
    reports = [estimation.exact_bias_report(phi, n),
               estimation.monte_carlo_report(phi, n, trials, seed)]
    header = ["mode", "mean_p", "bias_p", "mean_phi", "bias_phi", "var_phi", "mse_phi"]
    rows = [[rep.mode, rep.mean_p_hat, rep.bias_p, rep.mean_phi_hat, rep.bias_phi,
             rep.var_phi, rep.mse_phi] for rep in reports]
    # no two fields of a report are equal, so a swapped column shows
    assert all(len(set(row[1:])) == 6 for row in rows)
    assert_same_text(out, csv_text_per_cell(header, rows))


def test_bias_mc_csv():
    code, out, _ = run_cli(["bias-mc", "--phi", str(math.pi / 2.0), "--n", "16",
                            "--trials", "2000"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["mode", "mean_p", "bias_p", "mean_phi", "bias_phi",
                      "var_phi", "mse_phi"]
    assert [r[0] for r in rows] == ["ExactEnumeration", "MonteCarlo"]
    exact = rows[0]
    assert abs(float(exact[4])) < 1e-12
    assert abs(float(exact[2])) < 1e-12
    for r in rows:
        mse = float(r[6])
        assert abs(mse - (float(r[5]) + float(r[4]) ** 2)) < 1e-10


def test_bias_mc_skips_enumeration_for_large_budget():
    code, out, _ = run_cli(["bias-mc", "--n", "100", "--trials", "500"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["MonteCarlo"]


def test_bias_mc_huge_budget_uses_a_window():
    # an n+1 table here would take ~8 GB; the windowed one is ~2.7e5 entries
    tracemalloc.start()
    start = time.perf_counter()
    code, out, _ = run_cli(["bias-mc", "--n", "1000000000", "--trials", "100"])
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0
    assert [r[0] for r in parse_csv(out)[1]] == ["MonteCarlo"]
    assert elapsed < 1.0
    assert peak < 64 * 2**20


def test_csv_determinism():
    for argv in (
        ["tradeoff"],
        ["inherent", "--grid", "49"],
        ["resources"],
        ["bias-mc", "--trials", "1000", "--seed", "9"],
    ):
        _, out1, _ = run_cli(list(argv))
        _, out2, _ = run_cli(list(argv))
        assert out1 == out2


_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1.0 / 3.0, 1e16, 123456789.0,
]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))


def _mesh_rows(mesh):
    """A mesh's lines as lists, expanded with np.repeat and np.tile rather
    than through the formatter."""
    pairs = list(zip(mesh.kinds, mesh.columns))
    shape = np.broadcast_shapes(*(np.shape(col) for kind, col in pairs if kind == "c"))
    columns = []
    for kind, col in pairs:
        if kind == "c":
            columns.append(np.broadcast_to(col, shape).ravel().tolist())
        else:
            cells = np.empty(len(col), dtype=object)
            cells[:] = list(col)
            columns.append(np.repeat(cells, shape[1]) if kind == "o"
                           else np.tile(cells, shape[0]))
    return [list(row) for row in zip(*columns)]


def _meshes_of(rows):
    """The meshes of a command's output, in order."""
    return rows.blocks if isinstance(rows, cli._RowBlocks) else (rows,)


def _rows_of(rows):
    """The rows of a command's output as lists, blocks expanded."""
    return [row for mesh in _meshes_of(rows) for row in _mesh_rows(mesh)]


def _float_block_mesh(block):
    """A 2-D float array as the mesh of one inner row per line."""
    return cli._Mesh("c" * block.shape[1],
                     *(block[:, k:k + 1] for k in range(block.shape[1])))


@given(st.lists(st.lists(_FLOATS, min_size=3, max_size=3), max_size=30))
def test_csv_text_of_float_block_matches_reference(rows):
    block = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    expected = csv_text_per_cell(["x", "y", "z"], rows)
    assert cli._csv_text(["x", "y", "z"], _float_block_mesh(block)) == expected
    summary = cli._Mesh("occ", ["summary"], [[1.0]], [[math.nan]])
    both = cli._RowBlocks(_float_block_mesh(block), summary)
    assert len(both) == len(rows) + 1
    assert cli._csv_text(["x", "y", "z"], both) == csv_text_per_cell(
        ["x", "y", "z"], rows + [["summary", 1.0, math.nan]])


_OUTER_CELLS = st.one_of(
    _FLOATS,
    st.floats().map(np.float64),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**53 + 1, -(2**63), 2**64 + 3, np.int64(2**60 + 1)]),
    # a fixed alphabet with % and ",": with the full one, the first draw in
    # a checkout without a .hypothesis cache builds hypothesis's character
    # table (~2.5 s), and this test fails the too_slow health check
    st.text(alphabet='a %,s%.17g"\né€\U0001f600', max_size=8),
)


@st.composite
def _meshes(draw):
    """A mesh of int, float and str outer and inner cells and float
    cells, its columns in any order of kinds with at least one cell
    column; the first cell column has the full shape, others may broadcast."""
    n_outer = draw(st.integers(min_value=0, max_value=6))
    n_inner = draw(st.integers(min_value=1, max_value=6))
    kinds = draw(st.lists(st.sampled_from("oic"), max_size=5))
    kinds.insert(draw(st.integers(min_value=0, max_value=len(kinds))), "c")
    columns = []
    full = True
    for kind in kinds:
        if kind == "o":
            columns.append(draw(st.lists(_OUTER_CELLS, min_size=n_outer, max_size=n_outer)))
        elif kind == "i":
            columns.append(draw(st.lists(_OUTER_CELLS, min_size=n_inner, max_size=n_inner)))
        else:
            shape = (n_outer, n_inner) if full else draw(st.sampled_from(
                [(n_outer, n_inner), (n_outer, 1), (1, n_inner)]))
            full = False
            cells = draw(st.lists(_FLOATS, min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))
            columns.append(np.array(cells, dtype=np.float64).reshape(shape))
    return cli._Mesh("".join(kinds), *columns)


@given(_meshes(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4))
def test_mesh_csv_text_matches_per_cell_reference(mesh, block_rows, workers):
    header = ["h"] * len(mesh.kinds)
    rows = _rows_of(mesh)
    assert len(mesh) == len(rows)
    expected = csv_text_per_cell(header, rows)
    # a small _BLOCK_ROWS splits the mesh into bands of one or more outer
    # rows, and a mesh of two or more bands into one run per worker
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(cli, "_mc_workers", lambda: workers):
        assert cli._csv_text(header, mesh) == expected


def test_csv_text_across_a_block_boundary():
    n = cli._BLOCK_ROWS + 1
    block = np.column_stack((np.arange(n) * (math.pi / n), np.full(n, -0.0),
                             np.linspace(-1e300, 1e-300, n)))
    rows = block.tolist()
    rows[-1][1] = math.nan
    block[-1, 1] = math.nan
    expected = csv_text_per_cell(["a", "b", "c"], rows)
    assert_same_text(cli._csv_text(["a", "b", "c"], _float_block_mesh(block)), expected)
    # the same lines with the first column as outer cells, one line per outer row
    outer_first = cli._Mesh("occ", block[:, 0].tolist(), block[:, 1:2], block[:, 2:3])
    assert_same_text(cli._csv_text(["a", "b", "c"], outer_first), expected)
    # 3 outer rows of 3/7 of a band's lines: the first band holds two rows, the second one
    inner = np.linspace(-1.0, 1.0, cli._BLOCK_ROWS * 3 // 7) ** 3
    assert cli._BLOCK_ROWS // inner.size == 2
    cells = np.outer([5e-324, -math.inf, 1.7976931348623157e308], inner)
    cells[1, 7] = math.nan
    mesh = cli._Mesh("ocio", ["%s", 2**64 + 3, -0.0], cells, inner, [1 / 3, "x,y", 7])
    header = ["a", "b", "c", "d"]
    text = cli._csv_text(header, mesh)
    assert_same_text(text, csv_text_per_cell(header, _rows_of(mesh)))
    assert len(mesh) == text.count("\n") - 1 == 3 * inner.size


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_csv_text_is_the_same_on_any_worker_count(monkeypatch, workers):
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "_mc_workers", lambda: workers)
    # two outer rows of 2 lines in bands of one row: fewer rows than four
    # workers; %-bearing and big-int outer cells, edge float cells
    cells = np.array([[math.nan, -0.0], [math.inf, -math.inf]])
    mesh = cli._Mesh("occi", ["%s%%", 2**64 + 3], cells, cells[::-1], [1e-300, -5e-324])
    with mock.patch.object(cli, "_BLOCK_ROWS", 3):
        assert_same_text(cli._csv_text(["a"] * 5, mesh),
                         csv_text_per_cell(["a"] * 5, _rows_of(mesh)))
    # basis-sweep's 200 theta rows in 3 bands, then its summary row
    cfg = cli.build_parser().parse_args(["basis-sweep", "--grid", "200"], cli.RunConfig())
    header, rows, _ = cli._COMMANDS[cfg.command](cfg)
    assert rows.blocks[0].band == 81 and rows.blocks[1].columns[0] == ["summary"]
    expected = csv_text_per_cell(header, _rows_of(rows))
    assert_same_text(cli._csv_text(header, rows), expected)
    assert len(forks) == min(workers, 2) - 1 + min(workers, 3) - 1
    monkeypatch.delattr(os, "fork")
    assert_same_text(cli._csv_text(header, rows), expected)


class _FormatFailed(Exception):
    pass


@pytest.mark.parametrize("in_child, raised", [(True, RuntimeError), (False, _FormatFailed)])
def test_failed_formatting_raises_and_leaves_no_child(monkeypatch, in_child, raised):
    # run 0 is formatted in this process, run 1 in a forked child
    text_blocks = cli._Mesh.text_blocks

    def failing(self, first, last):
        if (first > 0) == in_child:
            raise _FormatFailed
        return text_blocks(self, first, last)

    monkeypatch.setattr(cli._Mesh, "text_blocks", failing)
    monkeypatch.setattr(cli, "_mc_workers", lambda: 2)
    mesh = cli._Mesh("c", np.arange(2.0 * (cli._BLOCK_ROWS + 1))[:, None])
    with pytest.raises(raised):
        cli._csv_text(["x"], mesh)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["tradeoff"], ["inherent"], ["basis-sweep"], ["resources"], ["bias-mc"],
    ["basis-sweep", "--grid", "200", "--phi", "0.4371"],
    ["inherent", "--n", "1000000", "--grid", "100000"],
    ["tradeoff", "--alpha", "1e200", "--n", "1"],  # the exact bound rounds to pi
    ["tradeoff", "--n", "9007199254740993,9223372036854775807", "--alpha", "1,0.3"],
    ["tradeoff", "--alpha", "1.7e308", "--n", "1,4"],
    ["tradeoff", "--alpha", "5e-324,1e-300", "--n", "1,9007199254740993"],
    ["tradeoff", "--n", ",".join(str(k**10) for k in range(1, 65)),  # 64 x 64
     "--alpha", ",".join(repr(k * 0.37) for k in range(1, 65))],
    ["resources", "--m-grid", "2,1000000000000000000000"],  # M past 2**64
    # a repeated M, and N past 2**64 as an outer int cell
    ["resources", "--m-grid", "2,2,4", "--big-n", "1000000000000000000000"],
    ["bias-mc", "--n", "65", "--trials", "100"],  # a mesh of one line
    ["bias-mc", "--phi", "1e-9"],
])
def test_command_csv_matches_per_cell_reference(argv):
    cfg = cli.build_parser().parse_args(argv, cli.RunConfig())
    header, rows, _ = cli._COMMANDS[cfg.command](cfg)
    # every command's rows reach _csv_text as meshes only
    assert isinstance(rows, (cli._Mesh, cli._RowBlocks))
    assert all(isinstance(mesh, cli._Mesh) for mesh in _meshes_of(rows))
    text = cli._csv_text(header, rows)
    assert_same_text(text, csv_text_per_cell(header, _rows_of(rows)))
    assert len(rows) == text.count("\n") - 1
    assert_same_text(run_cli(argv)[1], text)


def test_svg_output_well_formed(tmp_path):
    path = tmp_path / "chart.svg"
    code, _, _ = run_cli(["inherent", "--grid", "49", "--format", "svg",
                          "--out", str(path)])
    assert code == 0
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("viewBox")
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2


def test_svg_polyline_per_series():
    code, out, _ = run_cli(["tradeoff", "--format", "svg"])
    assert code == 0
    root = ET.fromstring(out)
    assert len(root.findall(f".//{SVG_NS}polyline")) == 3


def test_format_both_writes_pair(tmp_path):
    stem = tmp_path / "pair"
    code, _, _ = run_cli(["resources", "--m-grid", "2,4", "--format", "both",
                          "--out", str(stem)])
    assert code == 0
    csv_text = (stem.with_suffix(".csv")).read_text()
    svg_text = (stem.with_suffix(".svg")).read_text()
    assert csv_text.startswith("strategy,")
    assert len(ET.fromstring(svg_text).findall(f".//{SVG_NS}polyline")) == 4


def test_usage_errors_exit_one():
    code, _, err = run_cli(["tradeoff", "--n", "abc"])
    assert code == 1
    assert "usage error" in err
    code, _, _ = run_cli(["nosuchcommand"])
    assert code == 1
    code, _, _ = run_cli(["resources", "--seed", "-3"])
    assert code == 1
    code, _, err = run_cli(["tradeoff", "--format", "both"])
    assert code == 1
    assert "requires --out" in err
    # a usage error wins over a bad value that its command would refuse
    for argv in (["inherent", "--grid", "-5", "--format", "both"],
                 ["basis-sweep", "--grid", "3000", "--format", "both"]):
        assert run_cli(argv) == (1, "", "usage error: --format both requires --out\n")


@pytest.mark.parametrize("argv", [
    ["inherent", "--n", "100,5"],  # one budget only
    ["resources", "--alpha", "1,2"],  # one confidence level only
    ["basis-sweep", "--alpha", "3", "--trials", "7"],  # flags it does not read
    ["inherent", "--n", "100,"],  # not even with a trailing comma
])
def test_flags_a_command_cannot_use_exit_one(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _help_text(parser, argv):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


def _usage_error(parser, argv):
    with pytest.raises(cli.UsageError) as refused:
        parser.parse_args(argv)
    return str(refused.value)


@pytest.mark.parametrize("command", [*cli._COMMANDS, "verify"])
def test_parser_of_an_argv_flags_only_its_command(command):
    # the full parser's help and usage lines for the command argv names,
    # while every other command keeps its name and help but takes no flag
    full = cli.build_parser()
    built = cli.build_parser(["--", command, "--out", "x.csv"])
    assert _help_text(built, ["-h"]) == _help_text(full, ["-h"])
    assert _help_text(built, [command, "-h"]) == _help_text(full, [command, "-h"])
    assert _usage_error(built, ["nosuch"]) == _usage_error(full, ["nosuch"])
    for other in {*cli._COMMANDS, "verify"} - {command}:
        assert _usage_error(built, [other, "--out", "x"]) == "unrecognized arguments: --out x"
    assert vars(built.parse_args([command], cli.RunConfig())) == vars(
        full.parse_args([command], cli.RunConfig()))


def test_csv_output_renders_no_chart(monkeypatch):
    def refuse(panels):
        raise AssertionError("render_chart called for --format csv")

    monkeypatch.setattr(cli, "render_chart", refuse)
    code, _, _ = run_cli(["inherent", "--grid", "49"])
    assert code == 0


def test_csv_output_builds_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("Series built for --format csv")

    monkeypatch.setattr(cli, "Series", refuse)
    for command in cli._COMMANDS:
        assert run_cli([command])[0] == 0


def test_benchmark_tracing_installs_and_unpatches(monkeypatch):
    # perfbench/tracing.py patches names on these modules by lookup; a
    # name it cannot find would break `perfbench/run.py --trace 1`.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    original_main, original_checks = cli.main, verify._CHECKS
    tracer = tracing.Tracer()
    tracing.install(tracer, cli, verify, estimation)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["tradeoff"]) == 0
    finally:
        tracer.unpatch()
    assert tracer.summary()["cli.compute"][0] == 1
    assert cli.main is original_main
    assert verify._CHECKS is original_checks


@pytest.mark.parametrize("argv", [
    ["tradeoff"],
    ["inherent", "--grid", "9"],
    ["basis-sweep", "--grid", "200"],
    ["resources"],
    ["bias-mc", "--n", "100", "--trials", "100"],
    ["bias-mc", "--format", "svg"],
    ["verify"],
])
def test_benchmark_tracing_runs_every_command(monkeypatch, argv):
    # the names perfbench/tracing.py patches or reads on each command's
    # path: RunConfig.validate, monte_carlo_report, and the format of the
    # flags _emit gets
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, cli, verify, estimation)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            assert cli.main(argv) == 0
    finally:
        tracer.unpatch()
    assert tracer.summary()["cli.parse"][0] > 0
    # cli.csv_rows counts the data lines written, basis-sweep's summary among them
    csv_lines = out.getvalue().count("\n") - 1
    writes_csv = argv[0] != "verify" and "svg" not in argv
    assert tracer.counts["cli.csv_rows"] == (csv_lines if writes_csv else 0)
    # the tracer wraps cli.monte_carlo_report, which verify does not call
    assert ("estimation.monte_carlo_report" in tracer.summary()) == (argv[0] == "bias-mc")
    # the tracer's draw_count_matrix hook reads its first argument as a
    # record of outcome probabilities, which the sampler no longer takes;
    # no command may reach it
    assert "sampling.draw_count_matrix" not in tracer.summary()
    assert tracer.counts["svgchart.written"] == ("svg" in argv)
    # inherent computes its rows in one call of the kernel the tracer wraps
    # as cli.inherent_precision; basis-sweep reaches basis_snr only through
    # snr_grid, so no command records a span of cli.basis_snr
    kernel_calls = tracer.summary().get("bounds.inherent_precision", [0])[0]
    assert kernel_calls == (argv[0] == "inherent")
    assert "basis.basis_snr" not in tracer.summary()


@pytest.mark.parametrize("seed, index", [(3, 0), (7, 1), (11, 5)])
def test_benchmark_monte_carlo_argvs_pass_its_checks(monkeypatch, seed, index):
    # the benchmark's monte-carlo commands, and its checks of their output
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks
    import run

    argvs = run.workload_argvs("monte-carlo", seed, index)
    assert [argv[0] for argv in argvs] == ["bias-mc", "bias-mc"]
    for argv in argvs:
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert checks.check(argv, out.encode("ascii")) is None


def test_domain_errors_exit_two():
    code, _, err = run_cli(["bias-mc", "--phi", "4.0"])
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["basis-sweep", "--grid", "100"])
    assert code == 2
    code, _, _ = run_cli(["resources", "--m-grid", "4,4"])
    assert code == 2
    code, _, _ = run_cli(["bias-mc", "--trials", "10"])
    assert code == 2


# The exact line of some refusals above and below: a bad n is reported
# before a bad grid or phi, and a working point outside (0, pi) by the
# kernel's check.  resources checks its M grid, then M, n, alpha, k and
# last the M**k overflow.
_M_LINE = "error: m must be a positive integer\n"
_N_LINE = "error: n must be a positive integer\n"
_GRID_LINE = "error: degenerate grid: need at least two distinct m values\n"
_ALPHA_LINE = "error: alpha must be positive and finite\n"
_K_LINE = "error: nonlinear_exponent must be >= 1\n"
_PAST_A_DOUBLE = " must be below 2**1024 - 2**970 to convert to a float\n"
_REFUSAL_LINES = {
    ("basis-sweep", "--n", "0", "--grid", "100"): _N_LINE,
    ("basis-sweep", "--n", "0", "--phi", "nan", "--grid", "300"): _N_LINE,
    ("inherent", "--n", "0", "--grid", "0"): _N_LINE,
    ("inherent", "--phi0", "4"): "error: phi0 must lie in (0, pi)\n",
    ("inherent", "--phi0", "0"): "error: phi0 must lie in (0, pi)\n",
    ("resources", "--m-grid", "0,2"): _M_LINE,
    ("resources", "--m-grid=-1,4"): _M_LINE,
    ("resources", "--m-grid", "4,4"): _GRID_LINE,
    ("resources", "--m-grid", "7"): _GRID_LINE,
    ("resources", "--big-n", "0"): _N_LINE,
    ("resources", "--big-n", "-3"): _N_LINE,
    ("resources", "--alpha", "0"): _ALPHA_LINE,
    ("resources", "--alpha", "inf"): _ALPHA_LINE,
    ("resources", "--alpha", "nan"): _ALPHA_LINE,
    ("resources", "--k", "0.5"): _K_LINE,
    ("resources", "--k=-inf"): _K_LINE,
    ("resources", "--k", "nan"): _K_LINE,
    ("resources", "--alpha", "0", "--k", "0.5"): _ALPHA_LINE,
    ("resources", "--m-grid", "0,2", "--big-n", "0"): _M_LINE,
    ("resources", "--big-n", "0", "--alpha", "0"): _N_LINE,
    ("resources", "--k", "1e308"): "error: M**k = 2**1e+308 overflows a float\n",
    ("tradeoff", "--n", str(10**400)): "error: --n" + _PAST_A_DOUBLE,
    ("inherent", "--n", str(10**400)): "error: --n" + _PAST_A_DOUBLE,
    ("basis-sweep", "--n", str(10**400)): "error: --n" + _PAST_A_DOUBLE,
    ("resources", "--big-n", str(10**400)): "error: --big-n times M" + _PAST_A_DOUBLE,
    ("bias-mc", "--n", str(2**62), "--trials", "100"):
        "error: binomial CDF window of 18222003129 entries exceeds 4194304; "
        "n p (1 - p) is too large to sample\n",
}


@pytest.mark.parametrize("argv", [
    ["tradeoff", "--n", "0"],
    ["tradeoff", "--n", "-1"],
    ["tradeoff", "--n", "10,0"],
    ["tradeoff", "--alpha", "0"],
    ["tradeoff", "--alpha", "-0.5"],
    ["tradeoff", "--alpha", "inf"],
    ["tradeoff", "--alpha", "nan"],
    ["tradeoff", "--alpha", "1,-inf"],
    ["basis-sweep", "--n", "0"],
    ["basis-sweep", "--n", "-2"],
    ["basis-sweep", "--grid", "199"],
    ["basis-sweep", "--grid", "0"],
    ["basis-sweep", "--grid", "-5"],
    ["basis-sweep", "--phi", "inf"],
    ["basis-sweep", "--phi=-inf"],
    ["basis-sweep", "--phi", "nan"],
    ["resources", "--m-grid", "0,2"],
    ["resources", "--m-grid=-1,4"],
    ["resources", "--m-grid", "4,4"],
    ["resources", "--m-grid", "7"],
    ["resources", "--big-n", "0"],
    ["resources", "--big-n", "-3"],
    ["resources", "--alpha", "0"],
    ["resources", "--alpha", "inf"],
    ["resources", "--alpha", "nan"],
    ["resources", "--k", "0.5"],
    ["resources", "--k=-inf"],
    ["resources", "--k", "nan"],
    ["bias-mc", "--phi", "0"],
    ["bias-mc", "--phi", "-1"],
    ["bias-mc", "--phi", "3.1416"],
    ["bias-mc", "--phi", "nan"],
    ["bias-mc", "--n", "0"],
    ["bias-mc", "--n", "-4"],
    ["bias-mc", "--trials", "99"],
    ["bias-mc", "--trials", "0"],
    ["bias-mc", "--trials", "-100"],
    ["basis-sweep", "--n", "0", "--grid", "100"],
    ["basis-sweep", "--n", "0", "--phi", "nan", "--grid", "300"],
    ["inherent", "--phi0", "4"],
    ["inherent", "--phi0", "0"],
    ["resources", "--alpha", "0", "--k", "0.5"],
    ["resources", "--m-grid", "0,2", "--big-n", "0"],
    ["resources", "--big-n", "0", "--alpha", "0"],
    ["inherent", "--n", "0", "--grid", "0"],
])
def test_rejected_flag_values_exit_two_with_one_line(argv):
    # one value per check the flags meet before any output is written,
    # wherever that check is made; where several flags are bad, the line
    # names the one checked first
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if tuple(argv) in _REFUSAL_LINES:
        assert err == _REFUSAL_LINES[tuple(argv)]


@pytest.mark.parametrize("argv", [
    ["resources", "--k", "1e308"],  # M**k overflows a float
    ["bias-mc", "--n", str(2**62), "--trials", "100"],  # CDF window too wide
    # integers past a double or an int64
    ["tradeoff", "--n", str(10**400)],
    ["inherent", "--n", str(10**400)],
    ["basis-sweep", "--n", str(10**400)],
    ["resources", "--big-n", str(10**400)],
    ["bias-mc", "--n", str(10**23), "--trials", "100"],
])
def test_out_of_range_inputs_exit_two_with_one_line(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if tuple(argv) in _REFUSAL_LINES:
        assert err == _REFUSAL_LINES[tuple(argv)]


# The largest int that converts to a double: one more rounds up to 2**1024.
_LAST_DOUBLE_INT = 2**1024 - 2**970 - 1


@pytest.mark.parametrize("argv, what", [
    (["tradeoff", "--n", "{n}"], "--n"),
    (["inherent", "--n", "{n}"], "--n"),
    (["basis-sweep", "--n", "{n}", "--grid", "200"], "--n"),
    # the ensemble's M N shots, and an M past a double
    (["resources", "--m-grid", "1,2", "--big-n", "{half_n}"], "--big-n times M"),
    (["resources", "--m-grid", "1,{n}", "--big-n", "1", "--k", "1"], "--big-n times M"),
])
def test_int_past_a_double_names_its_flag_and_the_limit(argv, what):
    def run(n):
        return run_cli([arg.format(n=n, half_n=n // 2) for arg in argv])

    code, out, err = run(_LAST_DOUBLE_INT)
    assert (code, err) == (0, "") and out
    assert run(_LAST_DOUBLE_INT + 2) == (2, "", "error: " + what + _PAST_A_DOUBLE)


@pytest.mark.parametrize("phi", ["1e-9", "3.14159265", "3.1415926"])
def test_shot_count_past_int64_names_the_limit(phi):
    # p rounds to 1 and to 0, where the table is the one count n or 0, and
    # p ~ 7e-16, where the window is narrow; counts are int64 at all three
    code, out, err = run_cli(["bias-mc", "--n", str(2**63), "--phi", phi,
                              "--trials", "100"])
    assert (code, out) == (2, "")
    assert err == (f"error: shot count n must be <= 2**63 - 1 = {2**63 - 1} "
                   "to be drawn as int64 counts\n")


def test_trials_past_the_cap_exit_two_before_any_draw(monkeypatch):
    class Drawn(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(sampling, "_window_histogram", refuse)
    code, out, err = run_cli(["bias-mc", "--trials", str(2**32 + 1)])
    assert code == 2
    assert out == ""
    assert err == f"error: trials must be <= {2**32}\n"
    with pytest.raises(Drawn):  # the cap itself is accepted
        run_cli(["bias-mc", "--trials", str(2**32)])


@pytest.mark.parametrize("flag, value, code", [
    ("resources --m-grid", "-1,4", 2),
    ("resources --k", "-inf", 2),
    ("basis-sweep --phi", "-inf", 2),
    ("bias-mc --phi", "-1e-3", 2),
    ("tradeoff --alpha", "-1,2", 2),
    ("inherent --phi0", "-nan", 2),
    ("verify --seed", "-1", 1),
])
def test_dash_led_value_reads_as_its_equals_form(flag, value, code):
    # argparse alone reads -inf or -1,4 after a flag as an unknown option
    *argv, name = flag.split()
    spaced = run_cli(argv + [name, value])
    assert spaced == run_cli(argv + [f"{name}={value}"])
    assert spaced[0] == code and spaced[1] == "" and spaced[2].count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["basis-sweep", "--grid", "2049"],
    ["basis-sweep", "--grid", "100000"],
    ["inherent", "--grid", str(2**22)],
    ["inherent", "--grid", str(10**12)],
])
def test_grid_past_the_row_cap_exits_two(monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("grid computed past the row cap")

    monkeypatch.setattr(cli, "snr_grid", refuse)
    monkeypatch.setattr(cli, "inherent_precision", refuse)
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid must be <= ") and err.count("\n") == 1


def test_tradeoff_past_the_row_cap_exits_two(monkeypatch):
    def refuse(*args):
        raise AssertionError("bound computed past the row cap")

    monkeypatch.setattr(cli, "min_detectable_signal", refuse)
    n = ",".join(str(i) for i in range(1, 2050))
    alpha = ",".join(str(i) for i in range(1, 2049))
    code, out, err = run_cli(["tradeoff", "--n", n, "--alpha", alpha])
    assert code == 2
    assert out == ""
    assert err == f"error: n and alpha lists must give <= {2**22} rows\n"


def test_grid_is_checked_only_where_it_is_read():
    # a single --phi0 makes the grid unused
    code, out, err = run_cli(["inherent", "--phi0", "1", "--grid", "0"])
    assert code == 0 and err == ""
    assert len(parse_csv(out)[1]) == 1
    code, out, err = run_cli(["inherent", "--grid", "0"])
    assert code == 2
    assert out == "" and err == "error: grid must be >= 1\n"


def test_grid_at_the_row_cap_is_accepted(monkeypatch):
    # each command checks its cap before its kernel, which raises here:
    # building these grids would write 2**22 rows
    class Computed(Exception):
        pass

    def computed(*args):
        raise Computed

    for name in ("snr_grid", "inherent_precision", "min_detectable_signal"):
        monkeypatch.setattr(cli, name, computed)
    values = ",".join(str(i) for i in range(1, 2049))
    for at_cap, past_cap in (
            (["basis-sweep", "--grid", "2048"], ["basis-sweep", "--grid", "2049"]),
            (["inherent", "--grid", str(2**22 - 1)], ["inherent", "--grid", str(2**22)]),
            (["tradeoff", "--n", values, "--alpha", values],
             ["tradeoff", "--n", values + ",2049", "--alpha", values])):
        with pytest.raises(Computed):
            run_cli(at_cap)
        code, out, err = run_cli(past_cap)
        assert code == 2 and out == "" and err.count("\n") == 1
    # an odd grid already holds pi/2, so 2**22 - 1 points give 2**22 - 1 rows
    assert len(cli._inherent_grid(7)) == 7


@pytest.mark.parametrize("grid", ["-3000", "-100", "0", "199"])
def test_basis_sweep_grid_below_its_floor_names_the_floor(grid):
    assert run_cli(["basis-sweep", "--grid", grid]) == (
        2, "", "error: grid must be an integer >= 200 points per axis\n")


def test_verify_passes_and_reports():
    code, out, _ = run_cli(["verify"])
    assert code == 0
    assert "OK: 11 checks passed" in out
    assert out.count("PASS") == 11
    # the factor-2 line carries the measured n=100 bound
    line = [l for l in out.splitlines() if "factor2" in l][0]
    assert "1.9933730498" in line


def test_verify_corrupt_hook_exits_three():
    code, out, _ = run_cli(["verify", "--corrupt", "bound_vs_oracle"])
    assert code == 3
    assert "FAILED: bound_vs_oracle" in out
    assert "FAIL  bound_vs_oracle" in out


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_verify_corrupt_at_the_largest_seed_fails_that_check(name):
    # reproducibility's corrupted rerun draws at the next seed, which wraps to 0
    code, out, err = run_cli(["verify", "--seed", str(2**64 - 1), "--corrupt", name])
    assert (code, err) == (3, "")
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")] == [name]
    assert out.endswith(f"FAILED: {name}\n")


def test_verify_corrupt_names_an_unknown_check_in_one_usage_line():
    code, out, err = run_cli(["verify", "--corrupt", "no_such_check"])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: argument --corrupt: invalid choice: 'no_such_check'")
    assert err.count("\n") == 1
    assert all(repr(name) in err for name in verify.CHECK_NAMES)


@pytest.mark.parametrize("argv", [
    ["tradeoff", "--out", "{missing}/x.csv"],
    ["inherent", "--format", "both", "--out", "{missing}/q"],
    ["verify", "--out", "{missing}/r"],
])
def test_unwritable_out_exits_two_with_one_line(tmp_path, argv):
    missing = tmp_path / "no_such_dir"
    code, out, err = run_cli([arg.format(missing=missing) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    assert not missing.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None])
def test_full_stdout_exits_two_with_one_line(unbuffered):
    # unbuffered, the write fails; buffered, the flush after it does, and
    # the exit must not fail again on what the buffer still holds
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "metrotrade", "tradeoff"],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


def test_verify_report_to_file(tmp_path):
    path = tmp_path / "report.txt"
    code, out, _ = run_cli(["verify", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert "OK: 11 checks passed" in path.read_text()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "metrotrade", "tradeoff", "--n", "4", "--alpha", "2"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header[0] == "n"
    # n = alpha^2 pins the exact bound at a right angle
    assert float(rows[0][2]) == math.pi / 2.0


def test_runtime_does_not_import_scipy():
    # verify and an SVG chart load none of scipy or the xml/urllib/http/
    # email stack, whose import cost every cold start would pay.  Site
    # hooks may load some of these before the package is imported, so
    # only modules the run itself adds are counted.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import metrotrade.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [c.main(['verify']), c.main(['tradeoff', '--format', 'svg'])]\n"
        "banned = ('scipy', 'xml', 'urllib', 'http', 'email')\n"
        "added = set(sys.modules) - before\n"
        "print(codes, sorted(m for m in added if m.split('.')[0] in banned))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "[]"]


def test_verify_loads_no_pool_logging_or_numpy_random():
    # verify runs its checks in turn and draws its points from the
    # package's own substream, so it pays for neither a thread pool
    # (concurrent.futures, which loads logging) nor numpy.random
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import metrotrade.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = c.main(['verify'])\n"
        "banned = ('numpy.random', 'concurrent.futures', 'logging')\n"
        "added = set(sys.modules) - before\n"
        "print(code, sorted(m for m in added\n"
        "                   if any(m == b or m.startswith(b + '.') for b in banned)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


# The package modules a command loads beyond those of `tradeoff` (cli and
# bounds).  basis-sweep's default 160k-line mesh spans several
# bands and is formatted on several processes, whose count the package
# itself gives, so it loads neither the estimator nor the sampler.
@pytest.mark.parametrize("argv, extra", [
    (["tradeoff"], []),
    (["inherent"], []),
    (["basis-sweep"], ["basis"]),
    (["resources"], ["resources"]),
    (["bias-mc"], ["estimation", "sampling"]),
    (["verify"], ["basis", "estimation", "resources", "sampling", "verify"]),
    (["tradeoff", "--format", "svg"], ["svgchart"]),
    (["resources", "--format", "svg"], ["resources", "svgchart"]),
    (["inherent", "--format", "both", "--out", "{tmp}/q"], ["svgchart"]),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import metrotrade.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = c.main(sys.argv[1:])\n"
        "added = set(sys.modules) - before\n"
        "print(code, *sorted(m for m in added if m.split('.')[0] == 'metrotrade'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *(arg.format(tmp=tmp_path) for arg in argv)],
        env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    base = ["bounds", "cli"]
    assert proc.stdout.split() == ["0", "metrotrade"] + [
        f"metrotrade.{name}" for name in sorted(base + extra)]


def test_package_import_loads_no_module_or_numpy():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import metrotrade\n"
        "added = set(sys.modules) - before\n"
        "print(*sorted(m for m in added if m.split('.')[0] in ('metrotrade', 'numpy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["metrotrade"]


def test_resources_keeps_a_floor_at_huge_budgets():
    # at N = 1e16 the critical fidelity rounds to 1; the floor must not
    # collapse to 0 (which once surfaced as a phase the user never gave)
    code, out, err = run_cli(["resources", "--big-n", str(10**16)])
    assert code == 0, err
    _, rows = parse_csv(out)
    assert all(float(r[3]) > 0.0 for r in rows)
    slopes = {r[0]: float(r[4]) for r in rows}
    assert abs(slopes["ensemble"] + 0.5) < 1e-12
    assert abs(slopes["ghz"] + 1.0) < 1e-12


def test_resources_keeps_a_floor_at_tiny_alpha():
    # alpha**2 / N underflows a double, yet the product floor ~2 alpha /
    # sqrt(M N) is a normal one; a floor that is itself 0 has no slope
    # and is refused with one line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["resources", "--alpha", "1e-170"])
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert all(float(r[3]) > 0.0 for r in rows)
    assert abs({r[0]: float(r[4]) for r in rows}["product"] + 0.5) <= 0.05
    code, out, err = run_cli(["resources", "--alpha", "5e-324"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
