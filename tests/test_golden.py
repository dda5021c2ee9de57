"""Output bytes pinned from one change to the next.

Each argv in record_golden.ARGVS must give the stdout sha256, stderr text
and exit code recorded in golden_output.json, on any host with the numpy
version the table was taken under; the few argvs whose bytes depend on
numpy's CPU dispatch are held only under the recorded dispatch targets.
A change that moves bytes on purpose re-records the table with
`python tests/record_golden.py`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metrotrade
from record_golden import ARGVS, TABLE, environment, run_argv


# Argvs whose bytes depend on numpy's CPU dispatch: float64 arcsin and
# arctan2 round differently under AVX-512, in inherent's step and in the
# arctan2 of bias-mc's phase estimate (sin, cos and sqrt do not).  With
# X86_V4 off only these move.
_DISPATCH_BOUND_ARGVS = [
    ["inherent"],
    ["bias-mc", "--n", "10000000", "--trials", "1000", "--phi", "0.8", "--seed", "8"],
    ["bias-mc", "--n", "17179869184", "--trials", "1048576", "--phi", "1.5", "--seed", "11"],
]
_DISPATCH_FREE_ARGVS = [argv for argv in ARGVS if argv not in _DISPATCH_BOUND_ARGVS]


def test_cli_output_matches_the_golden_table():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["numpy"] != environment()["numpy"]:
        pytest.fail(f"golden table was taken under numpy {table['numpy']}, this host "
                    f"runs {environment()['numpy']}; the numpy version moves float "
                    "bits, so re-record it with tests/record_golden.py")
    assert [entry["argv"] for entry in table["outputs"]] == ARGVS
    assert all(argv in ARGVS for argv in _DISPATCH_BOUND_ARGVS)
    held = ARGVS if table["dispatch"] == environment()["dispatch"] else _DISPATCH_FREE_ARGVS
    moved = []
    for entry in table["outputs"]:
        if entry["argv"] in held:
            got = run_argv(entry["argv"])
            if got != {key: entry[key] for key in got}:
                moved.append(f"{' '.join(entry['argv'])}: {got}")
    assert not moved, "output moved at:\n" + "\n".join(moved)


def _outputs_in_child(extra_env):
    """This host's dispatch targets and run_argv of each dispatch-free argv,
    from one child interpreter run with extra_env."""
    path = [str(Path(metrotrade.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra_env}
    script = ("import json, sys\n"
              "from record_golden import environment, run_argv\n"
              "print(json.dumps([environment()['dispatch'],\n"
              "                  [run_argv(argv) for argv in json.loads(sys.argv[1])]]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_DISPATCH_FREE_ARGVS)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif("X86_V4" not in environment()["dispatch"],
                    reason="needs AVX-512 (numpy's X86_V4 dispatch)")
def test_output_does_not_depend_on_cpu_dispatch():
    on_targets, on = _outputs_in_child({})
    off_targets, off = _outputs_in_child({"NPY_DISABLE_CPU_FEATURES": "X86_V4"})
    assert "X86_V4" in on_targets and "X86_V4" not in off_targets
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    # each argv runs or is refused as recorded, both ways
    assert [entry["exit"] for entry in on] == [entry["exit"] for entry in table["outputs"]
                                               if entry["argv"] in _DISPATCH_FREE_ARGVS]
    assert off == on
