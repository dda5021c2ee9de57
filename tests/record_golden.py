"""Record the golden output table that tests/test_golden.py holds the CLI to.

    PYTHONPATH=src python tests/record_golden.py

runs every argv in ARGVS through metrotrade.cli.main in process and
rewrites tests/golden_output.json with each argv's stdout sha256, stderr
text and exit code.  Re-record after a change that moves output bytes on
purpose: the diff of the table then names every argv that moved.

The table also records the numpy version and the CPU dispatch targets it
was taken under.  numpy's SIMD dispatch picks float64 arcsin and arctan2
code that rounds differently per target, which moves the bytes of the
few argvs that tests/test_golden.py names as dispatch-bound; those hold
only under the same targets, and every argv only under the same numpy.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from metrotrade.cli import main

TABLE = Path(__file__).resolve().parent / "golden_output.json"

ARGVS = [
    # the five CSV commands at their defaults, and one chart
    ["tradeoff"],
    ["inherent"],
    ["basis-sweep"],
    ["resources"],
    ["bias-mc"],
    ["tradeoff", "--format", "svg"],
    ["verify"],
    ["verify", "--seed", "3"],
    ["verify", "--corrupt", "reproducibility"],
    # the benchmark's workloads (perfbench/run.py) at fixed φ and seeds:
    # cold-start, grid-output (to stdout), then monte-carlo
    ["bias-mc", "--seed", "3"],
    ["basis-sweep", "--grid", "200", "--phi", "0.4"],
    ["inherent", "--n", "1000000", "--grid", "100000"],
    ["bias-mc", "--n", "10", "--trials", "2000000", "--phi", "0.9", "--seed", "7"],
    ["bias-mc", "--n", "10000000", "--trials", "1000", "--phi", "0.8", "--seed", "8"],
    # a CDF window longer than a chunk of trials, and a certain count (p = 1)
    ["bias-mc", "--n", "17179869184", "--trials", "1048576", "--phi", "1.5", "--seed", "11"],
    ["bias-mc", "--n", "4611686018427387904", "--phi", "1e-9", "--trials", "100"],
    # refusals, and which one is reported first
    ["bias-mc", "--trials", "10"],
    ["bias-mc", "--trials", "4294967297"],
    ["bias-mc", "--n", "9223372036854775808"],
    ["bias-mc", "--n", "9223372036854775808", "--trials", "4294967297"],
    ["bias-mc", "--phi", "4", "--trials", "10"],
    # resources off its defaults: a fractional k, an ensemble pool past
    # 2**53, floors where alpha**2 / n underflows, the chart; verify reseeded,
    # and at the largest seed, whose fisher points come from seed 0
    ["resources", "--k", "3.5", "--m-grid", "1,3,1000"],
    ["resources", "--alpha", "1e-200", "--big-n", "1000000000000000000"],
    ["resources", "--alpha", "1e-170", "--m-grid", "1,2,7,32"],
    ["resources", "--format", "svg"],
    ["verify", "--seed", "9"],
    ["verify", "--seed", "18446744073709551615"],
    # an n past a double, refused by a line that names its flag
    ["tradeoff", "--n", str(10**400)],
    ["inherent", "--n", str(10**400)],
    ["basis-sweep", "--n", str(10**400)],
    ["resources", "--big-n", str(10**400)],
    # inherent at two shots, nan below reach; a single-valued flag given a
    # list, and an unknown check, refused by argparse's own int and choices
    ["inherent", "--n", "2"],
    ["inherent", "--n", "100,"],
    ["verify", "--corrupt", "nosuch"],
]


def environment():
    """The numpy version and the CPU dispatch targets enabled on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__,
            "dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def run_argv(argv):
    """{"stdout_sha256", "stderr", "exit"} of cli.main(argv), run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue(), "exit": code}


def record():
    """The table for this host: its environment and one entry per argv."""
    return {**environment(),
            "outputs": [{"argv": argv, **run_argv(argv)} for argv in ARGVS]}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
                     encoding="utf-8")
    print(f"wrote {TABLE}")
