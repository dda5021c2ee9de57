"""Output bytes pinned from one change to the next.

Each argv in record_golden.ARGVS must give the stdout sha256, stderr text
and exit code recorded in golden_output.json.  A change that moves bytes
on purpose re-records the table with `python tests/record_golden.py`.
"""

import json

import pytest

from record_golden import ARGVS, TABLE, environment, run_argv


def test_cli_output_matches_the_golden_table():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    recorded = {"numpy": table["numpy"], "dispatch": table["dispatch"]}
    if recorded != environment():
        pytest.fail(f"golden table was taken under {recorded}, this host runs "
                    f"{environment()}; CPU dispatch and the numpy version move "
                    "float bits, so re-record it with tests/record_golden.py")
    assert [entry["argv"] for entry in table["outputs"]] == ARGVS
    moved = []
    for entry in table["outputs"]:
        got = run_argv(entry["argv"])
        if got != {key: entry[key] for key in got}:
            moved.append(f"{' '.join(entry['argv'])}: {got}")
    assert not moved, "output moved at:\n" + "\n".join(moved)
