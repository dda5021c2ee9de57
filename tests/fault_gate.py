"""Run Tier-1 once per one-line kernel fault, each in a fresh copy of the
repository, and report which tests catch it.

    PYTHONPATH=src python3 tests/fault_gate.py [FAULT ...]

pytest does not collect this file (its name does not start with test_).
The faults are the eight of test_verify.KERNEL_FAULTS, each of which
verify must fail, and VERIFY_MISSES below, six that verify's checks pass
today (ROADMAP item 13) but other tests must still catch.  The tree is
first run unfaulted; a fault counts as caught by a test only if that test
passes on the clean copy.  For each fault the script prints how many
tests fail and which, and it exits 1 if some fault fails none.  Each run
is one Tier-1 pass: about 14 s on a 2-core host, so 15 runs for all.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from test_verify import KERNEL_FAULTS

ROOT = Path(__file__).resolve().parents[1]

# file under src/metrotrade, the exact source line, its faulty replacement
VERIFY_MISSES = {
    "inherent_step_scaled_1e-4": (
        "bounds.py",
        "    delta = 2.0 * np.arcsin((1.0 / n) / sine)\n",
        "    delta = 2.0 * np.arcsin((1.0 / n) / sine) * (1 + 1e-4)\n"),
    "inherent_step_scaled_1e-6": (
        "bounds.py",
        "    delta = 2.0 * np.arcsin((1.0 / n) / sine)\n",
        "    delta = 2.0 * np.arcsin((1.0 / n) / sine) * (1 + 1e-6)\n"),
    "accuracy_of_scaled_1e-4": (
        "bounds.py",
        "    return delta_phi * math.sqrt(n) / 2.0\n",
        "    return delta_phi * math.sqrt(n) / 2.0 * (1 + 1e-4)\n"),
    "draw_count_matrix_k_plus_1": (
        "sampling.py",
        "    k += lo\n",
        "    k += lo + 1\n"),
    "every_chunk_draws_trial_0": (
        "sampling.py",
        "                u = _substream_uniforms(seed, min(_MC_CHUNK, trials - first), first,\n",
        "                u = _substream_uniforms(seed, min(_MC_CHUNK, trials - first), 0,\n"),
    "ghz_fringe_m_to_1.01": (
        "resources.py",
        "        return m, one, n\n",
        "        return m**1.01, one, n\n"),
}

FAULTS = {**{name: fault[:3] for name, fault in KERNEL_FAULTS.items()}, **VERIFY_MISSES}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench")


def failing_tests(fault=None):
    """The ids of the Tier-1 tests that fail or error in a fresh copy of
    the repository, with fault (file, line, faulty line) applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        if fault is not None:
            filename, line, faulty = fault
            path = copy / "src" / "metrotrade" / filename
            source = path.read_text()
            if source.count(line) != 1:
                raise SystemExit(f"{filename}: the faulted line is not there once: {line!r}")
            path.write_text(source.replace(line, faulty))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True)
    # "FAILED <id> - <message>"; an id may hold spaces, as in [-inf-1-phi must be finite]
    return sorted({m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$",
                                                   proc.stdout, re.MULTILINE)})


def main(names):
    """Run the clean tree, then each fault named (all when none is)."""
    unknown = sorted(set(names) - set(FAULTS))
    if unknown:
        raise SystemExit(f"unknown faults: {', '.join(unknown)}")
    clean = set(failing_tests())
    print(f"clean tree: {len(clean)} failing", flush=True)
    for test in sorted(clean):
        print(f"    {test}")
    missed = []
    for name in names or FAULTS:
        caught = [test for test in failing_tests(FAULTS[name]) if test not in clean]
        print(f"{name}: {len(caught)} failing")
        for test in caught:
            print(f"    {test}")
        sys.stdout.flush()
        if not caught:
            missed.append(name)
    if missed:
        print(f"no test fails for: {', '.join(missed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
