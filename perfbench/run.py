"""Benchmark of the metrotrade CLI, run from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cold-start, grid-output, monte-carlo, or all (each in turn).  The
program is run from source: `src/` of the checkout this file sits in.

Each workload is a closed loop with one client.  A pass runs the
workload's commands in order.  A cold pass starts every command as a
fresh `python -m metrotrade` process; a warm pass calls
`metrotrade.cli.main(argv)` in this process after one discarded warm-up
pass.  Pass i takes its `--seed`/`--phi` values from (workload, seed, i),
so a seeded command never repeats its argv, except that cold pass i and
warm pass i share theirs and must print byte-identical output.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
    setup_s      median wall time of `import metrotrade` in a fresh interpreter
    pass_s       median wall time of a cold pass
    pass_s_tail  slowest cold pass of the run (too few passes fit in a run
                 for a percentile with ten samples beyond it)
    warm_s       median wall time of a warm pass
    peak_rss_mb  median over cold passes of the largest child max-RSS
The shared host's speed changes by up to half within seconds, so these
times are taken at a reference host speed: a fixed speed probe runs
before and after every import and invocation, and wall times are scaled
by the square root of the reference probe time over the mean probe time
(see HOST_ELASTICITY and measure).
Raw wall times are printed beside the results.
--trace 1 reports the per-layer metrics: a -X importtime split of the
import, and span self times and counts (per pass) from warm passes
traced by tracing.py, alternated with untraced ones to give the overhead.
The end-to-end figure each layer is expected to move:
    import.*                     setup_s everywhere, pass_s on cold-start, never warm_s
    cli.*, bounds.*, svgchart.*  warm_s and pass_s on grid-output
    basis.*                      the same; 0 on the other workloads
    resources.*, verify.*        warm_s on cold-start
    sampling.*                   warm_s, peak_rss_mb on monte-carlo (table-heavy command)
    estimation.*                 warm_s, peak_rss_mb on monte-carlo (trial-heavy command)
    host.*, trace.*              none: host speed, tracing overhead and span coverage

Every invocation's output is checked against references in checks.py;
a failed check or a non-zero exit counts in `failed` and in failed_frac.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
WORKLOADS = ("cold-start", "grid-output", "monte-carlo")
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
# Extra warm passes per iteration until warm time reaches this share of
# the cold pass, so cheap warm passes (cold-start) get enough samples.
WARM_SHARE = 0.25
CHILD_TIMEOUT_S = 150.0
# The reference host speed is the one at which speed_probe() takes this
# long (about its time on a 2-CPU x86-64 VM with Python 3.11 when the host
# is fast).  CPU time slows with wall time on a shared host, so it cannot
# replace the probe.
PROBE_REF_S = 0.015
# Wall times are scaled by (PROBE_REF_S / probe time) ** HOST_ELASTICITY.
# On a shared 2-CPU host the log of a pass's time moved 0.5-0.8 times as
# much as the log of the probe time beside it; memory-bound work (the 1e7
# CDF table) moves least, so full scaling (1) added spread there.
HOST_ELASTICITY = 0.5
# Per-pass counts of work that must not depend on the seed.
WORK_COUNTS = ("cli.csv_rows", "basis.basis_snr.calls", "bounds.inherent_precision.calls",
               "bounds.min_detectable_signal.calls", "bounds.nan_rows",
               "sampling.cdf_entries", "svgchart.points")


def workload_argvs(workload, seed, index):
    """Command lines of pass `index`; the amount of work is seed-independent."""
    rnd = random.Random(f"{workload}/{seed}/{index}")

    def phi(lo, hi):
        return repr(rnd.uniform(lo, hi))

    def sub_seed():
        return str(rnd.getrandbits(63))

    if workload == "cold-start":
        return [["tradeoff"], ["inherent"], ["resources"],
                ["bias-mc", "--seed", sub_seed()], ["verify", "--seed", sub_seed()]]
    if workload == "grid-output":
        return [["basis-sweep", "--grid", "200", "--phi", phi(0.2, 0.6),
                 "--out", ".perfbench/basis.csv"],
                ["inherent", "--n", "1000000", "--grid", "100000",
                 "--out", ".perfbench/inherent.csv"]]
    return [["bias-mc", "--n", "10", "--trials", "2000000", "--phi", phi(0.6, 1.2),
             "--seed", sub_seed()],
            ["bias-mc", "--n", "10000000", "--trials", "1000", "--phi", phi(0.6, 1.2),
             "--seed", sub_seed()]]


@dataclass
class Invocation:
    argv: list
    wall: float
    code: object
    output: bytes
    stderr: str
    rss_mb: float = 0.0

    def error(self):
        """Why this invocation failed, or None."""
        if self.code != 0:
            return f"{self.argv[0]}: exit {self.code}: {self.stderr.strip()[-300:]!r}"
        return checks.check(self.argv, self.output)


def _out_path(argv):
    return ROOT / argv[argv.index("--out") + 1] if "--out" in argv else None


def _output(argv, stdout):
    out = _out_path(argv)
    return out.read_bytes() if out and out.exists() else stdout


def run_cold(argv, k):
    """One fresh `python -m metrotrade` process, timed and reaped with wait4."""
    out = _out_path(argv)
    if out:
        out.unlink(missing_ok=True)
    stdout_path, stderr_path = WORK / f"stdout-{k}", WORK / "stderr"
    with open(stdout_path, "wb") as fout, open(stderr_path, "wb") as ferr:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "metrotrade", *argv],
                                stdout=fout, stderr=ferr, cwd=ROOT, env=ENV)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(argv, wall, proc.returncode, _output(argv, stdout_path.read_bytes()),
                      stderr_path.read_text(errors="replace"), usage.ru_maxrss / 1024.0)


class _Sink(io.StringIO):
    """stdout stand-in; a subclass so that `write` can be traced per instance."""


def run_warm(cli, argv, tracer=None):
    """One in-process `metrotrade.cli.main(argv)` call with stdout captured."""
    out = _out_path(argv)
    if out:
        out.unlink(missing_ok=True)
    sink, err = _Sink(), io.StringIO()
    if tracer is not None:
        sink.write = tracer.wrap("cli.write", sink.write)
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed invocation, not the end of the run
            code = "exception"
            err.write(repr(exc))
    wall = perf_counter() - start
    return Invocation(argv, wall, code, _output(argv, sink.getvalue().encode()), err.getvalue())


def calibrate():
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def speed_probe():
    """Seconds for a fixed mix of interpreted arithmetic and float formatting."""
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    ",".join(f"{x:.17g}" for x in range(15_000))
    return perf_counter() - start


def probed(calls, probes, wall_of=lambda result: result.wall):
    """Make each call with a speed probe before, between and after them.

    Appends the probe times to `probes`.  Gives the results, their wall
    times, and their wall times scaled to the reference host speed by the
    probes on either side.
    """
    probes.append(speed_probe())
    results, walls, scaled = [], [], []
    for call in calls:
        results.append(call())
        probes.append(speed_probe())
        walls.append(wall_of(results[-1]))
        scaled.append(walls[-1] * to_reference(probes[-2:]))
    return results, walls, scaled


def to_reference(probes):
    """Factor from wall time to reference host speed over a span with these probes."""
    return (PROBE_REF_S / statistics.fmean(probes)) ** HOST_ELASTICITY


def time_import():
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import metrotrade"], cwd=ROOT, env=ENV,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def _another(start, done, seconds):
    """Whether to start another iteration; a run ends within half of one of `seconds`."""
    elapsed = perf_counter() - start
    return done == 0 or elapsed + 0.5 * elapsed / done < seconds


class Run:
    """Invocation outcomes of one run of one workload."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.index = itertools.count()
        self.invocations = 0
        self.failures = []
        self._verdicts = {}

    def argvs(self):
        return workload_argvs(self.workload, self.seed, next(self.index))

    def record(self, results, expected=None):
        """Count and check invocations, and compare them with `expected` outputs.

        Identical argv and output share one verdict, so a warm invocation
        that repeats its cold twin byte for byte is not parsed twice.
        """
        for i, r in enumerate(results):
            key = (tuple(r.argv), r.code, hashlib.sha256(r.output).digest())
            if key not in self._verdicts:
                self._verdicts[key] = r.error()
            error = self._verdicts[key]
            if error is None and expected is not None and r.output != expected[i]:
                error = f"{r.argv[0]}: cold and warm output differ"
            self.invocations += 1
            if error:
                self.failures.append(error)
        return results

    def warm_pass(self, cli, argvs, tracer=None, expected=None):
        results = self.record([run_warm(cli, argv, tracer) for argv in argvs], expected)
        return sum(r.wall for r in results)


def measure(cli, run, seconds):
    """End-to-end metrics of one workload (tracing off), at reference host speed.

    A warm invocation is short, so the probes on either side of it scale
    it.  A cold invocation lasts seconds, longer than the host keeps one
    speed, so cold passes are scaled by the mean of every probe of the
    timed phase, and imports by the mean probe of the set-up phase.
    """
    setup_probes, probes = [], []
    _, setup, _ = probed([time_import] * SETUP_IMPORTS, setup_probes, wall_of=float)
    run.warm_pass(cli, run.argvs())
    cold_walls, warm_walls, warm_raw, rss = [], [], [], []

    def timed_pass(argvs, cold, expected=None):
        results, raw, scaled = probed(
            [functools.partial(run_cold, argv, k) if cold else functools.partial(run_warm, cli, argv)
             for k, argv in enumerate(argvs)], probes)
        if cold:
            cold_walls.append(sum(raw))
        else:
            warm_walls.append(sum(scaled))
            warm_raw.append(sum(raw))
        return run.record(results, expected)

    start = perf_counter()
    while _another(start, len(cold_walls), seconds):
        argvs = run.argvs()
        cold = timed_pass(argvs, True)
        rss.append(max(r.rss_mb for r in cold))
        timed_pass(argvs, False, expected=[r.output for r in cold])
        spent = warm_raw[-1]
        while spent < WARM_SHARE * cold_walls[-1]:
            timed_pass(run.argvs(), False)
            spent += warm_raw[-1]
    raw = {"setup_s": statistics.median(setup), "pass_s": statistics.median(cold_walls),
           "pass_s_tail": max(cold_walls), "warm_s": statistics.median(warm_raw)}
    metrics = {"setup_s": raw["setup_s"] * to_reference(setup_probes),
               "pass_s": raw["pass_s"] * to_reference(probes),
               "pass_s_tail": raw["pass_s_tail"] * to_reference(probes),
               "warm_s": statistics.median(warm_walls),
               "peak_rss_mb": statistics.median(rss)}
    print("  raw wall: " + ", ".join(f"{name} {value:.4f} s" for name, value in raw.items())
          + f"; mean probe {statistics.fmean(setup_probes):.4f} s (set-up), "
          f"{statistics.fmean(probes):.4f} s (passes), reference {PROBE_REF_S} s")
    samples = {"setup_s": len(setup), "pass_s": len(cold_walls),
               "pass_s_tail": len(cold_walls), "warm_s": len(warm_walls),
               "peak_rss_mb": len(rss)}
    return metrics, samples


def measure_layers(cli, run, seconds):
    """Per-layer metrics of one workload from alternating traced warm passes."""
    import metrotrade.estimation
    import metrotrade.verify

    metrics = tracing.import_times(sys.executable, ENV, ROOT, IMPORTTIME_RUNS)
    run.warm_pass(cli, run.argvs())
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    start = perf_counter()
    while _another(start, len(traced), seconds):
        plain.append(run.warm_pass(cli, run.argvs()))
        tracer.reset()
        tracing.install(tracer, cli, metrotrade.verify, metrotrade.estimation)
        try:
            traced.append(run.warm_pass(cli, run.argvs(), tracer))
        finally:
            tracer.unpatch()
        layers.append(tracing.layer_metrics(tracer.summary(), tracer.counts,
                                            metrotrade.verify.CHECK_NAMES))
    tracer.dump(WORK / f"spans-{run.workload}.jsonl")
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.warm_s"] = statistics.median(plain)
    metrics["trace.traced_warm_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_warm_s"] - metrics["trace.warm_s"]
    repeat = all(layer[name] == layers[0][name] for layer in layers for name in WORK_COUNTS)
    samples = {name: IMPORTTIME_RUNS if name.startswith("import.") else len(layers)
               for name in metrics}
    print(f"  traced passes {len(traced)}, untraced {len(plain)}; "
          f"counts repeat exactly across traced passes: {repeat}; spans account for "
          f"{metrics['trace.accounted_s']:.4f} s of a warm pass that takes "
          f"{metrics['trace.warm_s']:.4f} s untraced (overhead {metrics['trace.overhead_s']:.4f} s)")
    return metrics, samples


def _environment():
    versions = " ".join(f"{pkg}={importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} {versions}")


def run_workload(cli, workload, seed, seconds, traced, spec):
    run = Run(workload, seed)
    calib_start = calibrate()
    values, samples = (measure_layers if traced else measure)(cli, run, seconds)
    calib_end = calibrate()
    values["host.calib_s"], values["host.calib_end_s"] = calib_start, calib_end
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {int(traced)}: {_environment()} "
          f"host.calib_s start={calib_start:.4f} end={calib_end:.4f}")
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        n = samples.get(m["name"])
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<6}"
              + (f" (n={n})" if n else ""))
    failed = len(run.failures)
    print(f"  {'failed_frac':<40} {failed / run.invocations:>14.6g} 1      "
          f"({failed} of {run.invocations} invocations)")
    for reason in dict.fromkeys(run.failures):
        print(f"  FAILED CHECK: {reason}")
    print(f"  output checks: {'all passed' if not failed else 'FAILURES above'}")
    return {"correct": not failed, "attempted": run.invocations, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "metrotrade" / "__init__.py").is_file():
        sys.exit(f"error: no metrotrade sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from metrotrade import cli

    WORK.mkdir(exist_ok=True)
    try:
        results = {w: run_workload(cli, w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in (WORKLOADS if args.workload == "all" else (args.workload,))}
    finally:
        for path in WORK.iterdir():
            if not path.name.startswith("spans-"):
                path.unlink() if path.is_file() else shutil.rmtree(path)
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
