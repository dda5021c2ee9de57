"""In-memory span tracing of metrotrade, installed from outside the package.

Each function is wrapped at the module attribute its caller looks up (the
CLI binds names with `from .x import y`, so `metrotrade.cli.basis_snr` is
patched, not `metrotrade.basis.basis_snr`).  A span is
[name, start, end, parent index]; spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
from collections import Counter, defaultdict
from time import perf_counter

_MISSING = object()
_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """`fn` recording a span per call; `after(args, result)` adds counts."""

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def replace(self, owner, attr, value):
        """Set `owner.attr` (or `owner[attr]`) to `value` until `unpatch`."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner).get(attr, _MISSING), False))
            setattr(owner, attr, value)

    def trace(self, owner, attr, name, after=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, after))

    def count(self, owner, attr, after):
        """Call `after(args, result)` on each call, without a span."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        self.replace(owner, attr, counted)

    def unpatch(self):
        for owner, attr, original, mapping in reversed(self._undo):
            if mapping:
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def reset(self):
        self.spans, self._stack = [], []
        self.counts.clear()

    def summary(self):
        """{name: [calls, total seconds, self seconds]} over the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - inner
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer, cli, verify, estimation):
    """Trace every layer boundary the CLI crosses, until `tracer.unpatch()`."""
    c = tracer.counts

    def csv_counts(args, text):
        c["cli.csv_rows"] += len(args[1])
        c["cli.csv_bytes"] += len(text.encode())

    def table_counts(args, counts):
        stats = args[0]
        p, n = stats.probabilities[0], stats.sample_budget
        if 0.0 < p < 1.0:
            c["sampling.cdf_entries"] += n + 1
            col = counts[:, 0]
            c["sampling.cdf_used"] += int(col.max() - col.min()) + 1

    def chart_counts(args, svg):
        c["svgchart.charts"] += 1
        c["svgchart.points"] += sum(len(s.xs) for panel in args[0] for s in panel.series)

    def emit_counts(args, code):
        if args[0].fmt != "csv":
            c["svgchart.written"] += 1

    tracer.trace(cli, "main", "cli.main")
    tracer.trace(cli, "build_parser", "cli.parse")
    tracer.trace(cli._Parser, "parse_args", "cli.parse")
    tracer.trace(cli.RunConfig, "validate", "cli.parse")
    for command in list(cli._COMMANDS):
        tracer.trace(cli._COMMANDS, command, "cli.compute")
    tracer.trace(cli, "_csv_text", "cli.format", csv_counts)
    tracer.trace(cli, "format_report", "cli.format")
    tracer.trace(cli, "_write_text", "cli.write")
    tracer.count(cli, "_emit", emit_counts)
    tracer.trace(cli, "basis_snr", "basis.basis_snr")
    tracer.trace(cli, "inherent_precision", "bounds.inherent_precision")
    tracer.trace(cli, "min_detectable_signal", "bounds.min_detectable_signal")
    tracer.trace(cli, "fit_scaling", "resources.fit_scaling")
    tracer.trace(cli, "exact_bias_report", "estimation.exact_bias_report")
    tracer.trace(cli, "monte_carlo_report", "estimation.monte_carlo_report")
    tracer.trace(estimation, "draw_count_matrix", "sampling.draw_count_matrix", table_counts)
    tracer.trace(cli, "render_chart", "svgchart.render_chart", chart_counts)
    tracer.trace(cli, "run_all", "verify.run_all")
    # run_all passes the seed only to checks it finds by identity among the
    # module's check_* globals, so those names must be the same wrappers.
    wrapped = []
    for name, fn, tol, bad_tol in verify._CHECKS:
        traced = tracer.wrap(f"verify.check.{name}", fn)
        for attr in [a for a, value in vars(verify).items() if value is fn]:
            tracer.replace(verify, attr, traced)
        wrapped.append((name, traced, tol, bad_tol))
    tracer.replace(verify, "_CHECKS", tuple(wrapped))


def layer_metrics(summary, counts, check_names):
    """Per-pass per-layer figures from one traced pass."""

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    entries = counts["sampling.cdf_entries"]
    rendered = counts["svgchart.charts"]
    out = {
        "cli.parse_s": total("cli.parse"),
        "cli.compute_self_s": self_time("cli.compute"),
        "cli.format_s": total("cli.format"),
        "cli.write_s": total("cli.write"),
        "cli.main_self_s": self_time("cli.main"),
        "cli.csv_rows": counts["cli.csv_rows"],
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "basis.basis_snr.calls": calls("basis.basis_snr"),
        "basis.basis_snr.s": total("basis.basis_snr"),
        "bounds.inherent_precision.calls": calls("bounds.inherent_precision"),
        "bounds.inherent_precision.s": total("bounds.inherent_precision"),
        "bounds.min_detectable_signal.calls": calls("bounds.min_detectable_signal"),
        "bounds.min_detectable_signal.s": total("bounds.min_detectable_signal"),
        "bounds.nan_rows": counts["bounds.inherent_precision.raised.UnreachableSignalError"],
        "resources.fit_scaling.s": total("resources.fit_scaling"),
        "verify.run_all.s": total("verify.run_all"),
        "sampling.draw_count_matrix.s": total("sampling.draw_count_matrix"),
        "sampling.cdf_entries": entries,
        "sampling.cdf_useful_frac": counts["sampling.cdf_used"] / entries if entries else 0.0,
        "estimation.monte_carlo_report.self_s": self_time("estimation.monte_carlo_report"),
        "estimation.exact_bias_report.s": total("estimation.exact_bias_report"),
        "svgchart.render_chart.s": total("svgchart.render_chart"),
        "svgchart.points": counts["svgchart.points"],
        "svgchart.discarded_frac":
            (rendered - counts["svgchart.written"]) / rendered if rendered else 0.0,
        "trace.accounted_s": sum(agg[2] for agg in summary.values()),
    }
    for name in check_names:
        out[f"verify.check.{name}.s"] = total(f"verify.check.{name}")
    return out


def _family(module, package):
    return module == package or module.startswith(package + ".")


def import_split(report):
    """Seconds per package from one `-X importtime` report.

    A package's time is the cumulative time of its outermost modules: those
    whose importer is outside the package.  Packages overlap (scipy.stats
    imports scipy.special and parts of numpy), so the figures do not add up.  (scipy loads `scipy.stats`
    lazily, so that package has no line of its own, only its submodules.)
    """
    rows = [(len(indent), module, int(self_us), int(cum_us))
            for self_us, cum_us, indent, module in _IMPORT_LINE.findall(report)]
    packages = ("metrotrade", "scipy.stats", "scipy.special", "numpy")
    cumulative = dict.fromkeys(packages, 0)
    own = 0
    stack = []  # importers of the current line; a module's line follows its imports
    for depth, module, self_us, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        importer = stack[-1][1] if stack else ""
        stack.append((depth, module))
        for package in packages:
            if _family(module, package) and not _family(importer, package):
                cumulative[package] += cum_us
        if _family(module, "metrotrade"):
            own += self_us
    return {"import.total_s": cumulative["metrotrade"] * 1e-6,
            "import.scipy_stats_s": cumulative["scipy.stats"] * 1e-6,
            "import.scipy_special_s": cumulative["scipy.special"] * 1e-6,
            "import.numpy_s": cumulative["numpy"] * 1e-6,
            "import.metrotrade_self_s": own * 1e-6}


def import_times(python, env, cwd, repeats):
    """Medians over `python -X importtime -c 'import metrotrade'` runs."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import metrotrade"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        for key, value in import_split(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}
