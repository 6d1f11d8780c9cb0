"""In-memory spans around covertq's layer functions, recorded from outside.

``Tracer.installed()`` replaces each function in ``TRACED`` with a timing
wrapper in every ``covertq`` module namespace that binds it, so calls made
inside the package (``harness`` -> ``laws`` -> ``queueing``) are timed
without changing the package.  A span is (name, start, end, parent span,
run, trial); the trial id advances at each call of the workload's trial
opener.  Counts (packets, scan cells, feasible candidates, failed decodes,
infeasible observations) are taken at the same boundaries.  Everything stays
in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = (
    "queueing.simulate_channel",
    "queueing.poisson_arrivals",
    "laws.conditional_log_density_batch",
    "laws.info_density_sample",
    "laws.sample_info_densities",
    "codec.generate_codebook",
    "codec.encode",
    "codec.decode",
    "codec.random_coding_error_bounds",
    "warden.willie_llr",
    "warden.run_detection_trials",
    "harness.run",
    "harness.emit",
)

# spans whose own time (minus their traced children) is trial-loop overhead
LOOP_SPANS = ("harness.run", "laws.sample_info_densities", "warden.run_detection_trials")


def _scan_counts(args, out):
    n, candidates = args[0].shape
    return {"cells": n * candidates, "candidates": candidates,
            "feasible": int((out > -math.inf).sum())}


# name -> f(args, result) -> counts added to the run's totals for that name
COUNTERS = {
    "queueing.simulate_channel": lambda args, out: {"packets": len(args[0])},
    "laws.conditional_log_density_batch": _scan_counts,
    "laws.sample_info_densities": lambda args, out: {"trials": args[3]},
    "codec.decode": lambda args, out: {"failed": int(out.failed)},
    "warden.willie_llr": lambda args, out: {"infeasible": int(out == -math.inf)},
}


class Tracer:
    """Spans and counts of one traced measurement, grouped by run."""

    def __init__(self, trial_opener: str):
        self.trial_opener = trial_opener
        self.spans: list[list] = []  # [name, start, end, parent, run, trial]
        self.counts: dict[tuple[int, str], dict] = defaultdict(lambda: defaultdict(int))
        self.run = -1
        self.trial = -1
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def begin_run(self):
        self.run += 1
        self.trial = -1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        if name == self.trial_opener:
            self.trial += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run, self.trial])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                totals = self.counts[(self.run, name)]
                for key, value in counter(args, out).items():
                    totals[key] += value
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap the traced functions into every covertq namespace; undo on exit."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "covertq" or k.startswith("covertq.")]
        swapped = []
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"covertq.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swapped.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in swapped:
                setattr(module, attr, original)

    def write(self, path):
        """Write every span (times in ns from the tracer's start) and count."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round((s[1] - self._origin) * 1e9),
                 round((s[2] - s[1]) * 1e9), s[3], s[4], s[5]] for s in self.spans]
        counts = [{"run": r, "name": n, **c} for (r, n), c in sorted(self.counts.items())]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_ns", "duration_ns", "parent", "run", "trial"],
                       "spans": rows, "counts": counts}, fh, separators=(",", ":"))


def tail_percentile(samples: list[float]):
    """Highest of the usual percentiles with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than 20 samples no percentile
    qualifies, and the median is returned with its percentile 50.
    """
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            break
    k = min(len(ordered) - 1, max(0, math.ceil(p / 100.0 * len(ordered)) - 1))
    return p, ordered[k]


def layer_metrics(tracer: Tracer, walls: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced runs) and the details behind them.

    ``walls`` are the traced runs' wall times; the details give each traced
    function's busy time as a share of the median one.  Layers the workload
    never calls read 0.
    """
    runs = range(tracer.run + 1)
    durations = defaultdict(list)  # name -> every span duration
    busy = defaultdict(lambda: [0.0] * len(runs))  # name -> per-run busy time
    self_time = defaultdict(lambda: [0.0] * len(runs))
    calls = defaultdict(lambda: [0] * len(runs))
    child_time = defaultdict(float)
    for name, start, end, parent, run, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, run, _) in enumerate(tracer.spans):
        dt = end - start
        durations[name].append(dt)
        busy[name][run] += dt
        self_time[name][run] += dt - child_time[i]
        calls[name][run] += 1

    def med(values):
        return statistics.median(values) if values else 0.0

    def per_run(name, key):
        return [tracer.counts[(r, name)][key] for r in runs]

    def total(name, key):
        return sum(per_run(name, key))

    details = {"share_of_run": {name: med(busy[name]) / statistics.median(walls)
                                for name in TRACED if name in busy}}

    def timing(name):
        samples = durations.get(name, [])
        if not samples:
            return 0.0, 0.0
        p, value = tail_percentile(samples)
        details[name] = {"tail_percentile": p, "samples": len(samples),
                         "beyond_tail": sum(1 for s in samples if s > value)}
        return 1e3 * statistics.median(samples), 1e3 * value

    def per_unit(name, key, scale):
        work = total(name, key)
        return scale * sum(busy[name]) / work if work else 0.0

    scan = "laws.conditional_log_density_batch"
    scan_p50, scan_tail = timing(scan)
    scan_busy = sum(busy[scan])
    cells_per_s = total(scan, "cells") / scan_busy if scan_busy else 0.0
    candidates = total(scan, "candidates")
    scans = sum(calls[scan])
    details[scan] = dict(details.get(scan, {}),
                         working_set_bytes_per_scan=8 * total(scan, "cells") / scans if scans else 0,
                         gbps_computed="8*n*C bytes per scan over busy time; ignores cache misses")
    decode_p50, decode_tail = timing("codec.decode")
    llr_p50, llr_tail = timing("warden.willie_llr")
    details["self_s"] = "span duration minus its traced child spans (measured, not derived)"
    details["harness.loop_self_s"] = f"self time of {', '.join(LOOP_SPANS)}"

    metrics = {
        "queueing.simulate_channel.busy_s": (med(busy["queueing.simulate_channel"]), "s"),
        "queueing.simulate_channel.ns_per_packet":
            (per_unit("queueing.simulate_channel", "packets", 1e9), "ns"),
        "queueing.poisson_arrivals.busy_s": (med(busy["queueing.poisson_arrivals"]), "s"),
        f"{scan}.calls": (med(calls[scan]), "count"),
        f"{scan}.busy_s": (med(busy[scan]), "s"),
        f"{scan}.p50_ms": (scan_p50, "ms"),
        f"{scan}.tail_ms": (scan_tail, "ms"),
        f"{scan}.cells_per_s": (cells_per_s, "1/s"),
        f"{scan}.gbps_computed": (8.0 * cells_per_s / 1e9, "GB/s"),
        f"{scan}.feasible_frac":
            (total(scan, "feasible") / candidates if candidates else 0.0, "share"),
        "laws.info_density_sample.busy_s": (med(busy["laws.info_density_sample"]), "s"),
        "laws.sample_info_densities.us_per_trial":
            (per_unit("laws.sample_info_densities", "trials", 1e6), "us"),
        "codec.generate_codebook.s": (med(durations["codec.generate_codebook"]), "s"),
        "codec.decode.busy_s": (med(busy["codec.decode"]), "s"),
        "codec.decode.p50_ms": (decode_p50, "ms"),
        "codec.decode.tail_ms": (decode_tail, "ms"),
        "codec.decode.self_s": (med(self_time["codec.decode"]), "s"),
        "codec.decode.failed": (med(per_run("codec.decode", "failed")), "count"),
        "codec.encode.busy_s": (med(busy["codec.encode"]), "s"),
        "codec.random_coding_error_bounds.busy_s":
            (med(busy["codec.random_coding_error_bounds"]), "s"),
        "warden.willie_llr.busy_s": (med(busy["warden.willie_llr"]), "s"),
        "warden.willie_llr.p50_ms": (llr_p50, "ms"),
        "warden.willie_llr.tail_ms": (llr_tail, "ms"),
        "warden.willie_llr.self_s": (med(self_time["warden.willie_llr"]), "s"),
        "warden.willie_llr.infeasible":
            (med(per_run("warden.willie_llr", "infeasible")), "count"),
        "harness.config_s": (med(durations["harness.config"]), "s"),
        "harness.emit_s": (med(durations["harness.emit"]), "s"),
        "harness.loop_self_s":
            (med([sum(self_time[n][r] for n in LOOP_SPANS) for r in runs]), "s"),
    }
    return metrics, details
