"""One benchmark measurement in a fresh single-threaded process.

    python3 bench/child.py setup <workload> <seed>
    python3 bench/child.py run   <workload> <seed> <seconds> <out_dir>
    python3 bench/child.py trace <workload> <seed> <seconds> <out_dir>

``bench/run.py`` starts it with ``PYTHONPATH`` at the checkout's ``src``
and BLAS/OpenMP thread counts pinned to 1.  It prints one JSON object.

* ``setup`` times ``import covertq``, config validation and the workload's
  codebook generation, from a cold interpreter.
* ``run`` makes one untimed warm-up run at a second seed, then repeats
  config -> ``harness.run`` -> ``harness.emit`` at the workload seed for
  ``seconds``.  The gate checks every run.
* ``trace`` measures the same loop untraced and traced for half the time
  each, derives the per-layer metrics from the traced spans, times the
  standalone probes behind the ROADMAP baseline rows, and writes the spans.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from gate import check, load_reference
from tracing import Tracer, layer_metrics
from workloads import CHANNEL, SECOND_SEED_OFFSET, WORKLOADS, codebook_shape, config_dict

ROOT = Path(__file__).resolve().parent.parent

MIN_TIMED_RUNS = 3


def import_covertq():
    import covertq

    where = Path(covertq.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"bench: imported covertq from {where}, not from {ROOT / 'src'}")
    return covertq


def setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import_covertq()
    from covertq import codec, harness

    config = harness.ExperimentConfig.from_dict(config_dict(workload, seed, None))
    shape = codebook_shape(workload)
    if shape is not None:
        n, widths = shape
        codec.generate_codebook(n, *widths, arrival_rate=config.arrival_rate, seed=seed)
    return {"setup_s": time.perf_counter() - t0}


class Loop:
    """Config -> run -> emit for one workload, with the gate on its output."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        import_covertq()
        self.workload = workload
        self.seed = seed
        self.path = out_dir / "rows.csv"
        self.reference = load_reference()
        self.first: tuple[bytes, list[str]] | None = None  # bytes and gate verdict
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def once(self, seed: int | None = None, tracer=None) -> float:
        """One experiment run; returns its wall time and gates its rows.

        A run that raises counts as a failed run; the measurement goes on.
        """
        from covertq import harness

        seed = self.seed if seed is None else seed
        payload = config_dict(self.workload, seed, str(self.path))
        if tracer is not None:
            tracer.begin_run()
        t0 = time.perf_counter()
        try:
            with tracer.span("harness.config") if tracer else nullcontext():
                config = harness.ExperimentConfig.from_dict(payload)
            rows = harness.run(config)
            harness.emit(rows, config.output_path, config.output_format)
        except Exception as exc:  # the program failed this run: count it, keep measuring
            self._count([f"seed {seed}: {type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        self._count(self._gate(seed, self.path.read_bytes()))
        return wall

    def _gate(self, seed: int, data: bytes) -> list[str]:
        if seed == self.seed and self.first is not None:
            # a repeat at the same seed must give the same bytes, and shares their verdict
            first, problems = self.first
            return problems if data == first else [f"seed {seed}: repeat run gave other bytes"]
        problems = check(self.workload, seed, data, self.reference)
        if seed == self.seed:
            self.first = (data, problems)
        return problems

    def _count(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def timed(self, seconds: float, tracer=None) -> list[float]:
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
            walls.append(self.once(tracer=tracer))
        return walls

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    loop = Loop(workload, seed, out_dir)
    loop.once(seed=seed + SECOND_SEED_OFFSET)  # untimed warm-up, gated at the second seed
    walls = loop.timed(seconds)
    return {"walls": walls, "peak_rss_mb": peak_rss_mb(), "versions": versions(),
            **loop.summary()}


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(seed: int) -> dict:
    """Standalone timings at the sizes of the ROADMAP baseline table."""
    import numpy as np
    from covertq import harness, laws, queueing

    rng = np.random.default_rng(seed)
    gaps = rng.exponential(2.0, size=100_000)
    services = rng.exponential(1.0, size=100_000)
    bob = queueing.ServiceModel.exponential(CHANNEL["mu1"])
    lam = CHANNEL["arrival_rate"]
    n8_trials = 2000
    decode = harness.ExperimentConfig.from_dict(dict(
        CHANNEL, experiment="decode_sweep", n_list=[16], width_list=[[7, 1, 1]],
        trials=2000, master_seed=seed))
    return {
        "queueing.departure_epochs.ms_1e5":
            (1e3 * median_time(lambda: queueing.departure_epochs(gaps, services), 5), "ms"),
        "laws.sample_info_densities.us_per_trial_n8": (1e6 / n8_trials * median_time(
            lambda: laws.sample_info_densities(8, lam, bob, n8_trials, rng), 3), "us"),
        "harness.run.decode_n16_book2e9_s": (median_time(lambda: harness.run(decode), 3), "s"),
    }


def trace(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    loop = Loop(workload, seed, out_dir)
    loop.once(seed=seed + SECOND_SEED_OFFSET)
    untraced = loop.timed(seconds / 2)
    tracer = Tracer(WORKLOADS[workload]["trial_opener"])
    with tracer.installed():
        traced = loop.timed(seconds / 2, tracer=tracer)
    metrics, details = layer_metrics(tracer, traced)
    metrics["trace.overhead_frac"] = (sum(traced) / len(traced) * len(untraced) / sum(untraced)
                                      - 1.0, "share")
    metrics.update(probes(seed))
    tracer.write(out_dir / "spans.json")
    details["runs"] = {"untraced": len(untraced), "traced": len(traced)}
    return {"metrics": metrics, "details": details, "peak_rss_mb": peak_rss_mb(),
            "versions": versions(), **loop.summary()}


def main(argv: list[str]) -> dict:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        return setup(workload, seed)
    seconds, out_dir = float(argv[3]), Path(argv[4])
    return {"run": run, "trace": trace}[mode](workload, seed, seconds, out_dir)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
