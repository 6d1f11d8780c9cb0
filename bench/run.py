"""covertq benchmark: one workload, one seed, one run length.

    python3 bench/run.py --workload detect_wide --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The program is taken from the checkout's
``src`` (a pure-Python package: nothing to build).  Each measurement runs in
a fresh child process (``bench/child.py``) with BLAS/OpenMP thread counts
pinned to 1.

With ``--trace 0`` it reports the end-to-end metrics: ``trials_per_s``
(configured trials x parameter points x runs, over the summed wall time of
config -> ``harness.run`` -> ``harness.emit``), ``setup_s`` (median over
``SETUP_REPEATS`` cold processes of ``import covertq``, config validation
and codebook generation) and ``peak_rss_mb`` (the measuring process).
With ``--trace 1`` it reports the per-layer metrics from a traced run.
Every experiment run is checked by ``bench/gate.py``; ``failed`` counts the
runs that fail it and ``correct`` is true only when none does.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (environment, raw timings, gate problems, tail details) goes to
``bench/out/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, work_per_run

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
DEADLINE_S = 170  # the whole invocation, children included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``bench/child.py`` to completion and parse its JSON output.

    A child still running at ``deadline`` (a ``time.monotonic`` value) is
    killed and waited for.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), *args]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: no result within {DEADLINE_S} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Hash of the package sources, which identifies the code outside git too."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_description() -> dict:
    """CPU model and cache sizes where the kernel exposes them."""
    out = {"model": platform.processor() or None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                out["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            out["caches"][f"L{level} {kind}"] = size
    except OSError:
        pass
    return out


def environment(src: Path, versions: dict) -> dict:
    """Where the numbers came from; ``versions`` are those the child imported."""
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(src / "covertq"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_description(),
        **versions,
        "threads_pinned": dict.fromkeys(THREAD_VARS, "1"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
            env: dict) -> dict:
    """Run the children of one measurement; returns the record."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        payload = child(["trace", workload, str(seed), str(seconds), str(out_dir)], env,
                        deadline)
        metrics = payload.pop("metrics")
    else:
        setups = [child(["setup", workload, str(seed)], env, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        payload = child(["run", workload, str(seed), str(seconds), str(out_dir)], env,
                        deadline)
        walls = payload["walls"]
        metrics = {
            "trials_per_s": (work_per_run(workload) * len(walls) / sum(walls), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (payload["peak_rss_mb"], "MB"),
        }
        payload["setup_s_samples"] = setups
        payload["wall_s_quartiles"] = statistics.quantiles(walls, n=4)
    payload["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="covertq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=24.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "covertq" / "__init__.py").is_file():
        print(f"bench: no covertq package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    out_dir = ROOT / "bench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src),
               **dict.fromkeys(THREAD_VARS, "1"))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir, env)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(src, record.pop("versions")))
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    attempted, failed = record["attempted"], record["failed"]
    env_line = {k: record["environment"][k] for k in ("git_sha", "nproc", "python", "numpy",
                                                       "scipy")}
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"{json.dumps(env_line)}")
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} share ({failed} of {attempted} runs)")
    for problem in record["problems"]:
        print(f"  gate: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
