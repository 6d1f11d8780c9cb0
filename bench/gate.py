"""Correctness gate for the rows one benchmark run emits.

A run's CSV passes when

* it has the harness's fixed columns, the reference's rows in the same
  order, finite values and standard errors, and the configured trials and
  seed in every row;
* every value lies within ``Z_TOL`` standard errors of the reference mean in
  ``reference.json``.  The standard error of a row is the larger of the row's
  own ``stderr`` and the spread of that row across the reference seeds.  The
  spread is the Monte Carlo error of the estimate, which a change of RNG
  stream layout leaves alone, where a pinned per-seed value would not
  survive it.  The row's own ``stderr`` covers heavy-tailed means over few
  trials (the warden's llr), where one outlying trial moves the mean and its
  standard error together.  Rows that are exact at every reference seed
  (such as a feasible fraction of 1) must match to ``EXACT_TOL``;
* the certified-bound rows, whose ``stderr`` column is not a standard error
  of the bound, lie within the absolute ``BOUND_ABS_TOL`` of the reference
  mean instead, and ``ml_error_lower_bound <= ml_error_upper_bound``.

Byte identity of a repeat at the same seed is checked by the caller, which
holds both runs.

Re-record the reference (about two minutes, single-threaded) with

    PYTHONPATH=src python3 bench/gate.py --record
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS, config_dict

REFERENCE = Path(__file__).with_name("reference.json")
COLUMNS = ["experiment", "metric", "params", "value", "stderr", "trials", "seed"]
Z_TOL = 6.0
EXACT_TOL = 1e-9
BOUND_ABS_TOL = 0.12  # about 6 standard deviations of either bound at 300 trials
BOUND_ROWS = ("ml_error_upper_bound", "ml_error_lower_bound")
# reference seeds are disjoint from the pinned workload seed and its partner
REFERENCE_SEEDS = {"detect_wide": range(1, 21)}
DEFAULT_REFERENCE_SEEDS = range(1, 31)


def parse_rows(data: bytes) -> list[dict]:
    """Rows of an emitted CSV, with the header checked."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    header = next(reader, None)
    if header != COLUMNS:
        raise ValueError(f"columns {header} are not {COLUMNS}")
    rows = []
    for record in reader:
        if len(record) != len(COLUMNS):
            raise ValueError(f"row has {len(record)} fields: {record}")
        row = dict(zip(COLUMNS, record))
        row["key"] = f"{row['metric']} {row['params']}"
        for name in ("value", "stderr"):
            row[name] = float(row[name])
        for name in ("trials", "seed"):
            row[name] = int(row[name])
        rows.append(row)
    return rows


def check(workload: str, seed: int, data: bytes, reference: dict) -> list[str]:
    """Problems found in one run's CSV bytes; empty when the run is correct."""
    try:
        rows = parse_rows(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable rows: {exc}"]
    expected = reference["workloads"][workload]["rows"]
    keys = [r["key"] for r in rows]
    if keys != [r["key"] for r in expected]:
        return [f"rows {keys} differ from the reference rows"]
    trials = WORKLOADS[workload]["config"]["trials"]
    problems = []
    for row, ref in zip(rows, expected):
        where = f"{row['key']} = {row['value']!r}"
        if not (math.isfinite(row["value"]) and math.isfinite(row["stderr"])):
            problems.append(f"{where}: not finite (stderr {row['stderr']!r})")
            continue
        if row["trials"] != trials or row["seed"] != seed:
            problems.append(f"{where}: trials {row['trials']} / seed {row['seed']} "
                            f"instead of {trials} / {seed}")
        if row["metric"] in BOUND_ROWS:
            tol = BOUND_ABS_TOL
        else:
            se = max(row["stderr"], ref["sd"])
            tol = Z_TOL * se if se > 0 else EXACT_TOL
        if abs(row["value"] - ref["mean"]) > tol:
            problems.append(f"{where}: outside {ref['mean']:.6g} +/- {tol:.3g}")
    values = {r["metric"]: r["value"] for r in rows}
    if set(BOUND_ROWS) <= set(values) and values[BOUND_ROWS[1]] > values[BOUND_ROWS[0]]:
        problems.append(f"lower bound {values[BOUND_ROWS[1]]} > upper {values[BOUND_ROWS[0]]}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def record() -> dict:
    """Run every workload at the reference seeds and summarise each row."""
    from covertq import harness

    out = {"workloads": {}}
    scratch = Path(__file__).with_name("out")
    scratch.mkdir(exist_ok=True)
    path = str(scratch / "reference-rows.csv")
    for name in WORKLOADS:
        seeds = list(REFERENCE_SEEDS.get(name, DEFAULT_REFERENCE_SEEDS))
        samples = []
        for seed in seeds:
            config = harness.ExperimentConfig.from_dict(config_dict(name, seed, path))
            harness.emit(harness.run(config), path, config.output_format)
            samples.append(parse_rows(Path(path).read_bytes()))
            print(f"{name} seed {seed}", file=sys.stderr)
        rows = []
        for i, first in enumerate(samples[0]):
            values = [s[i]["value"] for s in samples]
            rows.append({"key": first["key"], "mean": statistics.fmean(values),
                         "sd": statistics.stdev(values),
                         "min": min(values), "max": max(values)})
        out["workloads"][name] = {"seeds": [seeds[0], seeds[-1]], "rows": rows}
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    if parser.parse_args().record:
        payload = record()
        REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
