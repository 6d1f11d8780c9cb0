"""Experiment harness: configuration, deterministic runs, result emission.

Determinism contract: every parameter point draws its randomness from
``SeedSequence([master_seed, experiment_code, param_index, 0])``, and its
codebook's seed from the same with ``_BOOK_STREAM`` in place of 0 — pure
value-derived entropy, never spawn order or worker identity.  Parallelism is
across parameter points and rows are merged in parameter order, so a run is
byte-identical for any worker count.

Numbers are emitted with 9 significant digits, in a fixed column order, as CSV
or JSON lines.  Every emitted value and stderr is finite: a point whose rates
push a statistic out of the float range raises ``ParameterError`` naming the
metric and the point, and no row of the run is returned.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import codec, laws, rates, warden
from .errors import ConfigError, OutputError, ParameterError, ResourceLimitError, StructuralError
from .queueing import (ServiceKind, ServiceModel, _check_count, _check_rate, _check_stable,
                       _queue, trial_blocks)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ResultRow",
    "run",
    "emit",
    "load_rows",
    "reproduce_metric",
    "service_to_dict",
    "service_from_dict",
]

EXPERIMENTS = ("region_table", "info_density", "decode_sweep", "detection_sweep")
_EXPERIMENT_CODE = {name: i for i, name in enumerate(EXPERIMENTS)}
_BOOK_STREAM = 1 << 20  # stream id reserved for codebook seeds
_FORMATS = ("csv", "jsonlines")
_MAX_BLOCK_BITS = 24  # n: a float64 (n,) array of one block is then at most 128 MB
_MAX_PACKETS_BITS = 32  # n x trials per parameter point


def service_to_dict(model: ServiceModel) -> dict:
    out = {"kind": model.kind.value, "rate": model.rate}
    if model.shape is not None:
        out["shape"] = int(model.shape)
    if model.halfwidth is not None:
        out["halfwidth"] = float(model.halfwidth)
    return out


def service_from_dict(payload: dict) -> ServiceModel:
    try:
        kind = ServiceKind(payload["kind"])
        rate = payload["rate"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad service law spec: {payload!r}") from exc
    try:  # the law's own rules, a field of the wrong type included
        return ServiceModel(kind=kind, rate=rate, shape=payload.get("shape"),
                            halfwidth=payload.get("halfwidth"))
    except ParameterError as exc:
        raise ConfigError(f"bad service law spec {payload!r}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: channel rates, sweep lists, trial budget, seed."""

    experiment: str
    arrival_rate: float
    mu1: float
    mu2: float
    willie_service: ServiceModel | None = None
    n_list: tuple[int, ...] = ()
    width_list: tuple[tuple[int, int, int], ...] = ()
    trials: int = 1000
    master_seed: int = 0
    output_path: str | None = None
    output_format: str = "csv"
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        try:  # the library's rules, reported as a config error
            _check_rate("arrival_rate", self.arrival_rate)
            # mu1, mu2 and the adversary's law: Exp(mu2) by default, else a law of rate mu2
            spec = rates.RegionSpec(self.mu1, self.mu2, self.willie_service)
            for name, least in (("trials", 1), ("master_seed", 0), ("workers", 1)):
                _check_count(name, getattr(self, name), least)
            if self.experiment == "detection_sweep" and self.trials < 2:
                raise ConfigError(f"detection_sweep needs trials >= 2, one score per hypothesis "
                                  f"has no spread; got {self.trials}")
            _check_stable(self.arrival_rate, min(self.mu1, self.mu2))
            for name in ("n_list", "width_list"):
                if not isinstance(getattr(self, name), (list, tuple)):
                    raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
            if not all(isinstance(w, (list, tuple)) and len(w) == 3 for w in self.width_list):
                raise ConfigError(f"width_list entries must be lists of 3 ints, "
                                  f"got {self.width_list!r}")
            n_list = tuple(_check_count("n_list entry", n, 1) for n in self.n_list)
            width_list = tuple(tuple(_check_count("width_list entry", b, 0) for b in w)
                               for w in self.width_list)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "willie_service", spec.willie_service)
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "width_list", width_list)
        if self.experiment in ("info_density", "decode_sweep", "detection_sweep") and not self.n_list:
            raise ConfigError(f"{self.experiment} needs a non-empty n_list")
        if self.experiment in ("decode_sweep", "detection_sweep") and not self.width_list:
            raise ConfigError(f"{self.experiment} needs a non-empty width_list")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if self.output_format not in _FORMATS:
            raise ConfigError(f"output_format must be one of {_FORMATS}")
        n = max(self.n_list, default=0) if self.experiment != "region_table" else 0
        if n > 1 << _MAX_BLOCK_BITS:
            raise ResourceLimitError(f"block length n={n} exceeds the budget of "
                                     f"2^{_MAX_BLOCK_BITS} packets per block")
        if n * self.trials > 1 << _MAX_PACKETS_BITS:
            raise ResourceLimitError(f"n={n} x trials={self.trials} packets exceeds the "
                                     f"budget of 2^{_MAX_PACKETS_BITS} per point")
        for bits in map(sum, self.width_list):
            # past the cap a decode_sweep point certifies bounds instead of enumerating
            if self.experiment == "detection_sweep" or (
                    self.experiment == "decode_sweep" and bits <= codec.CODEBOOK_CAP_BITS):
                codec._check_book_size(n, bits)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError(f"a config must be a dict, got {payload!r}")
        payload = dict(payload)
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(payload.get("willie_service"), dict):
            payload["willie_service"] = service_from_dict(payload["willie_service"])
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    @staticmethod
    def load_payload(path: str) -> dict:
        """Read a JSON config file into the dict ``from_dict`` takes."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return payload


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    metric: str
    params: dict
    value: float
    stderr: float
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "metric": self.metric,
            "params": dict(sorted(self.params.items())),
            "value": _round9(self.value),
            "stderr": _round9(self.stderr),
            "trials": self.trials,
            "seed": self.seed,
        }


def _round9(x: float) -> float:
    return float(f"{x:.9g}")  # inf and nan too: "inf" and "nan" parse back


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _point_rng(config: ExperimentConfig, param_index: int) -> np.random.Generator:
    code = _EXPERIMENT_CODE[config.experiment]
    return np.random.default_rng(np.random.SeedSequence([config.master_seed, code, param_index, 0]))


def _book_seed(config: ExperimentConfig, param_index: int) -> int:
    code = _EXPERIMENT_CODE[config.experiment]
    seq = np.random.SeedSequence([config.master_seed, code, param_index, _BOOK_STREAM])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _base_params(config: ExperimentConfig) -> dict:
    """The channel's rates and the warden's law: its kind, and its shape or
    half-width when it has one (its rate is mu2)."""
    law = service_to_dict(config.willie_service)
    del law["rate"]
    return {"arrival_rate": config.arrival_rate, "mu1": config.mu1, "mu2": config.mu2,
            **{f"willie_{name}": value for name, value in law.items()}}


def param_points(config: ExperimentConfig) -> list[dict]:
    """Enumerate the parameter points the experiment sweeps over."""
    if config.experiment == "region_table":
        return [{}]
    if config.experiment == "info_density":
        return [{"side": side, "n": n} for side in ("bob", "willie") for n in config.n_list]
    return [{"n": n, "bits_message": w[0], "bits_dummy": w[1], "bits_key": w[2]}
            for n in config.n_list for w in config.width_list]


def _row(config, metric, params, value, stderr, trials) -> ResultRow:
    return ResultRow(
        experiment=config.experiment,
        metric=metric,
        params=params,
        value=float(value),
        stderr=float(stderr),
        trials=int(trials),
        seed=config.master_seed,
    )


def _run_region_table(config: ExperimentConfig, param_index: int) -> list[ResultRow]:
    lam = config.arrival_rate
    spec = rates.RegionSpec(config.mu1, config.mu2, config.willie_service)
    base = _base_params(config)
    capacity = rates.covert_capacity(lam, config.mu1)
    key_rate = rates.min_key_rate(lam, spec)
    return [
        _row(config, "covert_capacity", base, capacity, 0.0, 1),
        _row(config, "min_key_rate", base, key_rate, 0.0, 1),
        _row(config, "willie_divergence", base, spec.willie_divergence(), 0.0, 1),
        _row(config, "no_key_needed", base, 1.0 if rates.no_key_needed(spec) else 0.0, 0.0, 1),
    ] + [  # the region's boundary on a message-rate grid: one key threshold at every R
        _row(config, "boundary_key_rate", dict(base, message_rate=capacity * j / 20.0),
             key_rate, 0.0, 1)
        for j in range(21)
    ]


def _run_info_density(config: ExperimentConfig, param_index: int) -> list[ResultRow]:
    point = param_points(config)[param_index]
    side, n = point["side"], point["n"]
    model = (
        ServiceModel.exponential(config.mu1) if side == "bob" else config.willie_service
    )
    rng = _point_rng(config, param_index)
    samples = laws.sample_info_densities(n, config.arrival_rate, model, config.trials, rng)
    finite = samples[np.isfinite(samples)]
    params = dict(_base_params(config), **point)
    t = config.trials
    if finite.size == 0:
        return [_row(config, "feasible_fraction", params, 0.0, 0.0, t)]
    std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
    p01, p99 = np.percentile(finite, [1.0, 99.0])
    return [
        _row(config, "mean_per_packet", params, finite.mean(), std / math.sqrt(finite.size), t),
        _row(config, "std_per_packet", params, std, 0.0, t),
        _row(config, "percentile_01", params, p01, 0.0, t),
        _row(config, "percentile_99", params, p99, 0.0, t),
        _row(config, "feasible_fraction", params, finite.size / samples.size, 0.0, t),
    ]


def _binomial_se(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _run_decode_sweep(config: ExperimentConfig, param_index: int) -> list[ResultRow]:
    point = param_points(config)[param_index]
    n = point["n"]
    widths = (point["bits_message"], point["bits_dummy"], point["bits_key"])
    params = dict(_base_params(config), **point)
    lam = config.arrival_rate
    bob = ServiceModel.exponential(config.mu1)
    rng = _point_rng(config, param_index)
    t = config.trials

    if sum(widths) > codec.CODEBOOK_CAP_BITS:
        # beyond the enumeration cap: certify the ML error instead of simulating
        samples = laws.sample_info_densities(n, lam, bob, t, rng)
        pair_bits = widths[0] + widths[1]
        bounds = codec.random_coding_error_bounds(
            samples, n, pair_bits, codec.mm1_log_output_ratio_bound(lam, config.mu1)
        )
        return [
            _row(config, "ml_error_upper_bound", params, bounds.upper,
                 _binomial_se(bounds.upper, t), t),
            _row(config, "ml_error_lower_bound", params, bounds.lower,
                 _binomial_se(bounds.lower, t), t),
        ]

    book = codec.generate_codebook(
        n, *widths, arrival_rate=lam, seed=_book_seed(config, param_index))
    message_errors = pair_errors = 0
    for block in trial_blocks(n, t):
        messages, dummies, keys, epochs = book.send(rng, block.stop - block.start)
        got_messages, got_dummies, _, _ = codec._decode(book, _queue(epochs, bob, rng), keys, bob)
        wrong = got_messages != messages
        message_errors += np.count_nonzero(wrong)
        pair_errors += np.count_nonzero(wrong | (got_dummies != dummies))
    p_msg, p_pair = message_errors / t, pair_errors / t
    return [
        _row(config, "message_error_rate", params, p_msg, _binomial_se(p_msg, t), t),
        _row(config, "pair_error_rate", params, p_pair, _binomial_se(p_pair, t), t),
    ]


def _run_detection_sweep(config: ExperimentConfig, param_index: int) -> list[ResultRow]:
    point = param_points(config)[param_index]
    n = point["n"]
    widths = (point["bits_message"], point["bits_dummy"], point["bits_key"])
    params = dict(_base_params(config), **point)
    rng = _point_rng(config, param_index)
    book = codec.generate_codebook(
        n, *widths, arrival_rate=config.arrival_rate, seed=_book_seed(config, param_index))
    null, alt = warden.run_detection_trials(book, config.willie_service, config.trials, rng)
    return [_row(config, metric, params, value, stderr, config.trials)
            for metric, (value, stderr) in warden.summarize_detection(null, alt).items()]


_RUNNERS = {
    "region_table": _run_region_table,
    "info_density": _run_info_density,
    "decode_sweep": _run_decode_sweep,
    "detection_sweep": _run_detection_sweep,
}


def _run_point(config: ExperimentConfig, param_index: int) -> list[ResultRow]:
    # an overflow's or a nan's warning would print before the diagnostic; a
    # row such a value reaches fails the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _RUNNERS[config.experiment](config, param_index)
    for row in rows:
        if not (math.isfinite(row.value) and math.isfinite(row.stderr)):
            raise ParameterError(
                f"{row.metric} at {config.experiment} point {row.params} is not finite "
                f"(value {row.value}, stderr {row.stderr}): the rates leave the float range "
                f"this statistic needs"
            )
    return rows


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the experiment and return rows in deterministic order."""
    indices = range(len(param_points(config)))
    workers = min(config.workers, len(indices))  # a pool forks all its workers at once
    if workers <= 1:
        chunks = [_run_point(config, i) for i in indices]
    else:
        # imported here: it costs every `import covertq` 15 ms otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_point, config, i) for i in indices]
            chunks = [f.result() for f in futures]  # merge in param order
    return [row for chunk in chunks for row in chunk]


def reproduce_metric(config: ExperimentConfig, row: ResultRow) -> float:
    """Re-run a single row's parameter point and return the same metric.

    The row's (experiment, params, trials, seed) fully determine the value;
    this is the reproducibility contract behind every emitted row.
    """
    config = replace(config, experiment=row.experiment, master_seed=row.seed,
                     trials=row.trials, workers=1)
    for i, point in enumerate(param_points(config)):
        merged = dict(_base_params(config), **point)
        if config.experiment == "region_table":
            match = {k: v for k, v in row.params.items() if k in merged} == merged
        else:
            match = merged == row.params
        if match:
            for candidate in _run_point(config, i):
                if candidate.metric == row.metric and candidate.params == row.params:
                    return candidate.value
    raise ConfigError(f"row does not correspond to a parameter point: {row}")


_COLUMNS = ("experiment", "metric", "params", "value", "stderr", "trials", "seed")


def emit(rows: list[ResultRow], path: str | None, output_format: str = "csv"):
    """Write rows to ``path``, or to stdout when it is None, as CSV or JSON
    lines (9 significant digits)."""
    if output_format not in _FORMATS:
        raise ConfigError(f"output_format must be one of {_FORMATS}")
    try:
        with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
            if output_format == "csv":
                writer = csv.writer(fh)
                writer.writerow(_COLUMNS)
                for row in rows:
                    writer.writerow([row.experiment, row.metric,
                                     json.dumps(row.params, sort_keys=True, separators=(",", ":")),
                                     _fmt9(row.value), _fmt9(row.stderr), row.trials, row.seed])
            else:
                for row in rows:
                    fh.write(json.dumps(row.to_dict(), separators=(",", ":")) + "\n")
            fh.flush()  # a closed stdout fails here, inside the try, not at exit
    except OSError as exc:
        where = "stdout" if path is None else path
        raise OutputError(f"cannot write results to {where}: {exc}") from exc


def _number(value, kind):
    """``kind(value)`` of a row's CSV text or JSON value; a bool, or a
    fraction where an int belongs, is refused rather than rounded."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)):
        raise TypeError(f"need {kind.__name__}, got {value!r}")
    return kind(value)


def load_rows(path: str, output_format: str = "csv") -> list[ResultRow]:
    """Parse rows previously written by ``emit``.  A line that is not such a
    row raises ``StructuralError`` naming the path and the line: a non-object
    ``params``, a bool number, a fraction where an integer belongs, a value
    or stderr that is not finite, ``trials`` < 1 or ``seed`` < 0."""
    if output_format not in _FORMATS:
        raise ConfigError(f"output_format must be one of {_FORMATS}")
    rows = []
    try:
        with open(path, newline="") as fh:
            if output_format == "csv":
                reader = csv.DictReader(fh)
                records = ((reader.line_num, record) for record in reader)
            else:
                records = ((number, line) for number, line in enumerate(fh, 1) if line.strip())
            for number, record in records:
                try:
                    if output_format == "jsonlines":
                        record = json.loads(record)
                    params = (json.loads(record["params"]) if output_format == "csv"
                              else record["params"])
                    if not isinstance(params, dict):
                        raise TypeError(f"params must be a JSON object, got {params!r}")
                    row = ResultRow(
                        experiment=record["experiment"], metric=record["metric"], params=params,
                        value=_number(record["value"], float),
                        stderr=_number(record["stderr"], float),
                        trials=_number(record["trials"], int), seed=_number(record["seed"], int))
                    if not (math.isfinite(row.value) and math.isfinite(row.stderr)
                            and row.trials >= 1 and row.seed >= 0):
                        raise ValueError(f"emit writes finite numbers, trials >= 1 and seed "
                                         f">= 0, got value {row.value}, stderr {row.stderr}, "
                                         f"trials {row.trials}, seed {row.seed}")
                    rows.append(row)
                except (KeyError, TypeError, ValueError) as exc:
                    raise StructuralError(f"{path} line {number} is not a result row: "
                                          f"{exc!r}") from exc
    except OSError as exc:
        raise OutputError(f"cannot read results from {path}: {exc}") from exc
    return rows
