"""Configs of every JSON shape map to a config or a documented error.

``ExperimentConfig.from_dict`` returns a config or raises a ``CovertqError``;
the CLI turns any config file, of any of the four experiments, into a
documented exit code (0 or 2-7) with at most one JSON diagnostic line on
stderr, never a traceback, and never a numpy warning, even on rates near the
ends of the float range.  The config's size budget is what lets the fuzz run
the sweeps: a huge ``n_list`` entry or ``trials`` count is refused when the
config loads, before anything is allocated.
Each field is drawn from values of its own kind and from arbitrary JSON values:
null, bools, integers too large for a float, +-inf, NaN, strings, lists and
objects.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covertq.cli import main as cli_main
from covertq.errors import CovertqError
from covertq.harness import EXPERIMENTS, ExperimentConfig

BIG = st.integers(min_value=2**53, max_value=2**1000)  # beyond int64, inside the float range
HUGE = st.integers(min_value=10**308, max_value=10**400)  # no finite float holds these
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), BIG, HUGE, HUGE.map(lambda v: -v),
    st.floats(), st.text(max_size=4),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=2),
)
RATES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
KINDS = st.sampled_from(["exponential", "erlang", "uniform", "deterministic"])

SWEEP_LISTS = {
    "n_list": st.lists(st.integers(1, 50), min_size=1, max_size=3),
    "width_list": st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1,
                           max_size=2),
}
OPTIONAL = {
    "n_list": st.lists(st.integers(1, 50), max_size=3),
    "width_list": st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), max_size=2),
    "trials": st.integers(1, 1000),
    "master_seed": st.integers(0, 2**64),
    "workers": st.integers(1, 4),
    "output_format": st.sampled_from(["csv", "jsonlines"]),
}


def field(draw, own, junk=5):
    """A value of the field's own kind, or one time in ``junk`` any JSON value."""
    return draw(JSON_VALUES) if draw(st.integers(0, junk - 1)) == 0 else draw(own)


@st.composite
def service_laws(draw, mu2, junk=5):
    kind = field(draw, KINDS, junk)
    rate = field(draw, st.sampled_from([mu2]) | RATES, junk)
    law = {"kind": kind, "rate": rate}
    if kind == "erlang" or draw(st.integers(0, 4)) == 0:
        law["shape"] = field(draw, st.integers(1, 10) | BIG | HUGE, junk)
    if kind == "uniform" or draw(st.integers(0, 4)) == 0:
        top = 1.0 / rate if isinstance(rate, float) and rate > 0.0 else 1.0
        law["halfwidth"] = field(draw, st.floats(0.0, top), junk)
    return law


@st.composite
def payloads(draw, experiment=None, output_path=True, runs=False):
    """A config dict: each field mostly of its own kind, else any JSON value.

    ``experiment`` is the strategy of that field's own kind.  With ``runs``
    most configs reach a run: a field is any JSON value one time in 50, not
    one in 5, ``n_list`` and ``width_list`` are never empty, and ``trials``
    is at most 6.  The three rates are drawn in increasing order (arrivals
    slowest, so the queues are stable) and then shuffled one time in three.
    """
    junk = 50 if runs else 5
    payload = {"experiment": draw(experiment) if experiment is not None
               else field(draw, st.sampled_from(EXPERIMENTS))}
    rates = sorted(draw(st.lists(RATES, min_size=3, max_size=3)))
    if draw(st.integers(0, 2)) == 0:
        rates = draw(st.permutations(rates))
    for name, rate in zip(("arrival_rate", "mu1", "mu2"), draw(st.sampled_from(
            [rates, [rates[0], rates[2], rates[1]]]))):
        payload[name] = field(draw, st.just(rate), junk)
    if draw(st.booleans()):
        payload["willie_service"] = field(draw, service_laws(payload["mu2"], junk), junk)
    for name, own in (dict(OPTIONAL, trials=st.integers(1, 6)) if runs else OPTIONAL).items():
        if runs and name in SWEEP_LISTS:
            payload[name] = draw(SWEEP_LISTS[name])
        elif draw(st.booleans()):
            payload[name] = field(draw, own, junk)
    if output_path and draw(st.booleans()):
        payload["output_path"] = field(draw, st.text(max_size=4))
    return payload


@given(payload=payloads())
@settings(max_examples=400, deadline=None)
def test_from_dict_returns_a_config_or_a_covertq_error(payload):
    try:
        config = ExperimentConfig.from_dict(payload)
    except CovertqError:
        return
    assert isinstance(config, ExperimentConfig)


def run_cli(payload, *flags):
    """Exit code and stdout lines of ``covertq --config``, after checking its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["--config", path, *flags])
    assert code in (0, 2, 3, 4, 5, 6, 7)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error_category", "message"}
    return code, out.getvalue().splitlines()


@given(payload=payloads(experiment=st.just("region_table"), output_path=False))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_maps_every_region_table_config_to_an_exit_code(payload):
    code, rows = run_cli(payload)
    if code == 0:
        assert len(rows) == 25


@given(payload=payloads(experiment=st.sampled_from(EXPERIMENTS), output_path=False, runs=True))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_maps_every_config_to_an_exit_code(payload):
    # one worker: a process pool per example would cost more than the runs.
    # Rates near the ends of the float range overflow in numpy, which must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rows = run_cli(payload, "--workers", "1")
    if code == 0:
        assert rows and all(json.loads(row)["experiment"] == payload["experiment"]
                            for row in rows)
