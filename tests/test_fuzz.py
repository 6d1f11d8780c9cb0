"""Configs of every JSON shape map to a config or a documented error.

``ExperimentConfig.from_dict`` returns a config or raises a ``CovertqError``;
the CLI turns any ``region_table`` config file into a documented exit code
(0 or 2-7) with at most one JSON diagnostic line on stderr, never a traceback.
Each field is drawn from values of its own kind and from arbitrary JSON values:
null, bools, integers too large for a float, +-inf, NaN, strings, lists and
objects.
"""

import contextlib
import io
import json
import os
import tempfile

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

OPTIONAL = {
    "n_list": st.lists(st.integers(1, 50), max_size=3),
    "width_list": st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), max_size=2),
    "trials": st.integers(1, 1000),
    "master_seed": st.integers(0, 2**64),
    "workers": st.integers(1, 4),
    "enumeration_cap_bits": st.integers(0, 30),
    "output_format": st.sampled_from(["csv", "jsonlines"]),
}


def field(draw, own):
    """A value of the field's own kind, or one time in five any JSON value."""
    return draw(JSON_VALUES) if draw(st.integers(0, 4)) == 0 else draw(own)


@st.composite
def service_laws(draw, mu2):
    kind = field(draw, KINDS)
    rate = field(draw, st.sampled_from([mu2]) | RATES)
    law = {"kind": kind, "rate": rate}
    if kind == "erlang" or draw(st.integers(0, 4)) == 0:
        law["shape"] = field(draw, st.integers(1, 10) | BIG | HUGE)
    if kind == "uniform" or draw(st.integers(0, 4)) == 0:
        top = 1.0 / rate if isinstance(rate, float) and rate > 0.0 else 1.0
        law["halfwidth"] = field(draw, st.floats(0.0, top))
    return law


@st.composite
def payloads(draw, experiment=None, output_path=True):
    """A config dict: each field mostly of its own kind, else any JSON value.

    The three rates are drawn in increasing order (arrivals slowest, so the
    queues are stable) and then shuffled one time in three.
    """
    payload = {"experiment": experiment or field(draw, st.sampled_from(EXPERIMENTS))}
    rates = sorted(draw(st.lists(RATES, min_size=3, max_size=3)))
    if draw(st.integers(0, 2)) == 0:
        rates = draw(st.permutations(rates))
    for name, rate in zip(("arrival_rate", "mu1", "mu2"), draw(st.sampled_from(
            [rates, [rates[0], rates[2], rates[1]]]))):
        payload[name] = field(draw, st.just(rate))
    if draw(st.booleans()):
        payload["willie_service"] = field(draw, service_laws(payload["mu2"]))
    for name, own in OPTIONAL.items():
        if draw(st.booleans()):
            payload[name] = field(draw, own)
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


@given(payload=payloads(experiment="region_table", output_path=False))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_maps_every_region_table_config_to_an_exit_code(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["--config", path])
    assert code in (0, 2, 3, 4, 5, 6, 7)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and len(out.getvalue().splitlines()) == 25
    else:
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error_category", "message"}
