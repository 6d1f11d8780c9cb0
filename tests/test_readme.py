"""README's code runs as written, so the docs follow the API."""

import json
import re
from pathlib import Path

import numpy as np

from covertq.harness import ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def test_library_example_runs():
    (example,) = fenced("python")
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert isinstance(namespace["departures"], np.ndarray)
    assert namespace["result"].feasible_count >= 1  # the sent codeword is feasible
    assert np.isfinite(namespace["score"])


def test_config_schema_loads():
    (schema,) = fenced("json")
    payload = json.loads(schema)
    config = ExperimentConfig.from_dict(payload)
    assert config.experiment == payload["experiment"]
    assert config.willie_service.rate == payload["mu2"]
