"""README's code runs as written, so the docs follow the API."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from covertq.cli import main as cli_main
from covertq.errors import CovertqError
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


def exit_code_table():
    """README's category -> exit code table: ``(config/parameter/structural 2, ...)``."""
    (table,) = re.findall(r"stable exit\s+codes \((.*?)\)", README, flags=re.S)
    codes = {}
    for entry in table.replace("\n", " ").split(","):
        categories, code = entry.split()
        codes.update(dict.fromkeys(categories.split("/"), int(code)))
    return codes


ERRORS = CovertqError.__subclasses__()


def test_every_error_class_carries_readme_exit_code():
    codes = exit_code_table()
    assert sorted(codes) == sorted(error.category for error in ERRORS)
    assert codes["infeasible-rate"] == 5
    for error in ERRORS:
        assert error.exit_code == codes[error.category], error.__name__
    assert CovertqError.exit_code == 1


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: error.__name__)
def test_cli_exits_with_readme_code_for_every_error(tmp_path, capsys, monkeypatch, error):
    def fail(config):
        raise error("raised by the run")

    monkeypatch.setattr("covertq.cli.run", fail)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "region_table", "arrival_rate": 0.5,
                                  "mu1": 1.0, "mu2": 2.0}))
    assert cli_main(["--config", str(config)]) == exit_code_table()[error.category]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error_category": error.category, "message": "raised by the run"}
