"""bench/tracing.py wraps covertq's layer functions by name, so every name in
its ``TRACED`` must stay in the package on every Python and numpy the suite
runs on: installing the tracer once fails on a name that is gone."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_the_bench_tracer_installs_and_uninstalls():
    for name in ("codec", "laws", "queueing", "warden", "harness"):
        importlib.import_module(f"covertq.{name}")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bound():
        return [getattr(importlib.import_module(f"covertq.{module}"), attr)
                for module, attr in (name.split(".") for name in tracing.TRACED)]

    originals = bound()
    with tracing.Tracer("codec.encode").installed():
        assert not any(a is b for a, b in zip(bound(), originals))
    assert all(a is b for a, b in zip(bound(), originals))
