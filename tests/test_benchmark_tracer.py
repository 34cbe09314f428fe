"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name; this fails when a rename or deletion would break `run.py --trace 1`."""

import importlib.util
from pathlib import Path

import waterline.cli  # noqa: F401  imports every module the tracer wraps
import waterline.data

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_finds_every_traced_function():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    original = waterline.data.visible_examples
    with tracing.instrument(tracer):  # getattr on every traced name
        assert waterline.data.visible_examples is not original
        waterline.data.visible_examples([])
    assert waterline.data.visible_examples is original
    assert tracer.counts["data.visible_examples_calls"] == 1
