"""The benchmark tracer wraps functions by module attribute; a refactor
that renames or moves one of them would leave the benchmark wrapping
nothing, so every target must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attribute, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attribute)), \
            f"{module}.{attribute}"
