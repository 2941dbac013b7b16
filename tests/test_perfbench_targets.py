"""The benchmark's tracer must find every function it wraps in the program."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve_to_callables():
    # Loaded by path under its own name: perfbench/tests has a conftest of its
    # own, so the two test directories cannot share one import namespace.
    spec = importlib.util.spec_from_file_location("cachediff_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    missing = [name for owner, attr, name, _ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
