"""The default clips reproduce the benchmark's committed reference outputs.

The benchmark checks every clip it runs against
``perfbench/references/references.json``; this pins noise seed 0 of each
workload in the tier-1 suite too, at one worker and at two.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cachediff import runner

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


@pytest.fixture(scope="module")
def workload():
    # Loaded by path under its own name, as the tracer is in test_perfbench_targets;
    # registered while it runs, which its dataclasses need.
    spec = importlib.util.spec_from_file_location("cachediff_perfbench_workload", WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def model(workload):
    return runner.build_model(workload.make_config("baseline", 0))


@pytest.mark.parametrize("name, workers", [
    ("baseline", 1), ("full_stack", 1), ("full_stack", 2), ("lcp_tail", 1), ("lcp_tail", 2),
])
def test_default_clips_match_committed_references(workload, model, name, workers):
    ref = workload.load_references()["workloads"][name]["0"]
    res = runner.execute_run(workload.make_config(name, 0, workers=workers), model=model)
    assert res.report["final_checksum"] == ref["final_checksum"]
    assert res.report["totals"]["flops"] == ref["flops"]
