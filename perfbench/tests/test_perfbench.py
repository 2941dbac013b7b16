"""Tests of the benchmark itself, on a small model so they run in seconds."""

import argparse
import json
from pathlib import Path

import pytest

import manifest
import run
import tracer
import workload
from cachediff.config import RunConfig, RunSection, ScheduleConfig
from cachediff.unet import UNetConfig

# The SMALL_CFG shape of the program's own test suite.
SMALL_CFG = UNetConfig(
    latent_channels=2,
    base_channels=(4, 5, 6, 7),
    height=8,
    width=8,
    frames=2,
    audio_tokens=3,
    audio_dim=4,
    head_dim=4,
    time_dim=8,
)
SMALL_RC = RunConfig(
    unet=SMALL_CFG,
    schedule=ScheduleConfig(T=60, beta_start=1e-4, beta_end=0.02, steps=8,
                            block_size=3, t_thresh_fraction=0.5),
    run=RunSection(total_frames=SMALL_CFG.frames, out_dir="out"),
)


@pytest.fixture(scope="module")
def small_refs(tmp_path_factory) -> Path:
    ref_dir = tmp_path_factory.mktemp("refs")
    workload.make_references(ref_dir, SMALL_RC, seeds=range(2), log=lambda *_: None)
    return ref_dir


@pytest.fixture(autouse=True)
def out_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


def _args(name: str, trace: int = 0, seed: int = 1) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=trace)


def _result(line: str) -> dict:
    res = json.loads(line)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def _untraced(name: str, ref_dir: Path) -> str:
    """One in-process client and the parent's summary of it."""
    doc = run.run_client(_args(name), workload, SMALL_RC, ref_dir)
    return run.summarize_untraced(_args(name), workload, [json.loads(json.dumps(doc))], [0.25, 0.5])


@pytest.mark.parametrize("name", list(workload.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(name, small_refs, capsys):
    res = _result(_untraced(name, small_refs))
    printed = capsys.readouterr().out.splitlines()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    gated = {n: u for n, u, _, _ in manifest.END_TO_END}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == gated
    for metric, unit in {**gated, **dict(manifest.INFORMATIONAL)}.items():
        rows = [line.split() for line in printed if line.split()[:1] == [metric]]
        assert len(rows) == 1 and rows[0][2] == unit, (metric, printed)
    errors = [line.split() for line in printed if line.split()[:1] == ["error_rate"]]
    assert float(errors[0][1]) == 0.0
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_reference_checksum_gives_error_rate_one(small_refs, tmp_path, capsys):
    bad = tmp_path / "bad_refs"
    bad.mkdir()
    refs = json.loads((small_refs / "references.json").read_text())
    refs["workloads"]["full_stack"]["1"]["final_checksum"] = "sha256:" + "0" * 64
    (bad / "references.json").write_text(json.dumps(refs))
    for f in small_refs.glob("*.tns"):
        (bad / f.name).write_bytes(f.read_bytes())
    res = _result(_untraced("full_stack", bad))
    printed = capsys.readouterr().out.splitlines()
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    errors = [line.split() for line in printed if line.split()[:1] == ["error_rate"]]
    assert float(errors[0][1]) == 1.0


@pytest.mark.parametrize("name", ["full_stack", "lcp_tail"])
def test_traced_run_has_a_well_formed_span_tree(name, small_refs, capsys):
    doc = run.run_client(_args(name, trace=1), workload, SMALL_RC, small_refs)
    res = _result(run.summarize_traced(_args(name, trace=1), workload, [doc]))
    assert res["correct"] and res["failed"] == 0
    assert [k for k in res["metrics"]] == [n for n, _, _, _ in manifest.PER_LAYER]
    written = json.loads((run.OUT_DIR / f"spans-{name}-seed1.json").read_text())
    spans = [tracer.Span(*row[:-1]) for row in written["spans"]]
    assert tracer.tree_problems(spans) == []
    assert all(v >= 0 for v in tracer.self_times(spans).values())
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.name == "bench.clip"]
    assert roots and all(s.parent == tracer.ROOT for s in roots)
    for s in spans:
        top = s
        while top.parent != tracer.ROOT:
            top = by_id[top.parent]
        assert top.clip == s.clip
        if s.clip != tracer.ROOT:
            assert top.name == "bench.clip"
    subnets = [s for s in spans if s.name == "unet.subnet"]
    assert subnets and all(by_id[s.parent].name == "engine.phase" for s in subnets)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["unet.subnet.calls"] > 0 and 0 < m["engine.cache_reuse"] < 1
    assert m["flops.conv2d"] + m["flops.matmul"] + m["flops.attention"] + m["flops.elementwise"] == (
        workload.load_references(small_refs)["workloads"][name]["1"]["flops"]
    )
    selected = m["attention.select_tokens.calls"]
    assert (selected > 0) == (name == "full_stack")


def test_tracer_restores_the_program_and_flags_malformed_trees():
    from cachediff import attention, kernels, unet

    before = (kernels.matmul, attention.matmul, unet.matmul, unet.ToyUNet.forward)
    tr = tracer.Tracer()
    with tr:
        assert unet.matmul is kernels.matmul is attention.matmul is not before[0]
    assert (kernels.matmul, attention.matmul, unet.matmul, unet.ToyUNet.forward) == before
    parent = tracer.Span(0, tracer.ROOT, "p", 10, 20, 0, 1)
    outside = tracer.Span(1, 0, "c", 15, 25, 0, 1)
    other_clip = tracer.Span(2, 0, "c", 12, 14, 1, 1)
    problems = tracer.tree_problems([parent, outside, other_clip])
    assert any("outside its parent" in p for p in problems)
    assert any("has clip 1, its parent 0" in p for p in problems)
    assert tracer.tree_problems([parent, other_clip._replace(clip=0)]) == []


def test_manifest_file_matches_the_metric_tables():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text()) == manifest.manifest()
