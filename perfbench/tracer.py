"""Span tracing of cachediff from outside its source tree.

:class:`Tracer` wraps the public functions of the program's modules and
records one span per call: name, start, end, parent span and clip id.
Modules import kernels by name (``from .kernels import matmul``), so a
wrapper replaces the function under every name that refers to it in any
``cachediff`` module, not only in the module that defines it.  Parent links
are kept per thread; the tasks of a parallel phase run on pool threads and
are adopted by the phase span that dispatched them.

Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

ROOT = -1  # parent id of a span that has no parent


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    clip: int
    thread: int


def _matmul_shape(args, out):
    a, b = args[0], args[1]
    return (a.shape[0], a.shape[1], b.shape[1])


def _matmul_batch_shape(args, out):
    a, b = args[0], args[1]
    return (a.shape[0], a.shape[1], a.shape[2], b.shape[2])


def _conv_shape(args, out):
    """(frames, c_in, h, w, c_out, stride) of one conv2d_frames call."""
    x = args[0]
    return tuple(x.shape) + (out.shape[1], x.shape[2] // out.shape[2])


def _phase_info(args, out):
    """(tasks, summed task wall ns, modeled ns) from ParallelRunner.run's return value."""
    _, walls, modeled = out
    return (len(walls), sum(walls), modeled)


def targets():
    """(owner, attribute, span name, info function) of every traced function."""
    from cachediff import attention, engine, kernels, profiler, runner, schedule, tensor_io, unet

    return [
        (kernels, "matmul", "kernels.matmul", _matmul_shape),
        (kernels, "matmul_batch", "kernels.matmul_batch", _matmul_batch_shape),
        (kernels, "conv2d_frames", "kernels.conv2d_frames", _conv_shape),
        (kernels, "softmax_rows", "kernels.softmax_rows", None),
        (kernels, "silu", "kernels.silu", None),
        (attention, "reference_site", "attention.reference_site", None),
        (attention, "audio_site", "attention.audio_site", None),
        (attention, "temporal_site", "attention.temporal_site", None),
        (attention, "select_tokens", "attention.select_tokens", None),
        (attention, "merge_tokens", "attention.merge_tokens", None),
        (unet.ToyUNet, "forward", "unet.forward", None),
        (unet.ToyUNet, "subnet", "unet.subnet", None),
        (engine, "denoise_clip", "engine.denoise_clip", None),
        (engine.ParallelRunner, "run", "engine.phase", _phase_info),
        (schedule, "ddim_step_skipping", "schedule.ddim_step_skipping", None),
        (profiler, "count_flops", "profiler.count_flops", None),
        (runner, "build_model", "runner.build_model", None),
        (runner, "build_conditioning", "runner.build_conditioning", None),
        (runner, "execute_run", "runner.execute_run", None),
        (tensor_io, "checksum", "tensor_io.checksum", None),
    ]


class Tracer:
    """In-memory span recorder that patches the program while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.info: dict[int, tuple] = {}
        self.clip = ROOT
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording one span per call, plus ``info(args, result)`` if given."""
        stack_of = self._stack
        spans, infos, ids = self.spans, self.info, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else ROOT
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append(Span(sid, parent, name, t0, t1, self.clip, threading.get_ident()))
            if info is not None:
                infos[sid] = info(args, out)
            return out

        return traced

    def _adopting(self, run):
        """Wrap ParallelRunner.run so pool-thread tasks become children of the phase span."""
        tracer = self

        def adopt(fn, parent: int):
            def task():
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn()
                finally:
                    stack.pop()

            return task

        @functools.wraps(run)
        def run_adopted(runner, tasks):
            parent = tracer._stack()[-1]
            return run(runner, [adopt(fn, parent) for fn in tasks])

        return run_adopted

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        from cachediff.engine import ParallelRunner

        modules = [m for n, m in sys.modules.items() if n == "cachediff" or n.startswith("cachediff.")]
        for owner, attr, name, info in targets():
            orig = getattr(owner, attr)
            if isinstance(owner, type):
                inner = self._adopting(orig) if owner is ParallelRunner else orig
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, inner, info))
                continue
            wrapped = self.wrap(name, orig, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration not covered by its child spans, in ns."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent != ROOT:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {s.id: (s.end_ns - s.start_ns) - _covered(children.get(s.id, [])) for s in spans}


def tree_problems(spans: list[Span]) -> list[str]:
    """Ways in which the span tree is malformed; empty when it is well formed.

    Every parent must exist, every child must lie inside its parent and
    share its clip id, and no span may have negative self time.
    """
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end_ns < s.start_ns:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent == ROOT:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
            continue
        if s.start_ns < p.start_ns or s.end_ns > p.end_ns:
            problems.append(f"span {s.id} {s.name} lies outside its parent {p.name}")
        if s.clip != p.clip:
            problems.append(f"span {s.id} {s.name} has clip {s.clip}, its parent {p.clip}")
    problems += [f"span {sid} has negative self time" for sid, v in self_times(spans).items() if v < 0]
    return problems


def census(spans: list[Span], info: dict[int, tuple], n_clips: int) -> dict[str, list]:
    """Distinct kernel shapes with their calls per clip, most called first."""
    out = {}
    for name in ("kernels.matmul", "kernels.matmul_batch", "kernels.conv2d_frames"):
        counts = Counter(info[s.id] for s in spans if s.name == name and s.clip != ROOT)
        out[name] = [
            {"shape": list(shape), "calls_per_clip": n / n_clips}
            for shape, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
    return out


_FLOP_TAGS = {
    "conv2d": ("conv2d",),
    "matmul": ("matmul",),
    "attention": ("attention_scores", "attention_apply", "softmax"),
    "elementwise": ("elementwise",),
}


def layer_metrics(
    spans: list[Span], info: dict[int, tuple], clip_ledgers: list[list[tuple]]
) -> dict[str, float]:
    """Per-layer metrics per timed clip, from the spans of those clips and their FLOP ledgers.

    ``.s`` is summed span time, ``.self_s`` the part not covered by child
    spans, ``.calls`` a call count, all divided by the number of clips.
    Spans outside any clip belong to set-up; they give the ``runner.build_*``
    times.
    Matmul bytes are computed from operand shapes (4 bytes per element of
    both inputs and the output), not measured.
    """
    n = len(clip_ledgers)
    timed = [s for s in spans if s.clip != ROOT]
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    for s in timed:
        d = s.end_ns - s.start_ns
        calls[s.name] += 1
        total[s.name] += d
        own[s.name] += selfs[s.id]
        durations[s.name].append(d)

    def per_clip(counter, name, scale=1.0):
        return counter[name] * scale / n

    m: dict[str, float] = {}
    for name in (
        "kernels.matmul", "kernels.conv2d_frames", "kernels.matmul_batch", "kernels.softmax_rows",
        "kernels.silu", "attention.reference_site", "attention.audio_site",
        "attention.temporal_site", "attention.select_tokens", "attention.merge_tokens",
        "unet.forward", "unet.subnet", "engine.phase", "schedule.ddim_step_skipping",
        "profiler.count_flops",
    ):
        m[f"{name}.calls"] = per_clip(calls, name)
        m[f"{name}.s"] = per_clip(total, name, 1e-9)
    for name in ("kernels.conv2d_frames", "attention.reference_site"):
        m[f"{name}.self_s"] = per_clip(own, name, 1e-9)
    for name in ("unet.forward", "unet.subnet"):
        d = durations.get(name)
        m[f"{name}.ms_p50"] = statistics.median(d) / 1e6 if d else 0.0

    shapes = census(spans, info, n)
    for name in ("kernels.matmul", "kernels.matmul_batch", "kernels.conv2d_frames"):
        m[f"{name}.shapes"] = float(len(shapes[name]))
    mm = [info[s.id] for s in timed if s.name == "kernels.matmul"]
    m["kernels.matmul.gflop"] = sum(2 * a * b * c for a, b, c in mm) / 1e9 / n
    m["kernels.matmul.mbytes"] = sum(4 * (a * b + b * c + a * c) for a, b, c in mm) / 1e6 / n
    m["kernels.matmul.gflops_per_s"] = _rate(m["kernels.matmul.gflop"], m["kernels.matmul.s"])
    conv = [info[s.id] for s in timed if s.name == "kernels.conv2d_frames"]
    conv_gflop = sum(
        2 * co * ci * 9 * f * -(-h // st) * -(-w // st) for f, ci, h, w, co, st in conv
    ) / 1e9 / n
    m["kernels.conv2d_frames.gflops_per_s"] = _rate(conv_gflop, m["kernels.conv2d_frames.s"])

    m["engine.denoise_clip.s"] = per_clip(total, "engine.denoise_clip", 1e-9)
    phases = [info[s.id] for s in timed if s.name == "engine.phase"]
    m["engine.phase.tasks"] = sum(p[0] for p in phases) / n
    m["engine.phase.task_s"] = sum(p[1] for p in phases) / 1e9 / n
    m["engine.phase.modeled_s"] = sum(p[2] for p in phases) / 1e9 / n
    m["engine.phase.overlap"] = _rate(m["engine.phase.task_s"], m["engine.phase.s"])
    nets = calls["unet.forward"] + calls["unet.subnet"]
    m["engine.cache_reuse"] = calls["unet.subnet"] / nets if nets else 0.0

    rows = [r for ledger in clip_ledgers for r in ledger]
    for key, tags in _FLOP_TAGS.items():
        m[f"flops.{key}"] = sum(r[3] for r in rows if r[0] in tags) / n
    for layer in ("M", "U2", "U32"):
        sites = {f"{layer}.ref", f"{layer}.aud", f"{layer}.tmp"}
        m[f"flops.{layer}"] = sum(r[3] for r in rows if r[1] in sites) / n

    setup_total: Counter = Counter()
    for s in spans:
        if s.clip == ROOT:
            setup_total[s.name] += s.end_ns - s.start_ns
    m["runner.build_model.s"] = setup_total["runner.build_model"] / 1e9
    m["runner.build_conditioning.s"] = setup_total["runner.build_conditioning"] / 1e9
    m["tensor_io.checksum.s"] = per_clip(total, "tensor_io.checksum", 1e-9)
    return m


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
