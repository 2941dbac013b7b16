"""Timing harness for the compute kernels under both backends.

Runs each kernel step that plans run, on a representative shape, with
the compiled C backend and the numpy reference, checks that the two
produce byte-identical outputs (a compiled kernel call runs the kernel's
op records through the library's ``cd_run``, the call a planned pass
makes once for all its steps), and prints per-call best times with the
slowdown of the reference, and the minor page faults per timed call
(getrusage).  The
``forward`` and ``subnet`` cases are whole planned passes of the default
model, each one ``cd_run`` call: one forward pass, and one subnet call on
a stack of two samples.  ``key_step`` and ``dfa_subnet`` are the two
passes of a ``full_stack`` block (lcp_dfa_rm on the default mask): the
key step's forward pass with removal, keeping U32's background rows, and
a two-sample subnet call with removal that reads them.  The
``attention_*`` cases run the attention step as a plan binds it, query
tokens on the lanes, at the default model's shapes: the U32 reference site
in full (256 token keys per frame and 256 shared reference keys) and
restricted to the 113 foreground queries of the default mask, the audio
site (6 keys) and the temporal site (256 locations of 4 x 4).  The
``conv_*`` cases are single conv steps of a default forward pass, bound
once per backend as a plan binds them, the pre-activation convs on SiLU'd
inputs: 16x16 convs of a D0 unit (16 -> 16 channels), of U32 (32 -> 16), of
the head (16 -> 4) and conv_in (4 -> 16, on the latent), an 8x8 D1 unit's
(32 -> 32), and two on the pixel rows, a 2x2 D3 unit's (64 -> 64) and the
stride-2 down0 (16 -> 32 at 16x16).  The ``norm_silu_*`` cases are the
norm steps that write a pre-activation, silu(rms_norm(x)), bound the same
way: a D0 unit's (4 frames of 16 channels, 16x16) and the U32 unit's of a
two-sample subnet (8 frames of 32 channels, 16x16).  The ``mix_*`` cases
are channel mixes, 1x1 convs bound as a plan binds them, on 4 frames: a
U32 site's Q projection (256 tokens, 16 -> 8), the K/V projections of a
restricted site on 112 and 124 foreground tokens (16 -> 8), a U32 output
projection with its residual (8 -> 16), an M site's Q projection (4
tokens, 64 -> 8) and an audio site's K/V (6 tokens, 8 -> 8).
Exits 1 when the outputs differ.  Without a C compiler only the reference
is timed.

``--against LIB`` instead times whole clips of the benchmark's ``baseline``
and ``full_stack`` workloads (noise seed 0) in one process: one model and
one set of plans per workload, ``--repeat`` clips each run once through
this checkout's library and once through LIB, alternating which goes
first.  LIB must run this checkout's op records (the load-time check is
run on it): a build of a change to the kernels, not of one to their
records.  It prints each side's median clip time, the median of the
paired ratios (this checkout over LIB) and the pairs this checkout won,
and exits 1 if any clip's checksum differs between the sides.  Then, for
each plan the clips ran, it times the plan's whole pass on both libraries
the same way: ``--repeat`` pairs, each pass on the feeds of the plan's
first pass in the clips and the same op table, and prints the same line
for each plan.  Paired in-process clips resolve a change of a few percent
that separate benchmark processes on a busy host do not, and paired passes
resolve one of about 2 % that the clips do not.

Usage:
    python3 benchmarks/kernel_bench.py
    python3 benchmarks/kernel_bench.py --kernel key_step --repeat 20
    python3 benchmarks/kernel_bench.py --against /path/to/other/kernels.so --repeat 20
"""

import argparse
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# this checkout's package and the benchmark's workloads
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cachediff import kernels, native  # noqa: E402
from cachediff.config import RunConfig  # noqa: E402
from cachediff.plan import Plan  # noqa: E402
from cachediff.rng import Rng  # noqa: E402
from cachediff.runner import (  # noqa: E402
    build_conditioning, build_model, execute_run, initial_latent)

import workload  # noqa: E402  (the benchmark's workload configurations)


def preact_conv(x: np.ndarray, conv: kernels.PackedConv) -> np.ndarray:
    """A residual unit's pre-activation conv on the active backend, conv(silu(rms_norm(x))):
    the norm step writes silu(rms_norm(x)), which the conv reads."""
    act = np.empty_like(x)
    kernels._run(kernels.active_library(), kernels.bound_rms_norm, x, 1, act,
                 ws=kernels._norm_ws(x.shape, 1), silu=True)
    return kernels.conv2d_frames(act, conv)


def pass_cases(seed: int) -> dict:
    """A default forward pass and a subnet call on two samples with their own timesteps,
    each plain and as a restricted-attention block with removal runs it."""
    rc = RunConfig()
    model = build_model(rc)
    conds, root = build_conditioning(rc)
    z = initial_latent(root, rc.unet, seed)
    zs = np.concatenate([z, initial_latent(root, rc.unet, seed + 1)])
    feature = model.forward(z, 500, conds[0]).f_u31
    dfa = model.forward(z, 500, conds[0], keep_bg=True, removal_active=True).dfa

    def forward(**kw):
        tr = model.forward(z, 500, conds[0], **kw)
        return (tr.eps, tr.f_u31) + tuple((tr.dfa or {}).values())

    return {
        "forward": (forward, ()),
        "subnet": (partial(model.subnet, feature, zs, [480, 460], conds[0]), ()),
        "key_step": (partial(forward, keep_bg=True, removal_active=True), ()),
        "dfa_subnet": (partial(model.subnet, feature, zs, [480, 460], conds[0], dfa=dfa,
                               removal_active=True), ()),
    }


def token_norm(x: np.ndarray) -> np.ndarray:
    """The token norm of an attention site on the active backend: each token's channels,
    axis 1 of x, in numpy's pairwise order."""
    out = np.empty_like(x)
    kernels._run(kernels.active_library(), kernels.bound_rms_norm, x, 1, out, tokens=True)
    return out


def lane_attention(q, k, v, rows: int = 1, k2=None, v2=None):
    """The attention step as a site runs it, on the active backend: q (items, rows, d,
    lanes), keys shared by an item's lanes (3-d k, v, and the shared k2, v2) or one
    set per lane (4-d); returns the output in the same layout."""
    items, _, d, lanes = q.shape
    lk = k.shape[1] if k.ndim == 4 else k.shape[2] + (0 if k2 is None else k2.shape[1])
    dv = v.shape[-2]
    out = np.empty((items, rows, dv, lanes), np.float32)
    kernels._run(kernels.active_library(), kernels.bound_attention, q, k, v,
                 np.float32(1.0 / np.sqrt(d)), out, k2=k2, v2=v2,
                 ws=kernels._attention_ws(lk, d, dv, k.ndim == 4))
    return out


def bound_once(bind, oshape: tuple):
    """A case that runs ``bind(lib, out)``'s step, bound once per backend on its own
    output of ``oshape``, as a plan binds it, so that a call times the kernel alone (the
    eager functions' allocation and binding take longer than a small step)."""
    bound = {}  # library (None: the reference) -> its calls and output

    def run():
        lib = kernels.active_library()
        if lib not in bound:
            out = np.empty(oshape, np.float32)
            bound[lib] = kernels.program(lib, bind(lib, out)), out
        calls, out = bound[lib]
        for call in calls:
            call()
        return out

    return run, ()


def conv_case(rng: Rng, seed: int, shape: tuple, co: int, silu: bool = False, *,
              stride: int = 1, mix: bool = False, residual: bool = False) -> tuple:
    """A conv step of a plan on x of ``shape`` to ``co`` channels, x SiLU'd with
    ``silu`` (a pre-activation); with ``mix`` a 1x1 conv without bias (a channel mix),
    with ``residual`` writing base + 0.5 * that."""
    x = rng.child(seed).normal(shape)
    x = kernels.silu(x) if silu else x
    k = 1 if mix else 3
    conv = kernels.PackedConv(rng.child(seed + 1).normal((co, shape[1], k, k)),
                              None if mix else rng.child(seed + 2).normal((co,)))
    oshape = (shape[0], co) + tuple((n - 1) // stride + 1 for n in shape[2:])
    base = rng.child(seed + 3).normal(oshape) if residual else None
    ws = np.empty(kernels._conv_ws(shape, conv, stride), np.uint8)
    return bound_once(lambda lib, out: kernels.bound_conv2d_frames(
        lib, x, conv, out, ws.ctypes.data, stride=stride, base=base), oshape)


def norm_silu_case(rng: Rng, seed: int, shape: tuple) -> tuple:
    """The norm step of a pre-activation on x of ``shape``: silu(rms_norm(x)) over the
    channels."""
    x = rng.child(seed).normal(shape)
    ws = np.empty(kernels._norm_ws(shape, 1), np.uint8)
    return bound_once(lambda lib, out: kernels.bound_rms_norm(
        lib, x, 1, out, ws.ctypes.data, silu=True), shape)


def make_cases(seed: int) -> dict:
    rng = Rng(seed)
    return pass_cases(seed) | {
        "conv2d": (
            kernels.conv2d_frames,
            (
                rng.child(2).normal((1, 16, 24, 24)),
                kernels.PackedConv(rng.child(3).normal((24, 16, 3, 3)), rng.child(4).normal((24,))),
            ),
        ),
        # the token norm of the U32 attention sites of a default forward
        # pass: 4 frames of 16 channels by 256 tokens, the tokens on the lanes
        "rms_norm": (token_norm, (rng.child(12).normal((4, 16, 256)),)),
        # a D0 residual unit's conv(silu(rms_norm(x))) in a default forward
        # pass: 4 frames, 16 -> 16 channels, 16x16
        "preact_conv": (
            preact_conv,
            (
                rng.child(13).normal((4, 16, 16, 16)),
                kernels.PackedConv(rng.child(14).normal((16, 16, 3, 3)),
                                   rng.child(15).normal((16,))),
            ),
        ),
        # single conv steps of a default forward pass, 4 frames each
        **{name: conv_case(rng, seed, shape, co, silu) for name, shape, co, silu, seed in (
            ("conv_d0", (4, 16, 16, 16), 16, True, 30),
            ("conv_u32", (4, 32, 16, 16), 16, True, 33),
            ("conv_head", (4, 16, 16, 16), 4, True, 36),
            ("conv_in", (4, 4, 16, 16), 16, False, 39),
            ("conv_d1", (4, 32, 8, 8), 32, True, 42),
            ("conv_d3", (4, 64, 2, 2), 64, True, 45))},
        "conv_down0": conv_case(rng, 48, (4, 16, 16, 16), 32, stride=2),
        # the norms of a D0 unit's pre-activation and of the U32 unit's in a
        # two-sample subnet
        "norm_silu_d0": norm_silu_case(rng, 75, (4, 16, 16, 16)),
        "norm_silu_u32": norm_silu_case(rng, 77, (8, 32, 16, 16)),
        # channel mixes of a default forward pass and of a restricted subnet,
        # 4 frames each, as a plan binds them: frames of (1, tokens)
        **{name: conv_case(rng, seed, (4, c, 1, tokens), co, mix=True, residual=residual)
           for name, c, tokens, co, residual, seed in (
               ("mix_q", 16, 256, 8, False, 51),
               ("mix_kv_112", 16, 112, 8, False, 55),
               ("mix_kv_124", 16, 124, 8, False, 59),
               ("mix_out", 8, 256, 16, True, 63),
               ("mix_m", 64, 4, 8, False, 67),
               ("mix_audio", 8, 6, 8, False, 71))},
        # the U32 reference site of a default forward pass: 4 frames of 256
        # queries, 256 token keys and 256 shared reference keys, head dim 8
        "attention_reference": (
            lane_attention,
            (rng.child(9).normal((4, 1, 8, 256)), rng.child(10).normal((4, 8, 256)),
             rng.child(11).normal((4, 8, 256)), 1, rng.child(27).normal((8, 256)),
             rng.child(28).normal((8, 256))),
        ),
        # the U32 audio site: 4 frames of 256 queries, 6 audio keys each
        "attention_audio": (
            lane_attention,
            (rng.child(16).normal((4, 1, 8, 256)), rng.child(17).normal((4, 8, 6)),
             rng.child(18).normal((4, 8, 6))),
        ),
        # the U32 temporal site: 256 locations, each 4 frames attending to 4
        "attention_temporal": (
            partial(lane_attention, rows=4),
            (rng.child(19).normal((1, 4, 8, 256)), rng.child(20).normal((1, 4, 8, 256)),
             rng.child(21).normal((1, 4, 8, 256))),
        ),
        # the restricted U32 reference site of the default mask (frac:0.4): 4
        # frames of 113 foreground queries, 113 token keys and 113 shared
        # reference keys
        "attention_restricted": (
            lane_attention,
            (rng.child(22).normal((4, 1, 8, 113)), rng.child(23).normal((4, 8, 113)),
             rng.child(24).normal((4, 8, 113)), 1, rng.child(25).normal((8, 113)),
             rng.child(26).normal((8, 113))),
        ),
    }


def as_bytes(out) -> bytes:
    """Bytes of a kernel's output array, or of every array of a tuple output."""
    return b"".join(x.tobytes() for x in (out if isinstance(out, tuple) else (out,)))


def time_call(fn, args, repeat: int) -> tuple[object, int, float]:
    """Output, best time in ns and minor page faults per call, after one untimed call."""
    out = fn(*args)
    best = None
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out, best, faults / repeat


def paired(run, pairs: int) -> dict[str, list[float]]:
    """Seconds of ``run(side)`` for "this" and "other" over ``pairs`` pairs, after one
    untimed pair, alternating which side goes first."""
    times = {"this": [], "other": []}
    for i in range(pairs + 1):
        for side in (("this", "other") if i % 2 else ("other", "this")):
            t0 = time.perf_counter()
            run(side)
            if i:
                times[side].append(time.perf_counter() - t0)
    return times


def summary(name: str, times: dict[str, list[float]]) -> str:
    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    return (f"{name}: this {statistics.median(times['this']) * 1e3:.2f} ms, "
            f"other {statistics.median(times['other']) * 1e3:.2f} ms, "
            f"median paired ratio {statistics.median(ratios):.3f}, "
            f"this faster in {sum(r < 1 for r in ratios)} of {len(ratios)}")


def plan_label(key: tuple) -> str:
    """A model plan's key without its foreground index, e.g. "subnet x2 restricted": a
    subnet's removal flag is the removal its U32 sites apply."""
    if key[0] == "forward":
        _, removal, probs = key
        return "forward" + " removal" * removal + " probs" * probs
    _, samples, removal, fg_index = key
    return f"subnet x{samples}" + " removal" * removal + " restricted" * (fg_index is not None)


def against(path: str, pairs: int) -> int:
    """Paired whole clips through this checkout's library and the one at ``path``, then
    paired passes of each plan the clips ran."""
    if kernels.compiled_error():
        print(f"this checkout's library is unavailable: {kernels.compiled_error()}",
              file=sys.stderr)
        return 2
    try:
        other = native.open_library(Path(path))
        other.cd_set_exp(*native.numpy_exp_loop())
    except OSError as exc:
        print(f"cannot load {path}: {exc}", file=sys.stderr)
        return 2
    refused = kernels._self_check(other)
    if refused:
        print(f"{path} does not run this checkout's op records: {refused}", file=sys.stderr)
        return 2
    sides = {"this": kernels._compiled(), "other": other}
    previous = kernels.active_backend()
    differ = False
    feeds = {}  # plan -> a copy of the first feeds it ran on
    run_plan = Plan.run

    def recording(plan, lib, log, given):
        if plan not in feeds:
            feeds[plan] = {name: np.copy(a) for name, a in given.items()}
        return run_plan(plan, lib, log, given)

    try:
        kernels.set_backend("compiled")
        Plan.run = recording
        for name in ("baseline", "full_stack"):
            rc = workload.make_config(name, 0)
            model = workload.set_up(rc)
            feeds.clear()
            sums = {side: [] for side in sides}

            def clip(side):
                kernels._lib = sides[side]
                sums[side].append(execute_run(rc, model=model).report["final_checksum"])

            print(summary(name, paired(clip, pairs)))
            differ |= sums["this"] != sums["other"]
            for key, plan in list(model._plans._plans.items()):
                if plan in feeds:  # run by the clips, not only by the set-up
                    times = paired(lambda side: run_plan(plan, sides[side], None, feeds[plan]),
                                   pairs)
                    print(summary(f"{name} plan {plan_label(key)}", times))
    finally:
        Plan.run = run_plan
        kernels._lib = sides["this"]
        kernels.set_backend(previous)
    if differ:
        print("the two libraries gave different clip checksums", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    cases = make_cases(0)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--kernel", choices=sorted(cases), help="bench one kernel only")
    ap.add_argument("--repeat", type=int, default=10,
                    help="timed calls per backend (with --against, clip pairs per workload "
                    "and pass pairs per plan)")
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--against", metavar="LIB", help="time paired whole clips against LIB")
    args = ap.parse_args(argv)
    if args.against:
        return against(args.against, args.repeat)
    if args.seed != 0:
        cases = make_cases(args.seed)

    error = kernels.compiled_error()
    backends = ["numpy"] + ([] if error else ["compiled"])
    if error:
        print(f"compiled backend unavailable ({error}); timing the numpy reference only")
    names = [args.kernel] if args.kernel else sorted(cases)

    previous = kernels.active_backend()
    rows = []
    try:
        for name in names:
            fn, call = cases[name]
            outs, times, faults = {}, {}, {}
            for backend in backends:
                kernels.set_backend(backend)
                outs[backend], times[backend], faults[backend] = time_call(fn, call, args.repeat)
            if len(backends) == 2:
                same = as_bytes(outs["compiled"]) == as_bytes(outs["numpy"])
                equal = "yes" if same else "NO"
                ratio = f"{times['numpy'] / times['compiled']:.1f}"
                compiled_us = f"{times['compiled'] / 1e3:.1f}"
                compiled_faults = f"{faults['compiled']:.1f}"
            else:
                equal, ratio, compiled_us, compiled_faults = "-", "-", "-", "-"
            rows.append((name, compiled_us, f"{times['numpy'] / 1e3:.1f}", ratio, equal,
                         compiled_faults, f"{faults['numpy']:.1f}"))
    finally:
        kernels.set_backend(previous)

    header = ("kernel", "compiled_us", "numpy_us", "numpy/compiled", "bit_equal",
              "compiled_faults", "numpy_faults")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    for line in (header, *rows):
        print("  ".join(str(v).rjust(widths[i]) for i, v in enumerate(line)))
    if any(r[4] == "NO" for r in rows):
        print("backend outputs diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
