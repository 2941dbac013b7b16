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
site (6 keys) and the temporal site (256 locations of 4 x 4).
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
and exits 1 if any clip's checksum differs between the sides.  Paired
in-process clips resolve a change of a few percent that separate
benchmark processes on a busy host do not.

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
from cachediff.rng import Rng  # noqa: E402
from cachediff.runner import (  # noqa: E402
    build_conditioning, build_model, execute_run, initial_latent)

import workload  # noqa: E402  (the benchmark's workload configurations)


def preact_conv(x: np.ndarray, conv: kernels.PackedConv) -> np.ndarray:
    """A residual unit's pre-activation conv on the active backend, conv(silu(rms_norm(x))):
    the norm step writes the SiLU gate that the conv applies."""
    normed, gate = np.empty_like(x), np.empty_like(x)
    kernels._run(kernels.active_library(), kernels.bound_rms_norm, x, 1, normed, gate)
    return kernels.conv2d_frames(normed, conv, 1, gate)


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
        return (tr.eps, tr.f_u31) + tuple(c.bg for c in (tr.dfa or {}).values())

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


def against(path: str, pairs: int) -> int:
    """Paired whole clips through this checkout's library and the one at ``path``."""
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
    try:
        kernels.set_backend("compiled")
        for name in ("baseline", "full_stack"):
            rc = workload.make_config(name, 0)
            model = workload.set_up(rc)
            times = {side: [] for side in sides}
            for i in range(pairs + 1):  # the first pair warms both sides' plans, untimed
                order = list(sides) if i % 2 else list(sides)[::-1]
                sums = {}
                for side in order:
                    kernels._lib = sides[side]
                    t0 = time.perf_counter()
                    sums[side] = execute_run(rc, model=model).report["final_checksum"]
                    if i:
                        times[side].append(time.perf_counter() - t0)
                differ |= sums["this"] != sums["other"]
            ratios = [a / b for a, b in zip(times["this"], times["other"])]
            won = sum(r < 1 for r in ratios)
            print(f"{name}: this {statistics.median(times['this']) * 1e3:.1f} ms, "
                  f"other {statistics.median(times['other']) * 1e3:.1f} ms, "
                  f"median paired ratio {statistics.median(ratios):.3f}, "
                  f"this faster in {won} of {pairs}")
    finally:
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
                    help="timed calls per backend (clip pairs per workload with --against)")
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
