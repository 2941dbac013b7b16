"""Timing harness for the compute kernels under both backends.

Runs each kernel on a representative shape with the compiled C backend
and the numpy reference, checks that the two produce byte-identical
outputs (a compiled kernel call runs the kernel's op records through the
library's ``cd_run``, the call a planned pass makes once for all its
steps), and prints per-call best times with the slowdown of the
reference, and the minor page faults per timed call (getrusage).  The
``forward`` and ``subnet`` cases are whole planned passes of the default
model, each one ``cd_run`` call: one forward pass, and one subnet call on
a stack of two samples.  ``key_step`` and ``dfa_subnet`` are the two
passes of a ``full_stack`` block (lcp_dfa_rm on the default mask): the
key step's forward pass with removal, keeping U32's background rows, and
a two-sample subnet call with removal that reads them.
Exits 1 when the outputs differ.  Without a C compiler only the reference
is timed.

Usage:
    python3 benchmarks/kernel_bench.py
    python3 benchmarks/kernel_bench.py --kernel key_step --repeat 20
"""

import argparse
import resource
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package and oracles

from cachediff import kernels  # noqa: E402
from cachediff.config import RunConfig  # noqa: E402
from cachediff.rng import Rng  # noqa: E402
from cachediff.runner import build_conditioning, build_model, initial_latent  # noqa: E402
from oracles import scaled_dot_attention  # noqa: E402  (a test oracle, timed as a kernel)


def preact_conv(x: np.ndarray, conv: kernels.PackedConv) -> np.ndarray:
    """A residual unit's pre-activation conv: conv(silu(rms_norm(x)))."""
    normed, gate = kernels.rms_norm(x, 1, gate=True)
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


def make_cases(seed: int) -> dict:
    rng = Rng(seed)
    return pass_cases(seed) | {
        "matmul": (
            kernels.matmul,
            (rng.child(0).normal((192, 160)), rng.child(1).normal((160, 224))),
        ),
        "conv2d": (
            kernels.conv2d_frames,
            (
                rng.child(2).normal((1, 16, 24, 24)),
                kernels.PackedConv(rng.child(3).normal((24, 16, 3, 3)), rng.child(4).normal((24,))),
            ),
        ),
        # the token norm of the U32 attention sites of a default forward
        # pass: 4 frames of 256 tokens, 16 channels
        "rms_norm": (partial(kernels.rms_norm, axis=-1), (rng.child(12).normal((4, 256, 16)),)),
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
        "attention": (
            scaled_dot_attention,
            (
                rng.child(5).normal((256, 32)),
                rng.child(6).normal((256, 32)),
                rng.child(7).normal((256, 32)),
            ),
        ),
        "softmax": (kernels.softmax_rows, (rng.child(8).normal((384, 384)),)),
        # the U32 reference site of a default forward pass: 4 frames, 256
        # queries, 256 token and 256 reference keys, head dim 8
        "attention_batch": (
            partial(kernels.attention_batch, keep_probs=True),
            (
                rng.child(9).normal((4, 256, 8)),
                rng.child(10).normal((4, 512, 8)),
                rng.child(11).normal((4, 512, 8)),
            ),
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


def main(argv=None) -> int:
    cases = make_cases(0)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--kernel", choices=sorted(cases), help="bench one kernel only")
    ap.add_argument("--repeat", type=int, default=10, help="timed calls per backend")
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    args = ap.parse_args(argv)
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
