"""Execution plans: a pass's buffers, bound steps and FLOP events, fixed once.

A plan is made by walking a pass once for one key (pass kind, frames in
the stack, removal flag, restricted-attention index sets, kept
probabilities).  The walk records

* buffers, each with the span of steps from its first to its last use;
* steps: functions that return, for a kernel library (None: the numpy
  reference), the step with every argument fixed: op records of the
  library, or numpy callables writing the same bytes (the
  ``kernels.bound_*`` functions, for the kernels and for the glue between
  them);
* named inputs, buffers that each pass fills from the caller's feeds
  before the steps run (several buffers may read one name; a buffer may
  hold its feed in another layout, such as tokens last), and named
  results, each read from a buffer after the steps;
* the pass's FLOP events, logged through :meth:`FlopLog.add`, so that the
  tag and arity checks run once per plan.  A pass over a stack of equal
  samples covers them all; :meth:`Plan.finish` divides each event by the
  sample count, once, so that a run of the plan logs one sample's costs.

:meth:`Plan.finish` places the buffers in one float32 arena by liveness:
two buffers share memory only when no step lies in both their spans.
Inputs are live from before the first step, so they are placed before
every step's buffers, and the sources of the results stay live until the
last step.  The arena and the kernels' scratch block belong to the
:class:`PlanCache` that holds every plan of a model; passes run one at a
time, so the plans share them.  Each is its own anonymous mapping, which
is unmapped when a plan that needs more replaces it.

A pass copies its feeds into the inputs, runs its program and reads its
results.  The program is bound once per library (see
:func:`kernels.program`): on the compiled library it is one call into the
library.  The pass then extends the caller's log with one sample's
events.  It allocates none of its buffers, converts no pointer and checks
no kernel argument.
"""

from __future__ import annotations

import bisect
import math
import mmap
from collections.abc import Callable, Hashable

import numpy as np

from . import kernels
from .errors import InvariantError
from .profiler import FlopLog

_ALIGN = 16  # floats: buffers start on 64-byte boundaries


def _mapped(n: int, dtype) -> np.ndarray:
    """An array of n zeros in its own private anonymous mapping.  When a larger one
    replaces it, its pages go back to the system; a heap block of the same size
    (malloc puts one there once its mmap threshold has risen above the size)
    would stay resident for the life of the process."""
    block = mmap.mmap(-1, max(n, 1) * np.dtype(dtype).itemsize,
                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(block, dtype=dtype)[:n]


class Buf:
    """A buffer of a plan: shape, span of steps that use it and, once placed, its array."""

    __slots__ = ("shape", "size", "first", "last", "offset", "a")

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        self.size = math.prod(self.shape)
        self.first = self.last = self.offset = None
        self.a: np.ndarray | None = None


Bind = Callable[[object], list]  # kernel library (None: numpy) -> op records or callables


class Plan:
    """Buffers, steps and FLOP events of one pass; see the module docstring."""

    def __init__(self):
        self.bufs: list[Buf] = []
        self.steps: list[Bind] = []
        self.inputs: list[tuple[Hashable, Buf, Callable[[np.ndarray], np.ndarray]]] = []
        self.results: list[tuple[Hashable, Buf, Callable[[np.ndarray], object]]] = []
        self.log = FlopLog()
        self.floats = 0
        self.ws_bytes = 64
        self.ws = 0  # address of the shared scratch block, once placed
        self._ws_block: np.ndarray | None = None
        self._calls: dict[object, list] = {}

    # -- recording

    def buf(self, shape: tuple[int, ...]) -> Buf:
        b = Buf(shape)
        self.bufs.append(b)
        return b

    def step(self, bind: Bind, *touched: Buf | None) -> None:
        """Append a step; ``touched`` lists every buffer it reads or writes."""
        i = len(self.steps)
        for b in touched:
            if b is not None:
                b.first = i if b.first is None else b.first
                b.last = i
        self.steps.append(bind)

    def input(self, name: Hashable, shape: tuple[int, ...],
              view: Callable[[np.ndarray], np.ndarray] = lambda a: a) -> Buf:
        """A buffer that each pass fills with its feed ``name`` before the steps run:
        ``view`` of the buffer's array, shaped like the feed, receives the feed."""
        buf = self.buf(shape)
        buf.first, buf.last = -1, 0  # filled before step 0
        self.inputs.append((name, buf, view))
        return buf

    def result(self, name: Hashable, src: Buf, read: Callable[[np.ndarray], object]) -> None:
        """The pass's result ``name``: ``read`` of ``src``'s array, after the steps."""
        self.results.append((name, src, read))

    def flop(self, tag: str, layer: str, dims) -> None:
        self.log.add(tag, layer, dims)

    def scratch(self, nbytes: int) -> None:
        self.ws_bytes = max(self.ws_bytes, nbytes)

    # -- kernel steps

    def norm(self, x: Buf, layer: str, axis: int = 1, copies: int = 1, gate: bool = False,
             tokens: bool = False):
        """rms_norm(x, axis), logged as ``copies`` norms; with ``gate`` also its SiLU gate.
        With ``tokens``, each token's values along ``axis`` sum in numpy's order for a
        contiguous axis (see :func:`kernels.bound_rms_norm`)."""
        out = self.buf(x.shape)
        g = self.buf(x.shape) if gate else None
        self.step(lambda lib: kernels.bound_rms_norm(
            lib, x.a, axis, out.a, None if g is None else g.a, tokens=tokens), x, out, g)
        self.flop("elementwise", layer, (3 * copies * x.size,))
        return (out, g) if gate else out

    def conv(
        self, x: Buf, conv: kernels.PackedConv, name: str, *, stride: int = 1,
        gate: Buf | None = None, add: tuple[Buf, int] | None = None, base: Buf | None = None,
    ) -> Buf:
        """conv2d_frames with an optional epilogue; ``add`` is (matrix, first column)."""
        f, ci, h, w = x.shape
        ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
        out = self.buf((f, conv.co, ho, wo))
        self.scratch(kernels._conv_ws(f, ci, h, w, stride))
        tp, col = add if add is not None else (None, 0)
        self.step(lambda lib: kernels.bound_conv2d_frames(
            lib, x.a, conv, out.a, self.ws, stride=stride,
            gate=None if gate is None else gate.a,
            add=None if tp is None else tp.a[:, col : col + conv.co],
            base=None if base is None else base.a,
        ), x, gate, tp, base, out)
        self.flop("conv2d", name, (conv.co, conv.ci, ho, f * wo))
        return out

    def channel_mix(self, x: Buf, w: np.ndarray, base: Buf | None = None) -> Buf:
        """Per-pixel x @ w over the channel axis of x (f, c, *pixels), with the pixels
        on the lanes; with ``base``, base + 0.5 * that.  Not logged."""
        f, c = x.shape[:2]
        if w.shape[0] != c:
            raise ValueError(f"channel mix shape mismatch: {x.shape} @ {w.shape}")
        kernels._rows_ptr(w)  # refuses what no kernel reads
        shape = (f, w.shape[1]) + x.shape[2:]
        if base is not None and math.prod(base.shape) != math.prod(shape):
            raise ValueError(f"channel mix base {base.shape} does not match {shape}")
        out = self.buf(shape if base is None else base.shape)  # the residual keeps base's shape
        self.scratch(kernels._channel_mix_ws(c, math.prod(x.shape[2:]), w.shape[1]))
        self.step(lambda lib: kernels.bound_channel_mix(
            lib, x.a, w, out.a.reshape(shape), self.ws,
            base=None if base is None else base.a.reshape(shape),
        ), x, base, out)
        return out

    def attention(
        self, q: Buf, k: Buf, v: Buf, layer: str, *, rows: int = 1,
        shared: tuple[Buf, Buf] | None = None, lane_keys: bool = False, keep_probs: bool = False,
    ):
        """Attention with the query tokens on the lanes; returns (output, probabilities
        if kept).

        q is (items * rows, d, *lanes), each lane of each row one query, and
        the output (items * rows, dv, *lanes).  k and v are (kitems, d | dv,
        keys), shared by the lanes of an item (item b reads b % kitems),
        then the keys of ``shared`` (1, d | dv, keys) of every item; with
        ``lane_keys`` they are (items * keys, d | dv, *lanes), one set per
        lane.  The kept probabilities are (items * rows, lanes, keys).
        """
        d, dv = q.shape[1], v.shape[1]
        if k.shape[1] != d or (shared is not None and shared[0].shape[1] != d):
            raise ValueError(f"attention: keys {k.shape} do not match queries {q.shape}")
        items = q.shape[0] // rows
        lanes = q.size // (q.shape[0] * d or 1)
        lk = k.shape[0] // items if lane_keys else k.size // (k.shape[0] * d or 1)
        lk2 = 0 if shared is None else shared[0].size // d
        out = self.buf((q.shape[0], dv) + q.shape[2:])
        probs = self.buf((items * rows, lanes, lk + lk2)) if keep_probs else None
        self.scratch(kernels._attention_ws(lk + lk2, d, dv, lane_keys))
        scale = np.float32(1.0 / math.sqrt(d))
        k2, v2 = shared or (None, None)

        def bind(lib):
            if lane_keys:
                kv = (k.a.reshape(items, lk, d, lanes), v.a.reshape(items, lk, dv, lanes))
            else:
                kv = (k.a.reshape(k.shape[0], d, lk), v.a.reshape(v.shape[0], dv, lk))
            return kernels.bound_attention(
                lib, q.a.reshape(items, rows, d, lanes), *kv, scale,
                out.a.reshape(items, rows, dv, lanes), self.ws,
                k2=None if k2 is None else k2.a.reshape(d, lk2),
                v2=None if v2 is None else v2.a.reshape(dv, lk2),
                probs=None if probs is None else probs.a.reshape(items, rows, lanes, lk + lk2))

        self.step(bind, q, k, v, k2, v2, out, probs)
        n, keys = items * rows * lanes, lk + lk2
        self.flop("attention_scores", layer, (n, keys, d))
        self.flop("elementwise", layer, (n * keys,))
        self.flop("softmax", layer, (n, keys))
        self.flop("attention_apply", layer, (n, keys, d))
        return out, probs

    def copy(self, dst: Callable[[], np.ndarray], src: Callable[[], np.ndarray], *touched) -> None:
        """dst()[...] = src(), src broadcast, with both views made when the step is bound."""
        self.step(lambda lib: kernels.bound_copy(lib, dst(), src()), *touched)

    # -- placing and running

    def finish(self, samples: int = 1) -> Plan:
        """Place the buffers by liveness (the results' sources stay live after the last
        step), and keep one of ``samples`` equal samples' share of each recorded event;
        an event that does not split evenly raises :class:`InvariantError`."""
        end = len(self.steps)
        for _, b, _ in self.results:
            b.last = end
        for tag, layer, n in self.log.events:
            if n % samples:
                raise InvariantError(f"{tag} at {layer}: {n} FLOPs do not split into {samples}")
        self.log = FlopLog((tag, layer, n // samples) for tag, layer, n in self.log.events)
        live: list[tuple[int, int, int]] = []  # (offset, end offset, last step), by offset
        for b in sorted((b for b in self.bufs if b.first is not None), key=lambda b: b.first):
            live = [iv for iv in live if iv[2] >= b.first]
            size = -(-b.size // _ALIGN) * _ALIGN
            off = 0
            for lo, hi, _ in live:  # the first gap that fits
                if off + size <= lo:
                    break
                off = max(off, hi)
            b.offset = off
            bisect.insort(live, (off, off + size, b.last))
            self.floats = max(self.floats, off + size)
        return self

    def place(self, arena: np.ndarray, ws: np.ndarray) -> None:
        """Make every buffer a view of ``arena``; calls are bound again at the next run."""
        for b in self.bufs:
            if b.offset is not None:
                b.a = arena[b.offset : b.offset + b.size].reshape(b.shape)
        self._ws_block = ws  # held, so that the address stays valid while the plan lives
        self.ws = ws.ctypes.data
        self._calls.clear()

    def run(self, lib, log: FlopLog | None, feeds: dict) -> dict:
        """Run the pass on ``lib`` (see :func:`kernels.active_library`): copy
        ``feeds[name]`` into each input, run the program bound for ``lib``, log one
        sample's events to ``log``, and return the results by name."""
        calls = self._calls.get(lib)
        if calls is None:
            calls = self._calls[lib] = kernels.program(
                lib, [item for bind in self.steps for item in bind(lib)])
        for name, buf, view in self.inputs:
            np.copyto(view(buf.a), feeds[name])
        for call in calls:
            call()
        if log is not None:
            log.extend(self.log)
        return {name: read(src.a) for name, src, read in self.results}


class PlanCache:
    """The plans of one model by key, and the arena and scratch block they share."""

    # A run builds one to four plans: forward passes by removal flag and
    # mask, and a subnet per chunk size (counted on the benchmark's
    # workloads at 1 to 3 workers).  Each holds about 0.4 MB of op records,
    # bound calls and views for the default model (tracemalloc, a key-step
    # forward plan).  A model kept across
    # many masks drops its least recently run plans beyond this bound,
    # which still holds the plans of several runs.
    MAX_PLANS = 16

    def __init__(self):
        self._plans: dict[Hashable, Plan] = {}
        self._arena = _mapped(0, np.float32)
        self._ws = _mapped(64, np.uint8)

    def get(self, key: Hashable, build: Callable[[], Plan]) -> Plan:
        """The plan of ``key``, built and placed on first use."""
        plan = self._plans.pop(key, None)
        if plan is not None:
            self._plans[key] = plan  # now the most recently run
            return plan
        plan = build()
        if len(self._plans) >= self.MAX_PLANS:
            self._plans.pop(next(iter(self._plans)))
        if plan.floats > self._arena.size or plan.ws_bytes > self._ws.size:
            self._arena = _mapped(max(plan.floats, self._arena.size), np.float32)
            self._ws = _mapped(max(plan.ws_bytes, self._ws.size), np.uint8)
            for other in self._plans.values():
                other.place(self._arena, self._ws)
        plan.place(self._arena, self._ws)
        self._plans[key] = plan
        return plan

    def __len__(self) -> int:
        return len(self._plans)
