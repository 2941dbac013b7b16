"""Analytic FLOPs accounting and diagnostic metrics.

Costs follow fixed conventions: matmul ``2*m*k*n``; 3x3 conv2d
``2*c_out*c_in*9*h_out*w_out``; attention scores and apply ``2*Lq*Lk*d``
each; softmax ``5*Lq*Lk``; elementwise one per element (a fused update
like ``a*z + b*eps`` counts each scalar multiply and add separately).
A pass's events are a :class:`FlopLog`; a run's, step by step, are a
:class:`FlopLedger`, whose total must equal the report's per-step sum.
Diagnostic metrics (L2 series, cosine matrices, attention mass) run in
float64; they feed CSV outputs, not the bit-exact compute path.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantError

# tag -> (number of dims, FLOPs per unit of the dims' product)
_COSTS = {
    "matmul": (3, 2),
    "conv2d": (4, 2 * 9),
    "attention_scores": (3, 2),
    "attention_apply": (3, 2),
    "softmax": (2, 5),
    "elementwise": (1, 1),
}


def count_flops(tag: str, dims: Sequence[int]) -> int:
    """FLOPs for one operator invocation under the package conventions."""
    cost = _COSTS.get(tag)
    if cost is None:
        raise ValueError(f"unknown operator tag {tag!r}")
    if len(dims) != cost[0]:
        raise ValueError(f"tag {tag!r} takes {cost[0]} dims, got {tuple(dims)}")
    return int(cost[1] * math.prod(dims))


class FlopLog:
    """A list of operator events, (tag, layer, flops) triples, and their running total."""

    def __init__(self, events: Iterable[tuple[str, str, int]] = ()):
        self.events: list[tuple[str, str, int]] = list(events)
        self._flops = sum(e[2] for e in self.events)

    def add(self, tag: str, layer: str, dims: Sequence[int]) -> None:
        n = count_flops(tag, dims)
        self.events.append((tag, layer, n))
        self._flops += n

    def extend(self, other: "FlopLog") -> None:
        """Append the events of ``other``."""
        self.events.extend(other.events)
        self._flops += other.total()

    def total(self) -> int:
        return self._flops


class FlopLedger:
    """Run-level FLOPs: each step's events with its timestep, in the order logged.

    A step keeps its log's events as given; the rows are built each time
    :attr:`rows` is read, and the total is kept as steps arrive.
    """

    def __init__(self):
        self._steps: list[tuple[tuple, int]] = []  # (a step's events, its timestep)
        self._flops = 0

    @property
    def rows(self) -> list[tuple[str, str, int, int]]:
        """Every event as (tag, layer, timestep, flops), in the order logged."""
        return [(tag, layer, t, n) for events, t in self._steps for tag, layer, n in events]

    def extend(self, log: FlopLog, t: int) -> None:
        """Record ``log``'s events as step ``t``'s."""
        self._steps.append((tuple(log.events), int(t)))
        self._flops += log.total()

    def merge(self, other: "FlopLedger") -> None:
        """Append the steps of another ledger."""
        self._steps += other._steps
        self._flops += other._flops

    def total(self) -> int:
        return self._flops


def speedup(baseline_seconds: float, accelerated_seconds: float) -> float:
    """Latency ratio rounded to two decimals."""
    if baseline_seconds <= 0 or accelerated_seconds <= 0:
        raise ValueError("latencies must be positive")
    return round(baseline_seconds / accelerated_seconds, 2)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 error of a against reference b, computed in float64."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    da = a.astype(np.float64).ravel()
    db = b.astype(np.float64).ravel()
    denom = max(float(np.linalg.norm(db)), 1e-12)
    return float(np.linalg.norm(da - db)) / denom


def l2_series(snapshots: Sequence[np.ndarray]) -> np.ndarray:
    """L2 distances between consecutive snapshots, float64, length S-1."""
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    flat = [s.astype(np.float64).ravel() for s in snapshots]
    return np.array(
        [float(np.linalg.norm(flat[i + 1] - flat[i])) for i in range(len(flat) - 1)]
    )


def cosine_matrix(snapshots: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise cosine similarities of snapshots; zero-norm input raises."""
    if len(snapshots) < 1:
        raise ValueError("need at least one snapshot")
    x = np.stack([s.astype(np.float64).ravel() for s in snapshots])
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        raise InvariantError("cosine_matrix: zero-norm snapshot")
    return (x @ x.T) / np.outer(norms, norms)


def fg_attention_mass(
    weights: np.ndarray, groups: dict[str, np.ndarray]
) -> dict[str, float]:
    """Mean attention mass per key group for foreground-query rows.

    ``weights`` holds one softmax row per foreground query; ``groups``
    must partition the key axis.  Each result is the mean over rows of the
    summed weight falling in that group.  Rows are renormalized after a
    loose sanity check, so single-precision softmax rounding (which grows
    with the key count) never leaks into the reported masses and the
    groups always split exactly one unit of mass.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] == 0:
        raise ValueError(f"weights must be a non-empty 2-d array, got {w.shape}")
    sums = w.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-4:
        raise InvariantError("fg_attention_mass: rows must sum to 1")
    w = w / sums[:, None]
    seen = np.zeros(w.shape[1], dtype=np.int64)
    for idx in groups.values():
        seen[np.asarray(idx, dtype=np.int64)] += 1
    if not (seen == 1).all():
        raise InvariantError("fg_attention_mass: groups must partition the key axis")
    return {
        name: float(w[:, np.asarray(idx, dtype=np.int64)].sum(axis=1).mean())
        for name, idx in groups.items()
    }


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV with a single header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
