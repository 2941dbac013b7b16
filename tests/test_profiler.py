import csv

import numpy as np
import pytest

from cachediff import profiler
from cachediff.errors import InvariantError
from cachediff.rng import Rng


def test_count_flops_hand_values():
    assert profiler.count_flops("matmul", (2, 3, 4)) == 48
    assert profiler.count_flops("conv2d", (2, 3, 4, 5)) == 2 * 2 * 3 * 9 * 4 * 5
    assert profiler.count_flops("attention_scores", (4, 4, 2)) == 64
    assert profiler.count_flops("attention_apply", (4, 4, 2)) == 64
    assert profiler.count_flops("softmax", (3, 4)) == 60
    assert profiler.count_flops("elementwise", (7,)) == 7


def test_count_flops_rejects_bad_calls():
    with pytest.raises(ValueError):
        profiler.count_flops("gemm", (2, 3, 4))
    with pytest.raises(ValueError):
        profiler.count_flops("matmul", (2, 3))


def test_half_length_attention_costs_one_quarter():
    L, d = 64, 8
    full = profiler.count_flops("attention_scores", (L, L, d))
    half = profiler.count_flops("attention_scores", (L // 2, L // 2, d))
    assert half / full == 0.25


def test_flop_log_accumulates_events():
    """add and extend append events in order and keep their total; extend takes the
    other log's total, and a log built from events counts them."""
    log = profiler.FlopLog()
    log.add("matmul", "proj", (2, 3, 4))
    log.add("elementwise", "act", (10,))
    assert log.events == [("matmul", "proj", 48), ("elementwise", "act", 10)]
    assert log.total() == 58
    plan = profiler.FlopLog((("softmax", "attn", 15), ("elementwise", "act", 2)))
    assert plan.total() == 17
    log.extend(plan)
    log.add("elementwise", "scheduler", (3,))
    assert log.events == [("matmul", "proj", 48), ("elementwise", "act", 10),
                          ("softmax", "attn", 15), ("elementwise", "act", 2),
                          ("elementwise", "scheduler", 3)]
    assert log.total() == 58 + 17 + 3
    assert plan.total() == 17 and len(plan.events) == 2  # extend leaves the source as it was
    empty = profiler.FlopLog()
    empty.extend(profiler.FlopLog())
    assert empty.events == [] and empty.total() == 0


def test_ledger_rows_written_when_read_match_the_logs_in_order():
    logs = []
    for i in range(3):
        log = profiler.FlopLog()
        log.add("matmul", "a", (i + 1, 1, 1))
        log.add("softmax", "b", (1, i + 1))
        logs.append(log)
    ledger, other = profiler.FlopLedger(), profiler.FlopLedger()
    assert ledger.rows == [] and ledger.total() == 0
    ledger.extend(logs[0], 9)
    other.extend(logs[1], 8)
    other.extend(logs[2], 7)
    assert other.total() == 4 + 10 + 6 + 15
    ledger.merge(other)
    assert ledger.total() == 2 + 5 + other.total()
    want = [
        ("matmul", "a", 9, 2), ("softmax", "b", 9, 5),
        ("matmul", "a", 8, 4), ("softmax", "b", 8, 10),
        ("matmul", "a", 7, 6), ("softmax", "b", 7, 15),
    ]
    assert ledger.rows == want
    assert sum(r[3] for r in ledger.rows) == ledger.total()
    # a step keeps the events its log held when it was recorded
    logs[0].add("elementwise", "late", (4,))
    ledger.extend(logs[0], 6)
    assert ledger.rows == want + [("matmul", "a", 6, 2), ("softmax", "b", 6, 5),
                                  ("elementwise", "late", 6, 4)]
    assert ledger.total() == 42 + 11
    assert other.rows == want[2:] and other.total() == 35


def test_speedup_rounding():
    assert profiler.speedup(23.692, 7.528) == 3.15
    assert profiler.speedup(14.934, 6.416) == 2.33
    assert profiler.speedup(2.0, 2.0) == 1.0
    with pytest.raises(ValueError):
        profiler.speedup(0.0, 1.0)
    with pytest.raises(ValueError):
        profiler.speedup(1.0, -1.0)


def test_rel_l2_values():
    a = np.array([3.0, 4.0], dtype=np.float32)
    assert profiler.rel_l2(a, a) == 0.0
    b = np.array([0.0, 4.0], dtype=np.float32)
    assert np.isclose(profiler.rel_l2(b, a), 3.0 / 5.0)
    with pytest.raises(ValueError):
        profiler.rel_l2(a, np.zeros(3, dtype=np.float32))


def test_l2_series_closed_forms():
    same = np.ones((2, 2), dtype=np.float32)
    assert np.array_equal(profiler.l2_series([same, same, same]), [0.0, 0.0])
    zero = np.zeros(3, dtype=np.float32)
    basis = np.array([0.0, 1.0, 0.0], dtype=np.float32)
    assert profiler.l2_series([zero, basis]) == 1.0
    rng = Rng(0)
    snaps = [rng.normal((3, 3)) for _ in range(3)]
    got = profiler.l2_series(snaps)
    for i in range(2):
        want = np.linalg.norm(snaps[i + 1].astype(np.float64) - snaps[i].astype(np.float64))
        assert np.isclose(got[i], want)
    with pytest.raises(ValueError):
        profiler.l2_series([zero])


def test_cosine_matrix_properties_and_oracle():
    e1 = np.array([1.0, 0.0], dtype=np.float32)
    e2 = np.array([0.0, 2.0], dtype=np.float32)
    m = profiler.cosine_matrix([e1, e2])
    assert np.allclose(m, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)
    rng = Rng(1)
    snaps = [rng.normal((4,)) for _ in range(3)]
    m = profiler.cosine_matrix(snaps)
    assert np.allclose(m, m.T, atol=1e-12)
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)
    assert np.all(np.abs(m) <= 1.0 + 1e-12)
    x = np.stack([s.astype(np.float64) for s in snaps])
    want = (x @ x.T) / np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(x, axis=1))
    assert np.allclose(m, want, atol=1e-6)


def test_cosine_matrix_rejects_degenerate_input():
    with pytest.raises(ValueError):
        profiler.cosine_matrix([])
    with pytest.raises(InvariantError):
        profiler.cosine_matrix([np.zeros(3, dtype=np.float32)])


def test_fg_attention_mass_proportions():
    weights = np.full((3, 8), 0.125, dtype=np.float64)
    groups = {
        "fg_noisy": np.arange(0, 4),
        "bg_noisy": np.arange(4, 6),
        "fg_ref": np.arange(6, 7),
        "bg_ref": np.arange(7, 8),
    }
    mass = profiler.fg_attention_mass(weights, groups)
    assert mass == {"fg_noisy": 0.5, "bg_noisy": 0.25, "fg_ref": 0.125, "bg_ref": 0.125}
    assert np.isclose(sum(mass.values()), 1.0)


def test_fg_attention_mass_concentrated_rows():
    weights = np.zeros((2, 6))
    weights[:, 1] = 1.0
    groups = {"fg": np.array([0, 1, 2]), "bg": np.array([3, 4, 5])}
    mass = profiler.fg_attention_mass(weights, groups)
    assert mass == {"fg": 1.0, "bg": 0.0}


def test_fg_attention_mass_random_oracle():
    rng = Rng(2)
    raw = rng.uniform((5, 10)).astype(np.float64) + 0.01
    weights = raw / raw.sum(axis=1, keepdims=True)
    groups = {"a": np.arange(0, 3), "b": np.arange(3, 10)}
    mass = profiler.fg_attention_mass(weights, groups)
    assert np.isclose(mass["a"], weights[:, :3].sum(axis=1).mean())
    assert np.isclose(mass["a"] + mass["b"], 1.0)


def test_fg_attention_mass_rejects_bad_inputs():
    ok = np.full((2, 4), 0.25)
    with pytest.raises(ValueError):
        profiler.fg_attention_mass(np.zeros((0, 4)), {"a": np.arange(4)})
    with pytest.raises(InvariantError):
        profiler.fg_attention_mass(ok * 2.0, {"a": np.arange(4)})
    with pytest.raises(InvariantError):
        profiler.fg_attention_mass(ok, {"a": np.arange(3)})
    with pytest.raises(InvariantError):
        profiler.fg_attention_mass(ok, {"a": np.arange(4), "b": np.array([2])})


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    profiler.write_csv(path, ["step", "value"], [(1, "a"), (2, "b")])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["step", "value"], ["1", "a"], ["2", "b"]]
