"""Tests of the benchmark's own code: the CVaR oracles and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def test_cvar_tail_hand_worked_fractional_tail():
    # Five equiprobable losses, beta = 0.7: the tail holds 0.3 of the
    # mass, that is the worst loss (0.2) and half of the second (0.1 of
    # its 0.2). CVaR = (0.2 * 10 + 0.1 * 6) / 0.3 = 2.6 / 0.3.
    losses = np.array([1.0, 10.0, -2.0, 6.0, 3.0])
    p = np.full(5, 0.2)
    assert checks.cvar_tail(losses, p, 0.7) == pytest.approx(2.6 / 0.3, rel=1e-14)


def test_cvar_tail_non_uniform_probabilities():
    # Tail mass 0.25: all of loss 8 (0.1) and 0.15 of loss 4 (0.3).
    losses = np.array([4.0, 8.0, 0.0])
    p = np.array([0.3, 0.1, 0.6])
    assert checks.cvar_tail(losses, p, 0.75) == pytest.approx(
        (0.1 * 8 + 0.15 * 4) / 0.25, rel=1e-14)


def test_ru_minimum_equals_tail_form():
    # The Rockafellar-Uryasev minimum is attained at a loss value and
    # equals the order-statistic tail mean.
    rng = np.random.default_rng(0)
    for n in (7, 40, 1000):
        losses = rng.standard_t(3, n)
        p = rng.random(n)
        p /= p.sum()
        for beta in (0.5, 0.9, 0.95):
            assert checks.ru_minimum(losses, p, beta) == pytest.approx(
                checks.cvar_tail(losses, p, beta), rel=1e-12, abs=1e-12)


def test_ru_minimum_hand_worked():
    # losses 1, 10, -2, 6, 3 at beta = 0.7: alpha = 6 gives
    # 6 + 0.2 * (10 - 6) / 0.3 = 26 / 3, the tail form's 2.6 / 0.3.
    losses = np.array([1.0, 10.0, -2.0, 6.0, 3.0])
    assert checks.ru_minimum(losses, np.full(5, 0.2), 0.7) == pytest.approx(26 / 3)


def test_close_is_relative_to_at_least_one():
    assert checks.close(100.0, 100.0 + 5e-8)
    assert not checks.close(100.0, 100.0 + 2e-7)
    assert checks.close(1e-12, 5e-10)
    assert not checks.close(0.0, 2e-9)


class FakeClock:
    """Returns the scripted times, one per call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    clock = FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    t = tracing.Tracer(clock)
    child = t.wrap("m.child", lambda: None)

    def parent():
        child()           # 1.0 .. 3.0
        child()           # 4.0 .. 4.5

    t.wrap("m.parent", parent)()     # 0.0 .. 10.0
    summary = t.summary()
    assert summary["m.parent"] == {"calls": 1, "s": 10.0, "self_s": 7.5}
    assert summary["m.child"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert t.top_level_seconds() == 10.0


def test_recursive_span_counted_once_in_total():
    clock = FakeClock([0.0, 2.0, 3.0, 6.0])
    t = tracing.Tracer(clock)
    calls = []

    def f():
        calls.append(1)
        if len(calls) == 1:
            traced()

    traced = t.wrap("m.f", f)
    traced()                          # outer 0 .. 6, inner 2 .. 3
    row = t.summary()["m.f"]
    assert row["calls"] == 2
    assert row["s"] == 6.0
    assert row["self_s"] == 6.0       # 5 outer + 1 inner


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_span_closes_when_the_call_raises():
    t = tracing.Tracer(FakeClock([0.0, 1.0]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("m.boom", boom)()
    assert t.spans == [["m.boom", 0.0, 1.0, -1]]
    assert t._stack == []


def test_instrument_wraps_only_public_functions_and_restores():
    import types
    mod = types.ModuleType("fake_layer")
    exec("def visible(x):\n    return hidden(x) + 1\n"
         "def hidden(x):\n    return x\n"
         "def _private(x):\n    return x\n", mod.__dict__)
    original = mod.visible
    t = tracing.Tracer()
    patches = tracing.Patches()
    tracing.instrument(t, [mod], patches)
    assert mod.visible(1) == 2
    assert [s[0] for s in t.spans] == ["fake_layer.visible", "fake_layer.hidden"]
    assert t.spans[1][3] == 0
    patches.restore()
    assert mod.visible is original
