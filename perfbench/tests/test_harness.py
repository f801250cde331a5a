"""Tests for the benchmark harness's own math: tail rule, self time, generator, failed ops."""

from __future__ import annotations

import random
import types

import pytest

from perfbench import scenegen
from perfbench.spans import SpanStats, Tracer, layer_self_time
from perfbench.stats import tail
from perfbench.worker import Outcome
from perfbench.workloads import KNOWN_DEFECTS


class TestTail:
    @pytest.mark.parametrize("n", [19, 20, 39, 40, 100, 137, 1000, 10000])
    def test_highest_percentile_with_ten_beyond(self, n):
        values = [float(i) for i in range(1, n + 1)]
        random.Random(n).shuffle(values)
        got = tail(values)
        if n < 20:  # the percentile would fall below the median
            assert got is None
            return
        pct, value = got
        assert pct == pytest.approx(100.0 * (n - 10) / n)
        assert value == n - 10  # the 11th largest
        assert sum(v > value for v in values) == 10

    def test_ties_count_by_rank(self):
        assert tail([1.0] * 15 + [2.0] * 10) == (60.0, 1.0)
        assert tail([1.0] * 10 + [2.0] * 15) == (60.0, 2.0)


def _clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_nested_spans(self):
        tracer = Tracer(clock=_clock([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0]))
        outer = tracer.open("cli.main")
        a = tracer.open("losses.value")
        tracer.close(a)  # 1 -> 3
        b = tracer.open("losses.value")
        c = tracer.open("attention.grid")
        tracer.close(c)  # 4.5 -> 5
        tracer.close(b)  # 4 -> 6
        tracer.close(outer)  # 0 -> 10
        stats = tracer.stats()
        assert stats["cli.main"] == SpanStats(calls=1, total=10.0, self_time=6.0)
        assert stats["losses.value"] == SpanStats(calls=2, total=4.0, self_time=3.5)
        assert stats["attention.grid"] == SpanStats(calls=1, total=0.5, self_time=0.5)
        assert list(tracer.parent) == [-1, 0, 0, 2]
        assert layer_self_time(stats, "losses") == 3.5
        assert layer_self_time(stats, "missing") == 0.0

    def test_instrument_wraps_by_identity_and_restores(self):
        layer = types.ModuleType("pkg.layer")
        exec("def public(x):\n    return helper(x) + 1\n\ndef helper(x):\n    return 2 * x\n\n"
             "def _private(x):\n    return x\n", layer.__dict__)
        other = types.ModuleType("pkg.other")
        other.public = layer.public  # imported under the same name elsewhere
        other.alias = layer.helper
        originals = (layer.public, layer.helper, layer._private)

        tracer = Tracer()
        tracer.instrument({"layer": layer}, [layer, other])
        assert other.public is layer.public is not originals[0]
        assert other.alias is layer.helper is not originals[1]
        assert layer._private is originals[2]
        assert other.public(3) == 7

        stats = tracer.stats()
        assert stats["layer.public"].calls == 1
        assert stats["layer.helper"].calls == 1  # the in-module call is traced too
        assert list(tracer.parent) == [-1, 0]
        assert "layer.absent" not in stats  # callers read a missing name as 0 calls

        tracer.restore()
        assert (layer.public, layer.helper) == originals[:2]
        assert other.public is originals[0] and other.alias is originals[1]


class TestGenerator:
    @pytest.mark.parametrize("make, size, count, pairs", [
        (scenegen.large_scene, 256, 8, 16),
        (scenegen.small_scene, 32, 3, 2),
    ])
    def test_deterministic_and_as_stated(self, make, size, count, pairs):
        scene = make(11)
        assert scene == make(11)
        assert scene != make(12)
        assert scene["grid"] == {"height": size, "width": size}
        assert len(scene["objects"]) == count
        assert scenegen.occlusion_pairs(scene) == pairs
        assert len({o["depth"] for o in scene["objects"]}) == count
        for obj in scene["objects"]:
            x0, y0, x1, y1 = obj["bbox"]
            assert 0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0

    def test_fixed_seed_gives_fixed_scene(self):
        # pins the generator itself: a change here changes every workload
        scene = scenegen.small_scene(0)
        assert scene["objects"][0] == {
            "id": 0, "label": "obj0", "bbox": [0.068, 0.4987, 0.6036, 0.7839], "depth": 0.2484,
        }


class TestFailedOps:
    def test_known_defect_counts_in_fail_ratio_only(self):
        defect = next(iter(KNOWN_DEFECTS))
        o = Outcome(0.1, 0, [("exit_zero", True), (defect, False)])
        assert o.flawed and not o.failed

    @pytest.mark.parametrize("checks", [
        [("exit_zero", False)],
        [("exit_zero", True), ("raster_dynamics", False)],
        [("exit_zero", True), (next(iter(KNOWN_DEFECTS)), False), ("eval_matches_run", False)],
    ])
    def test_any_other_failed_check_fails_the_op(self, checks):
        o = Outcome(0.1, 0, checks)
        assert o.flawed and o.failed
