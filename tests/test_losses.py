from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deptharb import (
    AttentionField,
    ConfigError,
    GuidanceConfig,
    OcclusionPair,
    SceneError,
    SceneObject,
    SceneSpec,
    check_gradients,
    derive_occlusion_pairs,
    init_latent,
    parse_scene,
    staged_loss,
)
from deptharb.gradcheck import (
    alignment_ratio,
    attention_energies,
    coord_grid,
    interference,
    scene_masks,
    spatial_mean,
    spatial_variance,
)
from deptharb.losses import (
    _columns, _evaluate, _plan, _reduce, _reduce_views, _values, arbitration_weight, staged_total,
)

from conftest import random_field_latent, random_scene
from perfbench import scenegen
from reference import (
    assert_same_breakdown, kernel_value_and_grad, reference_plan, reference_value_and_grad, reference_values,
)

EPS = 1e-8
CFG = GuidanceConfig()

CANONICAL_FILE = str(Path(__file__).resolve().parent.parent / "scenes" / "canonical.json")


def kernel_grad(field, scene, pairs, cfg, stage):
    """d(total)/dA of a field: the kernel's halves on a fresh one-row plan."""
    return kernel_value_and_grad(field.maps[None], _plan(scene, pairs, [cfg]), [stage])[1][0]


def brute_force_variance(values: np.ndarray, epsilon: float) -> float:
    """Independent oracle: literal double sums in plain Python."""
    h, w = values.shape
    total = 0.0
    for r in range(h):
        for c in range(w):
            total += float(values[r, c])
    denom = total + epsilon
    mu_x = mu_y = 0.0
    for r in range(h):
        for c in range(w):
            weight = float(values[r, c]) / denom
            mu_x += weight * ((c + 0.5) / w)
            mu_y += weight * ((r + 0.5) / h)
    var = 0.0
    for r in range(h):
        for c in range(w):
            weight = float(values[r, c]) / denom
            var += weight * (((c + 0.5) / w - mu_x) ** 2 + ((r + 0.5) / h - mu_y) ** 2)
    return var


def one_object_scene(depth: float, bbox=(0.25, 0.25, 0.75, 0.75), grid: int = 4) -> SceneSpec:
    return SceneSpec(
        grid_height=grid,
        grid_width=grid,
        objects=(SceneObject(id=0, label="", bbox=bbox, depth=depth),),
    )


class TestEnergies:
    def test_uniform_map_quarter_box(self):
        mask = np.zeros((4, 4))
        mask[1:3, 1:3] = 1.0
        e_in, e_out = attention_energies(np.ones((4, 4)), mask)
        assert (e_in, e_out) == (4.0, 12.0)

    def test_zero_map(self):
        assert attention_energies(np.zeros((4, 4)), np.ones((4, 4))) == (0.0, 0.0)

    def test_delta_inside_mask(self):
        a = np.zeros((4, 4))
        a[1, 1] = 3.0
        mask = np.zeros((4, 4))
        mask[1, 1] = 1.0
        assert attention_energies(a, mask) == (3.0, 0.0)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.uniform(0.0, 2.0, size=(16, 16))
            mask = (rng.uniform(size=(16, 16)) < 0.4).astype(np.float64)
            e_in, e_out = attention_energies(a, mask)
            assert e_in + e_out == a.sum()
            assert e_in >= 0.0 and e_out >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            attention_energies(np.ones((2, 2)), np.ones((3, 3)))


class TestAlignmentRatio:
    def test_quarter(self):
        assert alignment_ratio(4.0, 12.0, EPS) == pytest.approx(0.25, abs=1e-9)

    def test_zero_in(self):
        assert alignment_ratio(0.0, 7.0, EPS) == 0.0

    def test_strictly_below_one(self):
        f = alignment_ratio(16.0, 0.0, EPS)
        assert f < 1.0
        assert f == pytest.approx(0.9999999994, abs=1e-10)


class TestLossAlign:
    def test_single_object_quarter_ratio(self):
        scene = one_object_scene(depth=1.0)
        bd = staged_loss(AttentionField(maps=np.ones((1, 4, 4))), scene, [], CFG, 1)
        value, f = bd.align, bd.f
        assert f[0] == pytest.approx(0.25, abs=1e-9)
        assert value == pytest.approx(0.5625, abs=1e-8)

    def test_zero_depth_contributes_nothing(self):
        scene = one_object_scene(depth=0.0)
        value = staged_loss(AttentionField(maps=np.ones((1, 4, 4))), scene, [], CFG, 1).align
        assert value == 0.0

    def test_two_objects_half_ratio(self):
        scene = SceneSpec(
            grid_height=4,
            grid_width=4,
            objects=(
                SceneObject(id=0, label="", bbox=(0.0, 0.0, 0.5, 1.0), depth=0.5),
                SceneObject(id=1, label="", bbox=(0.5, 0.0, 1.0, 1.0), depth=0.5),
            ),
        )
        bd = staged_loss(AttentionField(maps=np.ones((2, 4, 4))), scene, [], CFG, 1)
        value, f = bd.align, bd.f
        assert f == pytest.approx([0.5, 0.5], abs=1e-9)
        assert value == pytest.approx(0.25, abs=1e-8)


class TestInterference:
    def test_uniform_intrusion(self):
        mask = np.zeros((4, 4))
        mask[0:2, 0:2] = 1.0
        assert interference(np.ones((4, 4)), mask, EPS) == pytest.approx(1.0, abs=1e-8)

    def test_zero_background(self):
        assert interference(np.zeros((4, 4)), np.ones((4, 4)), EPS) == 0.0

    def test_half_strength_inside(self):
        mask = np.zeros((4, 4))
        mask[0:2, 0:2] = 1.0
        a = 0.5 * mask
        assert interference(a, mask, EPS) == pytest.approx(0.5, abs=1e-8)


class TestArbitrationWeight:
    def test_equal_depths_exact_base(self):
        assert arbitration_weight(0.4, 0.4, CFG) == CFG.lambda0

    def test_unit_depth_gap(self):
        assert arbitration_weight(0.0, 1.0, CFG) == pytest.approx(1.359141, abs=1e-6)
        assert arbitration_weight(1.0, 0.0, CFG) == pytest.approx(0.183940, abs=1e-6)

    def test_strictly_increasing_in_depth_gap(self):
        gaps = np.linspace(-1.0, 1.0, 41)
        weights = [arbitration_weight(0.5, 0.5 + g, CFG) for g in gaps]
        assert all(b > a for a, b in zip(weights, weights[1:]))
        assert all(w > 0 for w in weights)


class TestLossOrtho:
    def _scene(self):
        return SceneSpec(
            grid_height=4,
            grid_width=4,
            objects=(
                SceneObject(id=0, label="", bbox=(0.25, 0.25, 0.75, 0.75), depth=0.2),
                SceneObject(id=1, label="", bbox=(0.25, 0.25, 1.0, 1.0), depth=0.8),
            ),
        )

    def test_empty_pairs(self):
        field = AttentionField(maps=np.ones((2, 4, 4)))
        bd = staged_loss(field, self._scene(), [], CFG, 1)
        value, inter, lam = bd.ortho, bd.pair_interference, bd.pair_weights
        assert value == 0.0 and len(inter) == 0 and len(lam) == 0

    def test_worked_weight_times_interference(self):
        # background uniformly 1 inside the foreground box -> I ~= 1
        field = AttentionField(maps=np.ones((2, 4, 4)))
        pairs = [OcclusionPair(foreground_id=0, background_id=1)]
        bd = staged_loss(field, self._scene(), pairs, CFG, 1)
        value, inter, lam = bd.ortho, bd.pair_interference, bd.pair_weights
        assert inter[0] == pytest.approx(1.0, abs=1e-8)
        assert lam[0] == pytest.approx(0.5 * math.exp(0.6), abs=1e-12)
        assert value == pytest.approx(0.911059, abs=1e-5)

    def test_zero_background_map(self):
        maps = np.stack([np.ones((4, 4)), np.zeros((4, 4))])
        pairs = [OcclusionPair(foreground_id=0, background_id=1)]
        value = staged_loss(AttentionField(maps=maps), self._scene(), pairs, CFG, 1).ortho
        assert value == 0.0

    def test_unknown_pair_id(self):
        field = AttentionField(maps=np.ones((2, 4, 4)))
        with pytest.raises(SceneError, match="unknown object id"):
            staged_loss(field, self._scene(), [OcclusionPair(0, 5)], CFG, 1)


class TestSpatialMoments:
    def test_mean_of_delta(self):
        m = np.zeros((8, 8))
        m[1, 2] = 1.0
        norm = m / (m.sum() + EPS)
        mu = spatial_mean(norm, coord_grid(8, 8))
        assert mu[0] == pytest.approx(0.3125, abs=1e-8)
        assert mu[1] == pytest.approx(0.1875, abs=1e-8)

    def test_mean_of_uniform(self):
        norm = np.full((8, 8), 1.0 / 64.0)
        mu = spatial_mean(norm, coord_grid(8, 8))
        assert mu == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_mean_of_zero_map(self):
        mu = spatial_mean(np.zeros((8, 8)), coord_grid(8, 8))
        assert mu == (0.0, 0.0)

    def test_variance_of_delta_is_zero(self):
        m = np.zeros((8, 8))
        m[3, 4] = 5.0
        norm = m / (m.sum() + EPS)
        coords = coord_grid(8, 8)
        mu = spatial_mean(norm, coords)
        assert spatial_variance(norm, coords, mu) <= 1e-12

    def test_variance_of_uniform_against_brute_force(self):
        values = np.ones((8, 8))
        oracle = brute_force_variance(values, EPS)
        norm = values / (values.sum() + EPS)
        coords = coord_grid(8, 8)
        var = spatial_variance(norm, coords, spatial_mean(norm, coords))
        assert var == pytest.approx(oracle, abs=1e-6)
        assert var == pytest.approx(2.0 * (1.0 - 1.0 / 64.0) / 12.0, abs=1e-6)

    def test_variance_of_two_deltas_against_brute_force(self):
        # equal masses at pixel centers x = 0.25 and x = 0.75, same y: the
        # normalized weights are 1/2 each at distance 0.25 from the mean,
        # so the double sum gives 2 * (1/2) * 0.25^2 = 0.0625
        values = np.array([[1.0, 1.0], [0.0, 0.0]])
        oracle = brute_force_variance(values, EPS)
        norm = values / (values.sum() + EPS)
        coords = coord_grid(2, 2)
        var = spatial_variance(norm, coords, spatial_mean(norm, coords))
        assert var == pytest.approx(oracle, abs=1e-9)
        assert var == pytest.approx(0.0625, abs=1e-6)

    def test_variance_random_maps_against_brute_force(self):
        rng = np.random.default_rng(23)
        coords = coord_grid(6, 6)
        for _ in range(10):
            values = rng.uniform(0.0, 2.0, size=(6, 6))
            norm = values / (values.sum() + EPS)
            var = spatial_variance(norm, coords, spatial_mean(norm, coords))
            assert var == pytest.approx(brute_force_variance(values, EPS), abs=1e-9)
            assert var >= 0.0


class TestLossCompact:
    def test_depth_weighting(self):
        values = np.zeros((8, 8))
        values[4, 2] = 1.0
        values[4, 6] = 1.0
        scene = one_object_scene(depth=0.5, grid=8)
        bd = staged_loss(AttentionField(maps=values[None]), scene, [], CFG, 1)
        value, var = bd.compact, bd.var
        assert value == pytest.approx(0.5 * var[0], abs=1e-15)
        assert value == pytest.approx(0.5 * 0.0625, abs=1e-6)

    def test_delta_maps_vanish(self):
        values = np.zeros((1, 8, 8))
        values[0, 2, 5] = 7.0
        scene = one_object_scene(depth=1.0, grid=8)
        value = staged_loss(AttentionField(maps=values), scene, [], CFG, 1).compact
        assert value <= 1e-12

    def test_zero_depth_contributes_nothing(self):
        rng = np.random.default_rng(2)
        scene = one_object_scene(depth=0.0, grid=8)
        value = staged_loss(
            AttentionField(maps=rng.uniform(0, 1, (1, 8, 8))), scene, [], CFG, 1
        ).compact
        assert value == 0.0


class TestStagedLoss:
    def test_worked_totals(self):
        assert staged_total(0.5625, 1.0, 0.0625, CFG, 1) == pytest.approx(1.075, abs=1e-12)
        assert staged_total(0.5625, 1.0, 0.0625, CFG, 2) == pytest.approx(0.575, abs=1e-12)

    def test_total_matches_components(self, two_object_scene):
        rng = np.random.default_rng(31)
        field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
        pairs = [OcclusionPair(0, 1)]
        for stage in (1, 2):
            bd = staged_loss(field, two_object_scene, pairs, CFG, stage)
            assert bd.total == pytest.approx(
                staged_total(bd.align, bd.ortho, bd.compact, CFG, stage), abs=1e-12
            )
            assert bd.stage == stage
            assert bd.ortho > 0.0  # reported even when excluded from total
        bd1 = staged_loss(field, two_object_scene, pairs, CFG, 1)
        bd2 = staged_loss(field, two_object_scene, pairs, CFG, 2)
        assert bd1.total - bd2.total == pytest.approx(CFG.lambda_ortho * bd1.ortho, rel=1e-12)

    def test_all_zero_field(self, two_object_scene):
        field = AttentionField(maps=np.zeros((2, 16, 16)))
        bd = staged_loss(field, two_object_scene, [OcclusionPair(0, 1)], CFG, 1)
        assert bd.align == pytest.approx(0.2 + 0.8, abs=1e-15)
        assert bd.ortho == 0.0
        assert bd.compact == 0.0
        assert (bd.f == 0.0).all()

    def test_losses_non_negative_on_random_fields(self, two_object_scene):
        rng = np.random.default_rng(37)
        pairs = [OcclusionPair(0, 1)]
        for _ in range(20):
            field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
            bd = staged_loss(field, two_object_scene, pairs, CFG, 1)
            assert bd.align >= 0 and bd.ortho >= 0 and bd.compact >= 0 and bd.total >= 0
            assert (bd.f >= 0).all() and (bd.f < 1).all()
            assert (bd.var >= 0).all()
            assert (bd.e_in >= 0).all() and (bd.e_out >= 0).all()

    def test_invalid_stage(self, two_object_scene):
        field = AttentionField(maps=np.ones((2, 16, 16)))
        with pytest.raises(ValueError):
            staged_loss(field, two_object_scene, [], CFG, 3)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_value_only_pass_is_the_kernel_breakdown_bit_for_bit(self, canonical, stage):
        from dataclasses import fields

        field = AttentionField(maps=np.random.default_rng(41).uniform(0, 2, (2, 64, 64)))
        pairs = derive_occlusion_pairs(canonical)
        got = staged_loss(field, canonical, pairs, CFG, stage)
        want = kernel_value_and_grad(field.maps[None], _plan(canonical, pairs, [CFG]), [stage])[0].take(0)
        for f in fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
            elif isinstance(a, float):
                assert a.hex() == b.hex(), f.name
            else:
                assert a == b, f.name


class TestPlanScratch:
    """A plan builds its gradient scratch once; every gradient call reuses it."""

    @staticmethod
    def count_factor_builds(monkeypatch):
        import deptharb.losses

        calls = []
        real = deptharb.losses._grad_factors
        monkeypatch.setattr(deptharb.losses, "_grad_factors", lambda *a: calls.append(1) or real(*a))
        return calls

    def test_run_builds_its_factors_once(self, two_object_scene, monkeypatch):
        # both stages multiply the one set: stage 2 its first three columns
        from deptharb import init_latent, run_guidance

        calls = self.count_factor_builds(monkeypatch)
        latent0 = init_latent(two_object_scene, "raster", seed=1)
        run_guidance(two_object_scene, GuidanceConfig(total_steps=9, eta0=1.0), latent0)
        assert len(calls) == 1

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 5])
    def test_a_sweep_builds_one_factor_set_per_plan(self, monkeypatch, rows_per_chunk):
        # one plan runs each chunk and scores it
        import deptharb.optimizer
        from deptharb.cli import main

        monkeypatch.setattr(deptharb.optimizer, "_CHUNK_ENTRIES", rows_per_chunk * 2 * 64 * 64)
        calls = self.count_factor_builds(monkeypatch)
        argv = ["sweep", "--scene", CANONICAL_FILE, "--param", "tau", "--values", "0.5,1,2,3,4", "--steps", "3"]
        assert main(argv) == 0
        assert len(calls) == math.ceil(5 / rows_per_chunk)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_a_run_is_scored_on_the_plan_that_ran_it(self, monkeypatch, tmp_path, mode):
        from deptharb.cli import main

        calls = self.count_factor_builds(monkeypatch)
        dump = str(tmp_path / "d.darb")
        assert main(["run", "--scene", CANONICAL_FILE, "--mode", mode, "--steps", "3", "--dump", dump]) == 0
        assert len(calls) == 1
        # eval ran nothing, so it builds a plan to score on
        assert main(["eval", "--scene", CANONICAL_FILE, "--mode", mode, "--dump", dump]) == 0
        assert len(calls) == 2

    @staticmethod
    def count_box_spans(monkeypatch):
        import sys

        import deptharb.scene

        calls = []
        real = deptharb.scene.box_span
        # swap it in wherever a module bound it by import
        for name, module in list(sys.modules.items()):
            if name == "deptharb" or name.startswith("deptharb."):
                for attr, obj in list(vars(module).items()):
                    if obj is real:
                        monkeypatch.setattr(module, attr, lambda *a: calls.append(1) or real(*a))
        return calls

    @pytest.mark.parametrize("batch", [1, 8])
    def test_a_plan_rasterizes_each_box_once_whatever_its_rows(self, monkeypatch, batch):
        # K = 8, P = 16: the scene's validation takes one box_span per box,
        # and the plan, its areas included, reads them from the scene
        calls = self.count_box_spans(monkeypatch)
        scene = parse_scene(json.dumps(scenegen.large_scene(1)))
        pairs = derive_occlusion_pairs(scene)
        assert (len(scene.objects), len(pairs)) == (8, 16)
        assert len(calls) == 8
        _plan(scene, pairs, [CFG.updated(lambda_ortho=0.1 * (b + 1)) for b in range(batch)])
        assert len(calls) == 8

    def test_run_rows_rasterizes_each_box_once_for_its_check_and_every_chunk(self, monkeypatch):
        import deptharb.optimizer

        monkeypatch.setattr(deptharb.optimizer, "_CHUNK_ENTRIES", 8 * 256 * 256)  # one row per chunk
        calls = self.count_box_spans(monkeypatch)
        scene = parse_scene(json.dumps(scenegen.large_scene(1)))
        assert len(calls) == 8
        cfgs = [CFG.updated(total_steps=1, eta0=1.0, tau=tau) for tau in (0.5, 1.0, 2.0)]
        chunks = list(deptharb.optimizer.run_rows(scene, cfgs, init_latent(scene, "blob", 0)))
        assert [len(chunk) for chunk in chunks] == [1, 1, 1]
        assert len(calls) == 8

    def test_breakdowns_of_one_plan_keep_their_own_values(self, canonical):
        # the kernel's intermediates live in the plan and each breakdown in columns of its
        # own: breakdowns kept side by side are each their field's, whatever came after
        pairs = derive_occlusion_pairs(canonical)
        plan, ref_plan = _plan(canonical, pairs, [CFG]), reference_plan(canonical, pairs, CFG)
        rng = np.random.default_rng(7)
        fields = [AttentionField(maps=rng.uniform(0, 2, (2, 64, 64))) for _ in range(4)]
        stages = (1, 2, 2, 1)
        kept = [_evaluate(fields[0].maps[None], plan, [1]).take(0), _evaluate(fields[1].maps[None], plan, [2]).take(0)]
        columns = _columns(plan, [[2], [1]])
        for t, field in enumerate(fields[2:]):
            _reduce(_reduce_views(field.maps[None], plan, 0, 2))
            _values(plan, columns, t)
        kept += [columns.take((0, 0)), columns.take((1, 0))]
        for field, stage, got in zip(fields, stages, kept, strict=True):
            assert_same_breakdown(got, reference_values(field.maps, ref_plan, stage)[0])

    def test_gradients_of_one_plan_keep_their_own_values(self, canonical):
        pairs = derive_occlusion_pairs(canonical)
        plan = _plan(canonical, pairs, [CFG])
        rng = np.random.default_rng(5)
        fields = [AttentionField(maps=rng.uniform(0, 2, (2, 64, 64))) for _ in range(2)]
        first = kernel_value_and_grad(fields[0].maps[None], plan, [1])[1]
        kept = first.copy()
        second = kernel_value_and_grad(fields[1].maps[None], plan, [2])[1]
        # each call returns a gradient of its own, which the next call leaves alone
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(first[0], kernel_grad(fields[0], canonical, pairs, CFG, 1))
        assert np.array_equal(second[0], kernel_grad(fields[1], canonical, pairs, CFG, 2))

    def test_public_gradient_is_the_callers_own(self, canonical):
        pairs = derive_occlusion_pairs(canonical)
        field = AttentionField(maps=np.random.default_rng(6).uniform(0, 2, (2, 64, 64)))
        first = kernel_grad(field, canonical, pairs, CFG, 1)
        kept = first.copy()
        second = kernel_grad(field, canonical, pairs, CFG, 2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)


class TestGradients:
    def test_stage2_has_no_ortho_component(self, two_object_scene):
        rng = np.random.default_rng(41)
        field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
        pairs = [OcclusionPair(0, 1)]
        with_pairs = kernel_grad(field, two_object_scene, pairs, CFG, 2)
        without = kernel_grad(field, two_object_scene, [], CFG, 2)
        assert np.array_equal(with_pairs, without)

    def test_worked_alignment_gradient_against_fd(self):
        # uniform 4x4 map, single object d=1, quarter box: the in-box entry
        # gradient is -2 (1-f) (e_out + eps) / (e_in + e_out + eps)^2
        scene = one_object_scene(depth=1.0)
        field = AttentionField(maps=np.ones((1, 4, 4)))
        cfg = CFG.updated(lambda_compact=0.0)  # isolate the alignment term
        g = kernel_grad(field, scene, [], cfg, 1)
        mask = scene_masks(scene)[0]
        in_box = mask == 1.0
        assert g[0][in_box] == pytest.approx(-0.0703125, abs=1e-7)

        h = 1e-6
        for (y, x) in [(1, 1), (0, 0)]:
            plus = field.maps.copy()
            minus = field.maps.copy()
            plus[0, y, x] += h
            minus[0, y, x] -= h
            val_p = staged_loss(AttentionField(maps=plus), scene, [], CFG, 1).align
            val_m = staged_loss(AttentionField(maps=minus), scene, [], CFG, 1).align
            fd = (val_p - val_m) / (2 * h)
            assert g[0, y, x] == pytest.approx(float(fd), rel=1e-5)

    def test_interference_gradient_is_mask_over_area(self):
        scene = SceneSpec(
            grid_height=4,
            grid_width=4,
            objects=(
                SceneObject(id=0, label="", bbox=(0.25, 0.25, 0.75, 0.75), depth=0.3),
                SceneObject(id=1, label="", bbox=(0.0, 0.0, 1.0, 1.0), depth=0.7),
            ),
        )
        rng = np.random.default_rng(43)
        field = AttentionField(maps=rng.uniform(0.1, 2, (2, 4, 4)))
        pairs = [OcclusionPair(0, 1)]
        # lambda_ij * lambda_ortho == 1 so the pair term contributes the raw
        # interference gradient M_i / (sum M_i + eps)
        cfg = CFG.updated(lambda0=1.0 / math.exp(0.4), lambda_ortho=1.0)
        diff = kernel_grad(field, scene, pairs, cfg, 1) - kernel_grad(
            field, scene, [], cfg, 1
        )
        mask = scene_masks(scene)[0]
        assert np.array_equal(diff[0], np.zeros((4, 4)))
        assert diff[1] == pytest.approx(mask / 4.0, abs=1e-8)

    def test_inactive_object_gets_zero_gradient(self):
        # depth 0 kills its align/compact weights; no pair references it
        scene = SceneSpec(
            grid_height=8,
            grid_width=8,
            objects=(
                SceneObject(id=0, label="", bbox=(0.0, 0.0, 0.4, 0.4), depth=0.0),
                SceneObject(id=1, label="", bbox=(0.6, 0.6, 1.0, 1.0), depth=0.5),
            ),
        )
        rng = np.random.default_rng(67)
        field = AttentionField(maps=rng.uniform(0.1, 2, (2, 8, 8)))
        g = kernel_grad(field, scene, [], CFG, 1)
        assert (g[0] == 0.0).all()
        assert (g[1] != 0.0).any()

    def test_linearity_of_staged_gradient(self, two_object_scene):
        rng = np.random.default_rng(47)
        field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
        pairs = [OcclusionPair(0, 1)]
        base = CFG
        g_align = kernel_grad(field, two_object_scene, [], base.updated(lambda_compact=0.0), 1)
        g_align_ortho = kernel_grad(field, two_object_scene, pairs, base.updated(lambda_compact=0.0), 1)
        g_full = kernel_grad(field, two_object_scene, pairs, base, 1)
        g_ortho_part = g_align_ortho - g_align
        g_compact_part = g_full - g_align_ortho
        recombined = g_align + g_ortho_part + g_compact_part
        assert np.abs(recombined - g_full).max() <= 1e-12
        # stage 2 drops exactly the ortho part
        g_stage2 = kernel_grad(field, two_object_scene, pairs, base, 2)
        assert np.abs((g_full - g_ortho_part) - g_stage2).max() <= 1e-12


def reference_loss_and_grad(field, scene, pairs, cfg, stage):
    """Per-object loops over the primitives: the reference for the fused kernel."""
    maps = field.maps
    masks = scene_masks(scene)
    coords = coord_grid(scene.grid_height, scene.grid_width)
    depths = scene.depths()
    eps = cfg.epsilon
    k = len(scene.objects)
    e_in, e_out, f, var = np.zeros(k), np.zeros(k), np.zeros(k), np.zeros(k)
    mu = np.zeros((k, 2))
    grad = np.zeros_like(maps)
    for i in range(k):
        e_in[i], e_out[i] = attention_energies(maps[i], masks[i])
        f[i] = alignment_ratio(e_in[i], e_out[i], eps)
        denom = maps[i].sum() + eps
        norm = maps[i] / denom
        mu[i] = spatial_mean(norm, coords)
        var[i] = spatial_variance(norm, coords, mu[i])
        dx, dy = coords.x - mu[i, 0], coords.y - mu[i, 1]
        grad[i] = -2.0 * depths[i] * (1.0 - f[i]) * (masks[i] - f[i]) / (e_in[i] + e_out[i] + eps)
        grad[i] += cfg.lambda_compact * depths[i] * (
            (dx**2 + dy**2 - var[i]) / denom - (dx * mu[i, 0] + dy * mu[i, 1]) * 2.0 * eps / denom**2
        )
    idx = [(scene.index_of(p.foreground_id), scene.index_of(p.background_id)) for p in pairs]
    inter = np.array([interference(maps[j], masks[i], eps) for i, j in idx])
    weights = np.array([arbitration_weight(depths[i], depths[j], cfg) for i, j in idx])
    if stage == 1:
        for (i, j), lam in zip(idx, weights):
            grad[j] += cfg.lambda_ortho * lam * masks[i] / (masks[i].sum() + eps)
    align = float(np.sum(depths * (1.0 - f) ** 2))
    ortho = float(np.sum(weights * inter))
    compact = float(np.sum(depths * var))
    terms = {
        "align": align, "ortho": ortho, "compact": compact,
        "total": staged_total(align, ortho, compact, cfg, stage),
        "f": f, "e_in": e_in, "e_out": e_out, "mu": mu, "var": var,
        "pair_interference": inter, "pair_weights": weights,
    }
    return terms, grad


@st.composite
def kernel_cases(draw):
    height, width = draw(st.integers(2, 48)), draw(st.integers(2, 48))
    count = draw(st.integers(1, 8))
    inset = st.floats(0.0, 0.49)
    objects = []
    for i in range(count):
        r0 = draw(st.integers(0, height - 1))
        r1 = draw(st.integers(r0 + 1, height))
        c0 = draw(st.integers(0, width - 1))
        c1 = draw(st.integers(c0 + 1, width))
        # insets below half a pixel keep pixel centers c0..c1-1, r0..r1-1 inside
        bbox = (
            (c0 + draw(inset)) / width, (r0 + draw(inset)) / height,
            (c1 - draw(inset)) / width, (r1 - draw(inset)) / height,
        )
        depth = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        objects.append(SceneObject(id=i, label="", bbox=bbox, depth=depth))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    index_pairs = []
    if count >= 2:
        distinct = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)).filter(
            lambda t: t[0] != t[1]
        )
        index_pairs = draw(st.lists(distinct, max_size=8))
    if count >= 3:
        index_pairs += [(0, count - 1), (1, count - 1)]  # two pairs share a background
    pairs = [OcclusionPair(i, j) for i, j in index_pairs]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    field = AttentionField(maps=scale * rng.uniform(0.0, 2.0, (count, height, width)))
    cfg = GuidanceConfig(epsilon=draw(st.sampled_from([1e-8, 1e-3, 0.5])))
    return scene, pairs, field, cfg, draw(st.sampled_from([1, 2]))


class TestFusedKernel:
    @settings(max_examples=150)
    @given(kernel_cases())
    def test_matches_per_object_reference(self, case):
        # 1e-12 relative, measured against each quantity's own scale: the
        # map total for energies, 1 for ratios, moments and loss terms, and
        # the largest entry for the gradient
        scene, pairs, field, cfg, stage = case
        bd = staged_loss(field, scene, pairs, cfg, stage)
        grad = kernel_grad(field, scene, pairs, cfg, stage)
        ref, ref_grad = reference_loss_and_grad(field, scene, pairs, cfg, stage)
        mass = field.maps.sum(axis=(1, 2))
        scales = {"e_in": mass, "e_out": mass}

        def close(actual, expected, scale):
            err = np.abs(np.asarray(actual) - np.asarray(expected))
            return bool((err <= 1e-12 * np.maximum(np.abs(expected), scale)).all())

        for name, expected in ref.items():
            assert close(getattr(bd, name), expected, scales.get(name, 1.0)), name
        assert close(grad, ref_grad, np.abs(ref_grad).max())
        assert bd.pairs == tuple(pairs) and bd.stage == stage

    def test_energy_split_sums_to_total_bit_exactly(self):
        # object 0's box holds most of its map's mass, object 1's far less
        # than half, so each branch of the split is exercised
        scene = SceneSpec(
            grid_height=16,
            grid_width=16,
            objects=(
                SceneObject(id=0, label="", bbox=(0.0, 0.0, 0.9, 0.9), depth=0.5),
                SceneObject(id=1, label="", bbox=(0.1, 0.1, 0.4, 0.4), depth=0.5),
            ),
        )
        rng = np.random.default_rng(73)
        for _ in range(100):
            maps = rng.uniform(0.0, 2.0, (2, 16, 16)) * 10.0 ** rng.uniform(-3, 3)
            bd = staged_loss(AttentionField(maps=maps), scene, [], CFG, 1)
            total = maps.sum(axis=1).sum(axis=1)  # S as the kernel forms it
            assert bd.e_in[0] > total[0] / 2 and bd.e_in[1] < total[1] / 2
            assert (bd.e_in + bd.e_out == total).all()


class TestKernelMatchesReference:
    """The kernel runs the reference kernel's floating-point operations in its order."""

    @settings(max_examples=150)
    @given(kernel_cases())
    def test_bit_for_bit_in_both_stages(self, case):
        # one plan serves both stages and both passes, as in a run
        scene, pairs, field, cfg, _ = case
        plan, ref_plan = _plan(scene, pairs, [cfg]), reference_plan(scene, pairs, cfg)
        for stage in (1, 2):
            got = _evaluate(field.maps[None], plan, [stage]).take(0)
            assert_same_breakdown(got, reference_values(field.maps, ref_plan, stage)[0])
            terms, grad = kernel_value_and_grad(field.maps[None], plan, [stage])
            got = terms.take(0)
            want, want_grad = reference_value_and_grad(field.maps, ref_plan, stage)
            assert_same_breakdown(got, want)
            assert np.array_equal(grad[0], want_grad)


class TestScalingInvariants:
    def test_f_shift_bounded_by_epsilon_over_mass(self, two_object_scene):
        rng = np.random.default_rng(53)
        field = AttentionField(maps=rng.uniform(0.5, 2, (2, 16, 16)))
        f1 = staged_loss(field, two_object_scene, [], CFG, 1).f
        for c in (3.0, 10.0):
            fc = staged_loss(AttentionField(maps=field.maps * c), two_object_scene, [], CFG, 1).f
            for k in range(2):
                assert abs(fc[k] - f1[k]) <= EPS / field.maps[k].sum()

    def test_ortho_scales_linearly_with_background(self, two_object_scene):
        rng = np.random.default_rng(59)
        # dyadic entries and a power-of-two factor keep the scaling exact
        maps = rng.integers(1, 2**20, (2, 16, 16)).astype(np.float64) * 2.0**-19
        pairs = [OcclusionPair(0, 1)]
        v1 = staged_loss(AttentionField(maps=maps), two_object_scene, pairs, CFG, 1).ortho
        scaled = maps.copy()
        scaled[1] *= 4.0
        v4 = staged_loss(AttentionField(maps=scaled), two_object_scene, pairs, CFG, 1).ortho
        assert v4 == 4.0 * v1

    def test_variance_shift_bounded_by_epsilon_order(self, two_object_scene):
        rng = np.random.default_rng(61)
        field = AttentionField(maps=rng.uniform(0.5, 2, (2, 16, 16)))
        var1 = staged_loss(field, two_object_scene, [], CFG, 1).var
        for c in (3.0, 10.0):
            varc = staged_loss(AttentionField(maps=field.maps * c), two_object_scene, [], CFG, 1).var
            for k in range(2):
                assert abs(varc[k] - var1[k]) <= 5 * EPS / field.maps[k].sum()


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_analytic_gradient_matches_central_differences(self, stage):
        # seeded random scene and a field with entries spread over [0, 2],
        # >= 1000 sampled coordinates, rel tol 1e-5 with abs floor 1e-9
        scene = random_scene(71, size=32)
        latent = random_field_latent(scene, 71)
        [result] = check_gradients(
            scene, CFG, latent, (stage,), seed=71, samples=1000, rel_tol=1e-5,
        )
        assert result.checked >= 1000
        assert result.passed, result.failures[:3]


class TestPairCoefficient:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_overflowing_coefficient_is_a_config_error(self, canonical, stage):
        import warnings

        # lambda_ij = 1e308 is finite, lambda_ortho * lambda_ij is not
        cfg = GuidanceConfig(lambda0=1e308, alpha=0.0, lambda_ortho=4.0)
        field = AttentionField(maps=np.ones((2, 64, 64)))
        pairs = derive_occlusion_pairs(canonical)
        for evaluate in (staged_loss, kernel_grad):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError) as exc_info:
                    evaluate(field, canonical, pairs, cfg, stage)
            message = str(exc_info.value)
            assert message.startswith("occlusion pair (foreground 0, background 1): ")
            assert "lambda_ortho 4, lambda_ij 1e+308" in message

    def test_largest_finite_coefficient_is_accepted(self, canonical):
        # 1e308 / (|M_fg| + eps) is finite once lambda_ortho is 1
        cfg = GuidanceConfig(lambda0=1e308, alpha=0.0, lambda_ortho=1.0)
        field = AttentionField(maps=np.ones((2, 64, 64)))
        pairs = derive_occlusion_pairs(canonical)
        assert staged_loss(field, canonical, pairs, cfg, 2).pair_weights.tolist() == [1e308]


class TestGuidanceConfig:
    def test_presets(self):
        main = GuidanceConfig.preset("main")
        assert (main.lambda_ortho, main.lambda_compact) == (0.5, 0.2)
        appendix = GuidanceConfig.preset("appendix")
        assert (appendix.lambda_ortho, appendix.lambda_compact) == (0.2, 0.5)
        with pytest.raises(ConfigError):
            GuidanceConfig.preset("nope")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda0": 0.0},
            {"tau": 0.0},
            {"lambda_ortho": -1e-300},
            {"lambda_compact": -1e-300},
            {"epsilon": 0.0},
            {"stage1_fraction": 1.5},
            {"eta0": -1.0},
            {"eta_decay": 0.0},
            {"eta_decay": 1.5},
            {"total_steps": -1},
            {"total_steps": 5.0},
            {"total_steps": True},
            {"total_steps": "5"},
            {"lambda0": "0.5"},
            {"lambda0": True},
            {"alpha": 1j},
            {"eta0": "800"},
            {"eta0": np.True_},
            {"eta_decay": None},
            {"stage1_fraction": [0.5]},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ConfigError):
            GuidanceConfig(**kwargs)

    def test_numpy_scalars_and_unset_step_accepted(self):
        cfg = GuidanceConfig(total_steps=np.int64(5), lambda0=np.float64(0.25), eta0=None)
        assert (cfg.total_steps, cfg.lambda0, cfg.eta0) == (5, 0.25, None)

    # every real field: an integer no float holds would overflow where the run first converts it (eta0 in the
    # step schedule), or in the finiteness check
    @pytest.mark.parametrize("name", [f.name for f in fields(GuidanceConfig) if f.name != "total_steps"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_real_field_refuses_an_integer_beyond_the_float_range(self, name, sign):
        shown = "-" * (sign < 0) + "10000000000000000000... (401 digits)"
        with pytest.raises(ConfigError, match=rf"^{name} must be within the float range, got {re.escape(shown)}$"):
            GuidanceConfig(**{name: sign * 10**400})

    def test_the_largest_integer_a_float_holds_is_a_real_value(self):
        assert GuidanceConfig(eta0=int(sys.float_info.max)).eta0 == sys.float_info.max

    @pytest.mark.parametrize("name", ["lambda_ortho", "lambda_compact"])
    def test_negative_term_weight_message_and_zero_ablation(self, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be >= 0, got -1.0$"):
            GuidanceConfig(**{name: -1.0})
        assert getattr(GuidanceConfig(**{name: 0.0}), name) == 0.0
