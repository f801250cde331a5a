from __future__ import annotations

import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from deptharb import (
    GuidanceConfig,
    LatentState,
    NumericalAbort,
    backprop_to_latent,
    canonical_scene,
    derive_occlusion_pairs,
    grad_staged_loss,
    init_latent,
    render_attention,
    run_guidance,
    stage_of,
    staged_loss,
    step_size,
)


class TestStageOf:
    def test_half_split_boundary(self):
        cfg = GuidanceConfig(total_steps=100, stage1_fraction=0.5)
        assert stage_of(49, cfg) == 1
        assert stage_of(50, cfg) == 2

    def test_zero_fraction_all_stage2(self):
        cfg = GuidanceConfig(total_steps=10, stage1_fraction=0.0)
        assert all(stage_of(t, cfg) == 2 for t in range(10))

    def test_full_fraction_all_stage1(self):
        cfg = GuidanceConfig(total_steps=10, stage1_fraction=1.0)
        assert all(stage_of(t, cfg) == 1 for t in range(10))

    def test_out_of_range(self):
        cfg = GuidanceConfig(total_steps=10)
        with pytest.raises(ValueError):
            stage_of(10, cfg)
        with pytest.raises(ValueError):
            stage_of(-1, cfg)

    def test_stage1_step_count_matches_floor(self):
        import math

        rng = np.random.default_rng(83)
        for _ in range(50):
            steps = int(rng.integers(1, 60))
            frac = float(rng.uniform(0.0, 1.0))
            cfg = GuidanceConfig(total_steps=steps, stage1_fraction=frac)
            count = sum(1 for t in range(steps) if stage_of(t, cfg) == 1)
            assert count == math.floor(frac * steps)
            stages = [stage_of(t, cfg) for t in range(steps)]
            assert stages == sorted(stages)  # 1s before 2s, single transition


class TestStepSize:
    def test_constant_schedule(self):
        cfg = GuidanceConfig(eta0=0.1, eta_decay=1.0)
        assert step_size(0, cfg) == 0.1
        assert step_size(57, cfg) == 0.1

    def test_first_step_is_eta0(self):
        cfg = GuidanceConfig(eta0=0.1, eta_decay=0.99)
        assert step_size(0, cfg) == 0.1

    def test_geometric_decay(self):
        cfg = GuidanceConfig(eta0=0.1, eta_decay=0.5)
        assert step_size(3, cfg) == pytest.approx(0.0125, abs=1e-15)


class TestRunGuidance:
    def test_zero_steps_single_record(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=0)
        latent0 = init_latent(two_object_scene, "raster", seed=1)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert len(traj.records) == 1
        assert np.array_equal(traj.final_latent.values, latent0.values)

    def test_zero_step_size_freezes_latent(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=5, eta0=0.0)
        latent0 = init_latent(two_object_scene, "raster", seed=2)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert np.array_equal(traj.final_latent.values, latent0.values)
        # components never move; totals are constant within each stage (the
        # stage switch itself drops the ortho term from the total)
        for name in ("align", "ortho", "compact"):
            values = [getattr(r.breakdown, name) for r in traj.records]
            assert all(v == values[0] for v in values)
        for stage in (1, 2):
            totals = [r.breakdown.total for r in traj.records if r.stage == stage]
            assert all(t == totals[0] for t in totals)

    def test_single_step_composes_public_operations(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=1, eta0=0.5, stage1_fraction=1.0)
        latent0 = init_latent(two_object_scene, "raster", seed=3)
        traj = run_guidance(two_object_scene, cfg, latent0)

        pairs = derive_occlusion_pairs(two_object_scene)
        field = render_attention(latent0, two_object_scene)
        grad = grad_staged_loss(field, two_object_scene, pairs, cfg, 1)
        expected = latent0.values - 0.5 * backprop_to_latent(latent0, two_object_scene, grad)
        assert np.array_equal(traj.final_latent.values, expected)

    def test_run_rasterizes_each_box_once(self, two_object_scene, monkeypatch):
        import deptharb.scene

        real = deptharb.scene.box_indicators
        calls = Counter()

        def counting(bbox, height, width):
            calls[bbox] += 1
            return real(bbox, height, width)

        # swap it in wherever a module bound the rasterizer by import
        for name, module in list(sys.modules.items()):
            if name == "deptharb" or name.startswith("deptharb."):
                for attr, obj in list(vars(module).items()):
                    if obj is real:
                        monkeypatch.setattr(module, attr, counting)
        cfg = GuidanceConfig(total_steps=20, eta0=50.0)
        run_guidance(two_object_scene, cfg, init_latent(two_object_scene, "raster", seed=5))
        assert set(calls) == {obj.bbox for obj in two_object_scene.objects}
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_one_gradient_per_step_and_none_for_the_end_state(self, two_object_scene, monkeypatch, mode):
        import deptharb.optimizer

        calls = []
        real = deptharb.optimizer.value_and_grad
        monkeypatch.setattr(deptharb.optimizer, "value_and_grad", lambda *a: calls.append(1) or real(*a))
        cfg = GuidanceConfig(total_steps=7, eta0=1.0 if mode == "raster" else 0.1)
        traj = run_guidance(two_object_scene, cfg, init_latent(two_object_scene, mode, seed=6))
        assert len(calls) == 7 and len(traj.records) == 8

    def test_trajectory_length_and_stage_labels(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=8, stage1_fraction=0.5, eta0=1.0)
        latent0 = init_latent(two_object_scene, "raster", seed=4)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert len(traj.records) == 9
        stages = [r.stage for r in traj.records]
        assert stages == [1, 1, 1, 1, 2, 2, 2, 2, 2]
        assert [r.step for r in traj.records] == list(range(9))
        transitions = sum(1 for a, b in zip(stages, stages[1:]) if a != b)
        assert transitions == 1

    def test_determinism_bit_identical(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=20, eta0=5.0)
        latent0 = init_latent(two_object_scene, "raster", seed=5)
        t1 = run_guidance(two_object_scene, cfg, latent0)
        t2 = run_guidance(two_object_scene, cfg, latent0)
        assert np.array_equal(t1.final_latent.values, t2.final_latent.values)
        assert [r.breakdown.total for r in t1.records] == [
            r.breakdown.total for r in t2.records
        ]

    def test_descent_at_small_step_size(self):
        scene = canonical_scene()
        cfg = GuidanceConfig(total_steps=55, eta0=0.01, eta_decay=1.0)
        latent0 = init_latent(scene, "raster", seed=42)
        traj = run_guidance(scene, cfg, latent0)
        stage1 = [r.breakdown.total for r in traj.records if r.stage == 1][:51]
        assert all(b <= a for a, b in zip(stage1, stage1[1:]))

    def test_stage_switch_total_drops_ortho(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=6, stage1_fraction=0.5, eta0=1.0)
        latent0 = init_latent(two_object_scene, "raster", seed=6)
        traj = run_guidance(two_object_scene, cfg, latent0)
        first_stage2 = traj.records[3]
        assert first_stage2.stage == 2
        bd = first_stage2.breakdown
        assert abs(bd.total - (bd.align + cfg.lambda_compact * bd.compact)) <= 1e-12
        assert bd.ortho > 0.0  # still reported diagnostically

    def test_non_finite_aborts_with_step_index(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=5, eta0=1e12)
        latent0 = init_latent(two_object_scene, "raster", seed=7)
        with pytest.raises(NumericalAbort) as exc_info:
            run_guidance(two_object_scene, cfg, latent0)
        assert 0 <= exc_info.value.step <= 5

    def test_blob_mode_runs(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=10, eta0=0.2)
        latent0 = init_latent(two_object_scene, "blob", seed=9)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert len(traj.records) == 11
        assert traj.records[-1].breakdown.total <= traj.records[0].breakdown.total


# Abort step and reason of each run, recorded with the loop that rendered,
# backpropagated and rebuilt the latent through the public functions on
# every step; the single-render loop must reproduce each one.
ABORT_PINS = [
    # (scene, mode, eta0, total_steps, seed, step, reason)
    ("canonical", "raster", 1e8, 40, 0, 1, "rendered field"),
    ("two", "raster", 1e5, 40, 7, 1, "rendered field"),
    ("two", "raster", math.inf, 40, 0, 0, "latent update"),
    ("canonical", "blob", 1e6, 40, 0, 1, "latent gradient"),
    ("two", "blob", 1e200, 40, 7, 1, "rendered field"),
    ("canonical", "blob", math.inf, 40, 0, 0, "latent update"),
    # the last pass, which only renders and evaluates the end state
    ("two", "raster", 1e5, 1, 7, 1, "rendered field"),
    ("canonical", "blob", 1e200, 1, 0, 1, "rendered field"),
]


def _scene(name, two_object_scene):
    return canonical_scene() if name == "canonical" else two_object_scene


class TestAbortPins:
    @pytest.mark.parametrize("name,mode,eta,steps,seed,step,reason", ABORT_PINS)
    def test_diverging_step_size(self, two_object_scene, name, mode, eta, steps, seed, step, reason):
        scene = _scene(name, two_object_scene)
        cfg = GuidanceConfig(total_steps=steps, eta0=eta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(scene, cfg, init_latent(scene, mode, seed))
        assert exc_info.value.step == step
        assert str(exc_info.value) == f"non-finite {reason} at step {step}"

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_field_too_large_to_sum_is_a_loss_abort(self, two_object_scene, mode, steps):
        # every entry is finite (about 8e307), their sum is not
        if mode == "raster":
            values = np.full((2, 16, 16), 709.0)
        else:
            values = np.array([[0.35, 0.35, 0.0, 0.0, 709.0], [0.65, 0.65, 0.0, 0.0, 709.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(two_object_scene, GuidanceConfig(total_steps=steps), LatentState(mode, values))
        assert str(exc_info.value) == "non-finite loss at step 0"


# the latents of test_field_too_large_to_sum_is_a_loss_abort
OVERSIZED_LATENTS = {
    "raster": np.full((2, 16, 16), 709.0),
    "blob": np.array([[0.35, 0.35, 0.0, 0.0, 709.0], [0.65, 0.65, 0.0, 0.0, 709.0]]),
}


class TestQuietAborts:
    """A diverging run raises its pinned abort and emits no numpy warning on the way."""

    @pytest.mark.parametrize("name,mode,eta,steps,seed,step,reason", ABORT_PINS)
    def test_diverging_step_size(self, two_object_scene, name, mode, eta, steps, seed, step, reason):
        scene = _scene(name, two_object_scene)
        latent0 = init_latent(scene, mode, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(scene, GuidanceConfig(total_steps=steps, eta0=eta), latent0)
        assert str(exc_info.value) == f"non-finite {reason} at step {step}"

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_field_too_large_to_sum(self, two_object_scene, mode, steps):
        latent0 = LatentState(mode, OVERSIZED_LATENTS[mode])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(two_object_scene, GuidanceConfig(total_steps=steps), latent0)
        assert str(exc_info.value) == "non-finite loss at step 0"


def _composed_run(scene, cfg, latent0):
    """The loop written out with the public, validating operations only."""
    pairs = derive_occlusion_pairs(scene)
    latent, totals = latent0, []
    for t in range(cfg.total_steps):
        field = render_attention(latent, scene)
        stage = stage_of(t, cfg)
        totals.append(staged_loss(field, scene, pairs, cfg, stage).total)
        grad = grad_staged_loss(field, scene, pairs, cfg, stage)
        step = step_size(t, cfg) * backprop_to_latent(latent, scene, grad)
        latent = LatentState(latent.mode, latent.values - step)
    field = render_attention(latent, scene)
    totals.append(staged_loss(field, scene, pairs, cfg, stage_of(cfg.total_steps - 1, cfg)).total)
    return latent, field, totals


class TestSingleRenderLoop:
    @pytest.mark.parametrize("mode,eta", [("raster", 50.0), ("blob", 0.5)])
    def test_equals_composition_of_public_operations(self, two_object_scene, mode, eta):
        # 7 steps with stage1_fraction 0.5: three in stage 1, four in stage 2
        cfg = GuidanceConfig(total_steps=7, stage1_fraction=0.5, eta0=eta, eta_decay=0.9)
        latent0 = init_latent(two_object_scene, mode, seed=8)
        traj = run_guidance(two_object_scene, cfg, latent0)
        latent, field, totals = _composed_run(two_object_scene, cfg, latent0)
        assert [r.stage for r in traj.records] == [1, 1, 1, 2, 2, 2, 2, 2]
        assert [r.breakdown.total for r in traj.records] == totals
        assert np.array_equal(traj.final_latent.values, latent.values)
        assert np.array_equal(traj.final_field.maps, field.maps)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_leaves_starting_latent_unchanged(self, two_object_scene, mode):
        latent0 = init_latent(two_object_scene, mode, seed=2)
        before = latent0.values.copy()
        cfg = GuidanceConfig(total_steps=5, eta0=50.0 if mode == "raster" else 0.5)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert np.array_equal(latent0.values, before)
        assert not np.array_equal(traj.final_latent.values, before)

    def test_blob_renders_once_per_step_and_plans_its_grid_once(self, two_object_scene, monkeypatch):
        import deptharb.attention
        import deptharb.surrogate

        counts = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            deptharb.surrogate, "_blob_map", counting("blob_map", deptharb.surrogate._blob_map)
        )
        real_grid = deptharb.attention.coord_grid
        for name, module in list(sys.modules.items()):
            if name == "deptharb" or name.startswith("deptharb."):
                for attr, obj in list(vars(module).items()):
                    if obj is real_grid:
                        monkeypatch.setattr(module, attr, counting("coord_grid", real_grid))
        grids = []
        for steps in (3, 9):
            counts.clear()
            cfg = GuidanceConfig(total_steps=steps, eta0=0.5)
            run_guidance(two_object_scene, cfg, init_latent(two_object_scene, "blob", seed=1))
            assert counts["blob_map"] == 2 * (steps + 1)
            grids.append(counts["coord_grid"])
        assert grids[0] == grids[1]
