from __future__ import annotations

import json
import math
import sys
import warnings
from collections import Counter
from itertools import chain
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.array_utils import byte_bounds

from deptharb import (
    AttentionField,
    ConfigError,
    GuidanceConfig,
    LatentState,
    NumericalAbort,
    SceneObject,
    SceneSpec,
    canonical_scene,
    derive_occlusion_pairs,
    init_latent,
    parse_scene,
    render_attention,
    run_guidance,
    staged_loss,
)
from deptharb import losses, optimizer
from deptharb.losses import _columns, _plan, _product_views, _step_factors, _values
from deptharb.cli import SWEEP_PARAMS
from deptharb.optimizer import _final_stage, _schedule, run_rows
from deptharb.surrogate import MODES, _mode_class, _surrogate, with_default_step
from perfbench import scenegen

from reference import (
    assert_same_breakdown,
    final_stage,
    kernel_value_and_grad,
    reduced_factors,
    reduced_values,
    reference_plan,
    reference_render,
    reference_run,
    same_bits,
    stage_of,
    step_size,
)


def _stage_column(cfg):
    """The stage of each pass of `cfg`'s run, t = 0..total_steps, as `_schedule` builds it."""
    return [stages[0] for stages in _schedule([cfg])[0]]


def _eta_column(cfg):
    """The step size of each pass of `cfg`'s run, t = 0..total_steps, as `_schedule` builds it."""
    return [etas[0] for etas in _schedule([cfg])[1]]


class TestStageOf:
    def test_half_split_boundary(self):
        cfg = GuidanceConfig(total_steps=100, stage1_fraction=0.5, eta0=1.0)
        assert _stage_column(cfg)[49:51] == [1, 2]

    def test_zero_fraction_all_stage2(self):
        cfg = GuidanceConfig(total_steps=10, stage1_fraction=0.0, eta0=1.0)
        assert _stage_column(cfg) == [2] * 11

    def test_full_fraction_all_stage1(self):
        cfg = GuidanceConfig(total_steps=10, stage1_fraction=1.0, eta0=1.0)
        assert _stage_column(cfg) == [1] * 11

    def test_one_pass_per_step_and_one_for_the_end_state(self):
        # with no step, the end state is scored in stage 1 iff stage 1 has any share
        for steps, frac, want in [(0, 0.0, [2]), (0, 0.3, [1]), (1, 0.5, [2, 2]), (1, 1.0, [1, 1])]:
            cfg = GuidanceConfig(total_steps=steps, stage1_fraction=frac, eta0=1.0)
            assert _stage_column(cfg) == want
            assert _final_stage(cfg) == want[-1]
        # `eval` derives the end state's stage alone, without a column of every step
        for frac, want in [(1.0, 1), (0.999, 2)]:
            assert _final_stage(GuidanceConfig(total_steps=10**12, stage1_fraction=frac)) == want

    def test_stage1_step_count_matches_floor(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            steps = int(rng.integers(0, 60))
            frac = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            cfg = GuidanceConfig(total_steps=steps, stage1_fraction=frac, eta0=1.0)
            stages = _stage_column(cfg)
            assert stages[:steps].count(1) == math.floor(frac * steps)
            assert stages[:steps] == sorted(stages[:steps])  # 1s before 2s, single transition
            assert stages == [stage_of(t, cfg) for t in range(steps)] + [final_stage(cfg)]
            assert _final_stage(cfg) == final_stage(cfg)

    def test_rows_keep_their_own_columns(self):
        cfgs = [GuidanceConfig(total_steps=6, stage1_fraction=v, eta0=2.0 * v + 1.0) for v in (0.0, 0.5, 1.0)]
        stages, etas = _schedule(cfgs)
        assert [list(column) for column in zip(*stages)] == [_stage_column(cfg) for cfg in cfgs]
        assert [list(column) for column in zip(*etas)] == [_eta_column(cfg) for cfg in cfgs]


class TestStepSize:
    def test_constant_schedule(self):
        cfg = GuidanceConfig(eta0=0.1, eta_decay=1.0, total_steps=60)
        assert _eta_column(cfg) == [0.1] * 61

    def test_first_step_is_eta0(self):
        cfg = GuidanceConfig(eta0=0.1, eta_decay=0.99)
        assert _eta_column(cfg)[0] == 0.1

    def test_geometric_decay(self):
        cfg = GuidanceConfig(eta0=0.1, eta_decay=0.5, total_steps=5)
        assert _eta_column(cfg)[3] == pytest.approx(0.0125, abs=1e-15)

    @given(st.floats(0.0, 1e12), st.floats(1e-3, 1.0), st.integers(0, 300))
    def test_every_pass_is_eta0_times_the_decay_power(self, eta0, decay, steps):
        cfg = GuidanceConfig(eta0=eta0, eta_decay=decay, total_steps=steps)
        assert same_bits(np.array(_eta_column(cfg)), np.array([step_size(t, cfg) for t in range(steps + 1)]))

    def test_unset_eta0_is_a_config_error(self):
        # the default step belongs to the surrogate mode, which a config does not know
        assert GuidanceConfig().eta0 is None
        with pytest.raises(ConfigError, match="^eta0 is not set"):
            _schedule([GuidanceConfig()])
        with pytest.raises(ConfigError, match="^eta0 is not set"):
            _schedule([GuidanceConfig(eta0=1.0), GuidanceConfig()])


class TestDefaultStep:
    @pytest.mark.parametrize("mode", MODES)
    def test_library_run_steps_at_the_modes_default(self, canonical, mode):
        # only where the step comes from is pinned: seed 0 collapses in blob mode
        # (test_acceptance.TestKnownDefects)
        default_eta0 = _mode_class(mode).default_eta0
        latent0 = init_latent(canonical, mode, 0)
        got = run_guidance(canonical, GuidanceConfig(total_steps=20), latent0)
        want = run_guidance(canonical, GuidanceConfig(total_steps=20, eta0=default_eta0), latent0)
        assert got.eta[0] == default_eta0
        assert same_bits(got.eta, want.eta)
        assert_same_breakdown(got.terms, want.terms)
        assert np.array_equal(got.final_latent.values, want.final_latent.values)


class TestRunGuidance:
    def test_zero_steps_single_record(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=0)
        latent0 = init_latent(two_object_scene, "raster", seed=1)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert traj.eta.shape == traj.terms.total.shape == (1,)
        assert np.array_equal(traj.final_latent.values, latent0.values)

    def test_zero_step_size_freezes_latent(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=5, eta0=0.0)
        latent0 = init_latent(two_object_scene, "raster", seed=2)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert np.array_equal(traj.final_latent.values, latent0.values)
        # components never move; totals are constant within each stage (the
        # stage switch itself drops the ortho term from the total)
        for name in ("align", "ortho", "compact"):
            values = getattr(traj.terms, name)
            assert (values == values[0]).all()
        for stage in (1, 2):
            totals = traj.terms.total[traj.terms.stage == stage]
            assert (totals == totals[0]).all()

    def test_single_step_composes_public_operations(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=1, eta0=0.5, stage1_fraction=1.0)
        latent0 = init_latent(two_object_scene, "raster", seed=3)
        traj = run_guidance(two_object_scene, cfg, latent0)

        pairs = derive_occlusion_pairs(two_object_scene)
        field = render_attention(latent0, two_object_scene)
        grad = kernel_value_and_grad(field.maps[None], _plan(two_object_scene, pairs, [cfg]), [1])[1]
        # dL/dlogit = dL/dA * A
        expected = latent0.values - 0.5 * (grad[0] * field.maps)
        assert np.array_equal(traj.final_latent.values, expected)

    def test_run_rasterizes_each_box_once(self, two_object_scene, monkeypatch):
        import deptharb.scene

        real = deptharb.scene.box_span
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
        # one span per box as the scene is validated, and none in the run
        scene = SceneSpec(two_object_scene.grid_height, two_object_scene.grid_width, two_object_scene.objects)
        assert calls == Counter(obj.bbox for obj in scene.objects)
        cfg = GuidanceConfig(total_steps=20, eta0=50.0)
        run_guidance(scene, cfg, init_latent(scene, "raster", seed=5))
        assert calls == Counter(obj.bbox for obj in scene.objects)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_one_gradient_per_step_and_none_for_the_end_state(self, two_object_scene, monkeypatch, mode):
        # the log holds "step" for each factor half, then the maps each chain of the gradient's factors reads
        log = []
        factors, real = optimizer._step_factors, optimizer._surrogate

        def logging(*args):
            surrogate = real(*args)
            chain = surrogate.chain

            def logged(products, grad, lo, hi):
                log.append(sum(len(u) for u, *_ in products))
                return chain(products, grad, lo, hi)

            surrogate.chain = logged
            return surrogate

        monkeypatch.setattr(optimizer, "_step_factors", lambda *a: log.append("step") or factors(*a))
        monkeypatch.setattr(optimizer, "_surrogate", logging)
        cfg = GuidanceConfig(total_steps=7, eta0=1.0 if mode == "raster" else 0.1)
        latent0 = init_latent(two_object_scene, mode, seed=6)
        # both maps in one tile, then one map per tile
        for tile_entries, products in ((optimizer._TILE_ENTRIES, [2]), (16 * 16, [1, 1])):
            log.clear()
            with mock.patch.object(optimizer, "_TILE_ENTRIES", tile_entries):
                traj = run_guidance(two_object_scene, cfg, latent0)
            assert log == ["step", *products] * 7 and traj.terms.total.shape == (8,)

    def test_trajectory_length_and_stage_labels(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=8, stage1_fraction=0.5, eta0=1.0)
        latent0 = init_latent(two_object_scene, "raster", seed=4)
        traj = run_guidance(two_object_scene, cfg, latent0)
        assert traj.eta.shape == (9,)
        stages = traj.terms.stage.tolist()
        assert stages == [1, 1, 1, 1, 2, 2, 2, 2, 2]
        transitions = sum(1 for a, b in zip(stages, stages[1:]) if a != b)
        assert transitions == 1

    def test_determinism_bit_identical(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=20, eta0=5.0)
        latent0 = init_latent(two_object_scene, "raster", seed=5)
        t1 = run_guidance(two_object_scene, cfg, latent0)
        t2 = run_guidance(two_object_scene, cfg, latent0)
        assert same_bits(t1.final_latent.values, t2.final_latent.values)
        assert same_bits(t1.eta, t2.eta)
        assert_same_breakdown(t1.terms, t2.terms)

    def test_descent_at_small_step_size(self):
        scene = canonical_scene()
        cfg = GuidanceConfig(total_steps=55, eta0=0.01, eta_decay=1.0)
        latent0 = init_latent(scene, "raster", seed=42)
        traj = run_guidance(scene, cfg, latent0)
        stage1 = traj.terms.total[traj.terms.stage == 1][:51]
        assert all(b <= a for a, b in zip(stage1, stage1[1:]))

    def test_stage_switch_total_drops_ortho(self, two_object_scene):
        cfg = GuidanceConfig(total_steps=6, stage1_fraction=0.5, eta0=1.0)
        latent0 = init_latent(two_object_scene, "raster", seed=6)
        traj = run_guidance(two_object_scene, cfg, latent0)
        bd = traj.terms.take(3)
        assert bd.stage == 2
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
        assert traj.terms.total.shape == (11,)
        assert traj.terms.total[-1] <= traj.terms.total[0]


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


# raster and blob latents whose rendered entries are finite (about 8e307) but whose sum is not
OVERSIZED_LATENTS = {
    "raster": np.full((2, 16, 16), 709.0),
    "blob": np.array([[0.35, 0.35, 0.0, 0.0, 709.0], [0.65, 0.65, 0.0, 0.0, 709.0]]),
}


# blob latents of the two-object scene whose g_y overflows (an amplitude e^710) while g_x underflows to 0:
# everywhere (a narrow blob far off the canvas), so every entry of object 0's field is inf * 0 = NaN, or
# only at the columns away from a narrow blob's centre, so its field holds both inf and NaN
INF_TIMES_ZERO_LATENTS = {
    "g_x all 0": np.array([[3.0, 0.35, -5.0, 0.0, 710.0], [0.65, 0.65, -2.0, -2.0, 0.0]]),
    "g_x 0 at some columns": np.array([[0.35, 0.35, -5.0, 0.0, 710.0], [0.65, 0.65, -2.0, -2.0, 0.0]]),
}


class TestAbortPins:
    """A diverging run raises its pinned abort and emits no numpy warning on the way."""

    @pytest.mark.parametrize("name,mode,eta,steps,seed,step,reason", ABORT_PINS)
    def test_diverging_step_size(self, two_object_scene, name, mode, eta, steps, seed, step, reason):
        scene = _scene(name, two_object_scene)
        cfg = GuidanceConfig(total_steps=steps, eta0=eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(scene, cfg, init_latent(scene, mode, seed))
        assert exc_info.value.step == step
        assert str(exc_info.value) == f"non-finite {reason} at step {step}"

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_field_too_large_to_sum_is_a_loss_abort(self, two_object_scene, mode, steps):
        latent0 = LatentState(mode, OVERSIZED_LATENTS[mode])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(two_object_scene, GuidanceConfig(total_steps=steps), latent0)
        assert str(exc_info.value) == "non-finite loss at step 0"

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("case", list(INF_TIMES_ZERO_LATENTS))
    def test_an_overflowing_g_y_times_an_underflowing_g_x_is_a_field_abort(self, two_object_scene, case, steps):
        # the blob reads its field through g_y and g_x, and never forms the dense inf * 0
        latent0 = LatentState("blob", INF_TIMES_ZERO_LATENTS[case])
        surrogate = _surrogate(two_object_scene, "blob", 1)
        with np.errstate(all="ignore"):
            surrogate.render(latent0.values[None])
            maps = surrogate.field()[0, 0]
        assert np.isnan(maps).any() and (np.isnan(maps) | np.isinf(maps)).all()
        assert np.isinf(maps).any() == (case == "g_x 0 at some columns")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(two_object_scene, GuidanceConfig(total_steps=steps), latent0)
        assert str(exc_info.value) == "non-finite rendered field at step 0"
        assert _reference_run(two_object_scene, GuidanceConfig(total_steps=steps, eta0=0.5), latent0) == (
            "abort", 0, "rendered field"
        )


def _loss_of(scene, pairs, cfg, latent, stage, step=None):
    """The stage loss total of `latent`, from a fresh surrogate and plan that reduce its render as the run does;
    with a step size, also the latent z - step * g that step takes."""
    k = len(scene.objects)
    surrogate, plan = _surrogate(scene, latent.mode, 1), _plan(scene, pairs, [cfg])
    surrogate.render(latent.values[None])
    AttentionField(maps=surrogate.field()[0])  # the public, validating field
    surrogate.reduce(plan)
    columns = _columns(plan, [[stage]])
    (_values if step is None else _step_factors)(plan, columns, 0)
    total = columns.total[0, 0]
    if step is None:
        return total, None
    grad = np.empty((k, scene.grid_height, scene.grid_width))
    latent_grad = surrogate.chain(_product_views(plan, [stage], 0, k, grad), grad)
    return total, LatentState(latent.mode, latent.values - step * latent_grad.reshape(latent.values.shape))


def _composed_run(scene, cfg, latent0):
    """The loop written out with a fresh surrogate and plan on every step, and
    the public, validating field and latent wherever there is one."""
    pairs = derive_occlusion_pairs(scene)
    latent, totals = latent0, []
    for t in range(cfg.total_steps):
        total, latent = _loss_of(scene, pairs, cfg, latent, stage_of(t, cfg), step_size(t, cfg))
        totals.append(total)
    field = render_attention(latent, scene)
    totals.append(_loss_of(scene, pairs, cfg, latent, stage_of(cfg.total_steps - 1, cfg))[0])
    return latent, field, totals


class TestSingleRenderLoop:
    @pytest.mark.parametrize("mode,eta", [("raster", 50.0), ("blob", 0.5)])
    def test_equals_composition_of_public_operations(self, two_object_scene, mode, eta):
        # 7 steps with stage1_fraction 0.5: three in stage 1, four in stage 2
        cfg = GuidanceConfig(total_steps=7, stage1_fraction=0.5, eta0=eta, eta_decay=0.9)
        latent0 = init_latent(two_object_scene, mode, seed=8)
        traj = run_guidance(two_object_scene, cfg, latent0)
        latent, field, totals = _composed_run(two_object_scene, cfg, latent0)
        assert traj.terms.stage.tolist() == [1, 1, 1, 2, 2, 2, 2, 2]
        assert traj.terms.total.tolist() == totals
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
        # its factors once per pass, and its dense field once per run, for the trajectory
        import deptharb.scene
        import deptharb.surrogate

        counts = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        blob = deptharb.surrogate._Blob
        monkeypatch.setattr(blob, "render", counting("render", blob.render))
        monkeypatch.setattr(blob, "field", counting("field", blob.field))
        real_centers = deptharb.scene.pixel_centers
        for name, module in list(sys.modules.items()):
            if name == "deptharb" or name.startswith("deptharb."):
                for attr, obj in list(vars(module).items()):
                    if obj is real_centers:
                        monkeypatch.setattr(module, attr, counting("pixel_centers", real_centers))
        grids = []
        for steps in (3, 9):
            counts.clear()
            cfg = GuidanceConfig(total_steps=steps, eta0=0.5)
            run_guidance(two_object_scene, cfg, init_latent(two_object_scene, "blob", seed=1))
            assert counts["render"] == steps + 1
            assert counts["field"] == 1
            grids.append(counts["pixel_centers"])
        # the blob surrogate and the plan read the centres, once per run
        assert grids[0] == grids[1] > 0


def _arrays(value):
    """Every array in a value, through nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


class TestRunOnThePlannedKernel:
    @pytest.mark.parametrize("mode,eta", [("raster", 800.0), ("blob", 0.5)])
    def test_records_equal_the_reference_kernel_loop(self, canonical, mode, eta):
        # 5 steps with stage1_fraction 0.5: two in stage 1, three in stage 2
        cfg = GuidanceConfig(total_steps=5, eta0=eta, eta_decay=0.9)
        latent0 = init_latent(canonical, mode, seed=0)
        traj = run_guidance(canonical, cfg, latent0)
        eta, terms, _, _ = reference_run(canonical, cfg, latent0)
        assert traj.terms.stage.tolist() == [1, 1, 2, 2, 2, 2]
        assert same_bits(traj.eta, eta)
        assert_same_breakdown(traj.terms, terms)

    @pytest.mark.parametrize("mode,eta", [("raster", 800.0), ("blob", 0.5)])
    def test_records_share_no_memory_with_each_other_or_the_plan(self, canonical, monkeypatch, mode, eta):
        plans = []

        def capture(*args):
            plans.append(losses._plan(*args))
            return plans[-1]

        monkeypatch.setattr(optimizer, "_plan", capture)
        cfg = GuidanceConfig(total_steps=5, eta0=eta)
        traj = run_guidance(canonical, cfg, init_latent(canonical, mode, seed=0))
        (plan,) = plans
        plan_arrays = list(_arrays(tuple(vars(plan).values())))
        arrays = [traj.eta, *(value for value in vars(traj.terms).values() if isinstance(value, np.ndarray))]
        assert len(arrays) == 13
        assert all(a.size for a in arrays)  # an empty array shares nothing
        for n, a in enumerate(arrays):
            for b in arrays[n + 1:] + plan_arrays:
                assert not np.shares_memory(a, b)


    @pytest.mark.parametrize("mode", MODES)
    def test_last_pass_is_the_end_states_staged_loss(self, canonical, mode):
        # a run that ends in stage 2 and one that ends in stage 1, alone and as lockstep rows
        pairs = derive_occlusion_pairs(canonical)
        base = with_default_step(GuidanceConfig(total_steps=5), mode)
        cfgs = [base.updated(stage1_fraction=v) for v in (0.5, 1.0)]
        latent0 = init_latent(canonical, mode, seed=0)
        runs = [(cfg, run_guidance(canonical, cfg, latent0)) for cfg in cfgs]
        runs += zip(cfgs, chain.from_iterable(run_rows(canonical, cfgs, latent0)))
        assert [_final_stage(cfg) for cfg, _ in runs] == [2, 1, 2, 1]
        for cfg, traj in runs:
            dense = staged_loss(traj.final_field, canonical, pairs, cfg, _final_stage(cfg))
            if mode == "raster":
                assert_same_breakdown(traj.terms.take(-1), dense)
                continue
            # the blob reduces its field through its factors: bit for bit their reference, and
            # the dense loss to rounding
            plan = reference_plan(canonical, pairs, cfg)
            reductions = reference_render(mode, traj.final_latent.values, plan)[1]
            assert_same_breakdown(traj.terms.take(-1), reduced_values(reductions, plan, _final_stage(cfg))[0])
            assert traj.terms.total[-1] == pytest.approx(dense.total, rel=1e-12, abs=0.0)


# line lengths around numpy's unrolled reduction blocks and their tail loops
LINE_SIZES = [1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65]
# non-finite entries, and large finite ones
PLANTED = [math.nan, math.inf, -math.inf, 1e200, -1e300, 1.5e154]


def _drawn(maps, lo, hi):
    """The maps that `render(values, lo, hi)` writes or `reduce(plan, lo, hi)` reduces, as indices into the B * K-map
    stack of its field `maps`."""
    return range(maps.shape[0] * maps.shape[1])[lo:hi]


class TestFinitePredicate:
    """A row whose loss total is not finite is a field abort iff one entry of its field is not finite."""

    @pytest.mark.parametrize("value", PLANTED)
    @pytest.mark.parametrize("at", [0, 1, 8 * 256 * 256 - 1])
    def test_one_planted_entry_in_a_full_field(self, monkeypatch, value, at):
        # a 256x256, K = 8 field too large to sum, so the scan alone tells the two apart.  A blob
        # field is g_y (x) g_x: every map's g_y is 1e306 and its g_x 1, and the planted map's g_x
        # at the planted entry's column is value / 1e306, so that column of the field reads value
        scene = parse_scene(json.dumps(scenegen.large_scene(1)))
        real = optimizer._surrogate

        def planted(*args):
            surrogate = real(*args)
            render = surrogate.render

            def render_planted(values, lo=0, hi=None):
                render(values, lo, hi)
                gy, gx = surrogate._left[:, 0], surrogate._gx  # row 0's maps, the whole stack of a one-row run
                for m in _drawn(surrogate.maps, lo, hi):
                    gy[m], gx[m] = 1e306, 1.0
                    if m == at // gy[m].size // gx[m].size:
                        gx[m, at % gx[m].size] = value / 1e306

            surrogate.render = render_planted
            return surrogate

        monkeypatch.setattr(optimizer, "_surrogate", planted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(scene, GuidanceConfig(total_steps=0, eta0=1.0), init_latent(scene, "blob", 0))
        reason = "loss" if math.isfinite(value) else "rendered field"
        assert str(exc_info.value) == f"non-finite {reason} at step 0"


class TestRowFaults:
    """A tile's per-row check names exactly the live rows whose lines a literal scan fails."""

    @given(st.integers(1, 4), st.sampled_from(LINE_SIZES), st.integers(0, 3), st.data())
    @settings(max_examples=300)
    def test_equals_the_literal_scan(self, rows, n, first, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.uniform(-3.0, 3.0, size=(rows, n))
        # non-finite entries, and finite ones whose sum overflows
        for value in data.draw(st.lists(st.sampled_from(PLANTED + [1.7e308, -1.7e308]), max_size=4), label="planted"):
            values.flat[int(rng.integers(values.size))] = value
        aborts = data.draw(st.lists(st.sampled_from([None, "aborted"]), min_size=first + rows, max_size=first + rows))
        before = values.copy()
        with np.errstate(all="ignore"):  # as inside the run loop
            got = optimizer._faults(values, range(first, first + rows), aborts, np.empty(rows))
        want = [first + r for r in range(rows) if aborts[first + r] is None and not np.isfinite(values[r]).all()]
        assert got == want
        assert np.array_equal(values, before, equal_nan=True)


def _reference_run(scene, cfg, latent0):
    """The guided loop with the literal np.isfinite(x).all() guards, in their order.

    Returns ("abort", step, reason), or ("done", totals, final latent, final field).
    The field, its reductions and the chain are the reference's (`reference_render`), and
    the gradient checked is the dense U @ V of the factors the chain reads.
    """
    plan = reference_plan(scene, derive_occlusion_pairs(scene), cfg)
    z = latent0.values.copy()
    totals = []
    with np.errstate(all="ignore"):
        for t in range(cfg.total_steps + 1):
            last = t == cfg.total_steps
            stage = final_stage(cfg) if last else stage_of(t, cfg)
            maps, reductions, chain = reference_render(latent0.mode, z, plan)
            if not np.isfinite(maps).all():
                return ("abort", t, "rendered field")
            if last:
                breakdown = reduced_values(reductions, plan, stage)[0]
            else:
                breakdown, (u, v) = reduced_factors(reductions, plan, stage)
            if not math.isfinite(breakdown.total):
                return ("abort", t, "loss")
            totals.append(breakdown.total)
            if last:
                break
            if not np.isfinite(np.matmul(u, v)).all():
                return ("abort", t, "gradient")
            latent_grad = chain(u, v)
            if not np.isfinite(latent_grad).all():
                return ("abort", t, "latent gradient")
            z = z - step_size(t, cfg) * latent_grad
            if not np.isfinite(z).all():
                return ("abort", t, "latent update")
    return ("done", totals, z, maps)


def _guarded_run(scene, cfg, latent0):
    try:
        traj = run_guidance(scene, cfg, latent0)
    except NumericalAbort as exc:
        reason = str(exc).removeprefix("non-finite ").removesuffix(f" at step {exc.step}")
        return ("abort", exc.step, reason)
    totals = traj.terms.total.tolist()
    return ("done", totals, traj.final_latent.values, traj.final_field.maps)


def _same_outcome(got, want):
    if got[0] != want[0] or got[0] == "abort":
        return got == want
    return got[1] == want[1] and np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


class TestGuardEquivalence:
    """The loop's cheap guards abort at the step, and for the reason, the literal scans do."""

    @pytest.mark.parametrize(
        "eta", [1e2, 1e3, 1e4, 1e5, 1e6, 1e8, 1e12, 1e50, 1e100, 1e200, 1e300, math.inf]
    )
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_matches_the_literal_guards(self, two_object_scene, mode, eta):
        # over this grid the literal guards end runs in every way but a
        # gradient or loss abort: completed runs, and aborts on the rendered
        # field, the latent gradient and the latent update at steps 0-2
        cfg = GuidanceConfig(total_steps=6, stage1_fraction=0.5, eta0=eta)
        for scene in (two_object_scene, canonical_scene()):
            for seed in (0, 1, 2):
                latent0 = init_latent(scene, mode, seed)
                got, want = _guarded_run(scene, cfg, latent0), _reference_run(scene, cfg, latent0)
                assert _same_outcome(got, want), (seed, got[:3], want[:3])

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_matches_on_a_field_too_large_to_sum(self, two_object_scene, mode, steps):
        latent0 = LatentState(mode, OVERSIZED_LATENTS[mode])
        cfg = GuidanceConfig(total_steps=steps)
        want = _reference_run(two_object_scene, cfg, latent0)
        assert want == ("abort", 0, "loss")
        assert _guarded_run(two_object_scene, cfg, latent0) == want

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_one_bad_rendered_pixel_is_a_field_abort(self, two_object_scene, monkeypatch, mode, at, value):
        # at == 4 is the last pass, which only renders and evaluates the end state
        import deptharb.optimizer

        real = deptharb.optimizer._surrogate

        def poisoned(*args):
            surrogate = real(*args)
            render, calls = surrogate.render, Counter()

            def render_once_bad(values, lo=0, hi=None):
                render(values, lo, hi)
                # the renders of map 1 of row 0, the planted one: a raster map's pixel (3, 5), or
                # column 5 of a blob map, through its factor g_x
                if 1 in _drawn(surrogate.maps, lo, hi):
                    if calls["render"] == at:
                        if mode == "raster":
                            surrogate.maps[0, 1, 3, 5] = value
                        else:
                            surrogate._gx[1, 5] = value
                    calls["render"] += 1

            surrogate.render = render_once_bad
            return surrogate

        monkeypatch.setattr(deptharb.optimizer, "_surrogate", poisoned)
        cfg = GuidanceConfig(total_steps=4, eta0=1.0 if mode == "raster" else 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(two_object_scene, cfg, init_latent(two_object_scene, mode, seed=3))
        assert str(exc_info.value) == f"non-finite rendered field at step {at}"


# ---------------------------------------------------------------------------
# rows in lockstep
# ---------------------------------------------------------------------------

def _assert_row_is_standalone(scene, cfg, latent0, outcome) -> None:
    """A lockstep row's outcome is, bit for bit, a standalone run of its config."""
    try:
        want = run_guidance(scene, cfg, latent0)
    except NumericalAbort as exc:
        assert isinstance(outcome, NumericalAbort), (str(exc), outcome)
        assert (str(outcome), outcome.step) == (str(exc), exc.step)
        return
    assert not isinstance(outcome, NumericalAbort), str(outcome)
    assert same_bits(outcome.eta, want.eta)
    assert_same_breakdown(outcome.terms, want.terms)
    assert same_bits(outcome.final_latent.values, want.final_latent.values)
    assert same_bits(outcome.final_field.maps, want.final_field.maps)


# per swept field: values a row can take; eta0 runs from each mode's default
# up to steps that abort a run
SWEEP_VALUES = {
    "lambda0": st.floats(0.05, 3.0),
    "alpha": st.floats(-3.0, 3.0),
    "tau": st.floats(0.1, 5.0),
    "lambda_ortho": st.floats(0.0, 2.0),
    "lambda_compact": st.floats(0.0, 2.0),
    "stage1_fraction": st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0]),
}


@st.composite
def lockstep_cases(draw):
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    count = draw(st.integers(1, 5))
    inset = st.floats(0.0, 0.49)
    spans = []  # each box's pixel rows r0..r1-1 and columns c0..c1-1
    objects = []
    for i in range(count):
        # inside the first box (containment), or anywhere
        r_lo, r_hi, c_lo, c_hi = spans[0] if i and draw(st.booleans()) else (0, height, 0, width)
        r0 = draw(st.integers(r_lo, r_hi - 1))
        r1 = draw(st.integers(r0 + 1, r_hi))
        c0 = draw(st.integers(c_lo, c_hi - 1))
        c1 = draw(st.integers(c0 + 1, c_hi))
        spans.append((r0, r1, c0, c1))
        # insets below half a pixel keep pixel centers c0..c1-1, r0..r1-1 inside
        bbox = (
            (c0 + draw(inset)) / width, (r0 + draw(inset)) / height,
            (c1 - draw(inset)) / width, (r1 - draw(inset)) / height,
        )
        # a few depths, so that equal depths (no pair) come up
        depth = draw(st.sampled_from([0.2, 0.5, 0.8]) | st.floats(0.0, 1.0))
        objects.append(SceneObject(id=i, label="", bbox=bbox, depth=depth))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    mode = draw(st.sampled_from(MODES))
    # every field, and more often the two that vary a row's schedule
    param = draw(st.sampled_from(SWEEP_PARAMS) | st.sampled_from(["stage1_fraction", "eta0"]))
    if param == "eta0":
        default = _mode_class(mode).default_eta0
        values = draw(st.lists(st.floats(0.0, 9.0).map(lambda e: default * 10.0**e), min_size=1, max_size=6,
                               unique=True))
    else:
        values = draw(st.lists(SWEEP_VALUES[param], min_size=1, max_size=6))
    steps = draw(st.integers(2, 8) | st.integers(0, 1))
    decay = draw(st.sampled_from([1.0, 0.9]))
    base = with_default_step(GuidanceConfig(total_steps=steps, eta_decay=decay), mode)
    cfgs = [base.updated(**{param: value}) for value in values]
    latent0 = init_latent(scene, mode, draw(st.integers(0, 2**32 - 1)))
    # the rows fit one chunk, or are stepped a few at a time
    rows_per_chunk = draw(st.sampled_from([len(cfgs)]) | st.integers(1, len(cfgs)))
    return scene, cfgs, latent0, rows_per_chunk * height * width * count


class TestLockstepRows:
    """Each row of a lockstep run is the standalone run of its config, bit for bit."""

    @settings(max_examples=300)
    @given(lockstep_cases())
    def test_every_row_is_its_standalone_run(self, case):
        scene, cfgs, latent0, chunk_entries = case
        with mock.patch.object(optimizer, "_CHUNK_ENTRIES", chunk_entries):
            outcomes = list(chain.from_iterable(run_rows(scene, cfgs, latent0)))
        assert len(outcomes) == len(cfgs)
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(scene, cfg, latent0, outcome)

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_in_different_stages_at_one_step(self, canonical, mode):
        # at 4 steps the rows switch stage after 0, 1, 3 and 4 steps, so every
        # step has rows in both stages
        base = with_default_step(GuidanceConfig(total_steps=4), mode)
        cfgs = [base.updated(stage1_fraction=v) for v in (0.0, 0.25, 0.8, 1.0)]
        latent0 = init_latent(canonical, mode, 3)
        outcomes = list(chain.from_iterable(run_rows(canonical, cfgs, latent0)))
        stages = [outcome.terms.stage.tolist() for outcome in outcomes]
        assert stages == [[2, 2, 2, 2, 2], [1, 2, 2, 2, 2], [1, 1, 1, 2, 2], [1, 1, 1, 1, 1]]
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    def test_an_aborted_row_leaves_the_others_running(self, canonical):
        # raster rows at eta0 1e9 and 1e6 diverge at steps 1 and 2; the
        # others run all 20 steps
        cfgs = [GuidanceConfig(total_steps=20, eta0=eta) for eta in (800.0, 1e6, 1e9, 400.0)]
        latent0 = init_latent(canonical, "raster", 3)
        outcomes = list(chain.from_iterable(run_rows(canonical, cfgs, latent0)))
        assert [str(o) for o in outcomes[1:3]] == [
            "non-finite rendered field at step 2", "non-finite rendered field at step 1",
        ]
        assert [o.eta.shape for o in (outcomes[0], outcomes[3])] == [(21,), (21,)]
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    @pytest.mark.parametrize("bound", ["_CHUNK_ENTRIES", "_PASS_ENTRIES"])
    @pytest.mark.parametrize("mode", MODES)
    def test_rows_are_stepped_in_chunks_of_bounded_field_size(self, canonical, mode, monkeypatch, bound):
        # the budgets count field entries (K * H * W per row), whatever the
        # latent's shape, and passes (total_steps + 1 per row)
        budget = {"_CHUNK_ENTRIES": 2 * 2 * 64 * 64 + 1, "_PASS_ENTRIES": 2 * 4 + 1}[bound]
        monkeypatch.setattr(optimizer, bound, budget)
        chunk_rows = []
        real = optimizer._run_chunk

        def recording(scene, plan, latent0):
            chunk_rows.append(len(plan.cfgs))
            return real(scene, plan, latent0)

        monkeypatch.setattr(optimizer, "_run_chunk", recording)
        base = with_default_step(GuidanceConfig(total_steps=3), mode)
        cfgs = [base.updated(lambda_ortho=v) for v in (0.1, 0.2, 0.4, 0.8, 1.6)]
        latent0 = init_latent(canonical, mode, 0)
        chunks = run_rows(canonical, cfgs, latent0)
        assert chunk_rows == []  # nothing is stepped before the iterator is read
        chunks = list(chunks)
        assert chunk_rows == [len(chunk) for chunk in chunks] == [2, 2, 1]
        for cfg, outcome in zip(cfgs, chain.from_iterable(chunks)):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    def test_a_run_of_more_passes_than_the_bound_is_refused_before_any_chunk(self, canonical, monkeypatch):
        # 4 passes fit a bound of 4; 5 are refused before any schedule is built
        monkeypatch.setattr(optimizer, "_PASS_ENTRIES", 4)
        monkeypatch.setattr(optimizer, "_schedule", lambda cfgs: pytest.fail("a schedule was built"))
        latent0 = init_latent(canonical, "raster", 0)
        run_rows(canonical, [GuidanceConfig(total_steps=3, eta0=1.0)], latent0)
        with pytest.raises(ConfigError, match="^total_steps: 4 exceeds the 3 steps a run can take$"):
            run_rows(canonical, [GuidanceConfig(total_steps=4, eta0=1.0)], latent0)

    def test_no_config_is_refused_when_called(self, canonical, monkeypatch):
        # cfgs[0] raised IndexError for an empty list of rows
        monkeypatch.setattr(optimizer, "_run_chunk", lambda *a: pytest.fail("a chunk ran"))
        with pytest.raises(ValueError, match="^run_rows needs at least one config, got none$"):
            run_rows(canonical, [], init_latent(canonical, "raster", 0))

    def test_terms_are_views_of_their_chunks_columns(self, canonical):
        # the kernel writes each pass into the chunk's columns; a row's terms read its line of them, no copy
        cfgs = [GuidanceConfig(total_steps=4, eta0=eta) for eta in (400.0, 800.0)]
        latent0 = init_latent(canonical, "raster", 0)
        outcomes = list(chain.from_iterable(run_rows(canonical, cfgs, latent0)))
        columns = outcomes[0]._columns
        assert outcomes[1]._columns is columns  # one chunk, one set of columns
        for b, outcome in enumerate(outcomes):
            terms = outcome.terms
            assert terms.pairs is columns.pairs
            for name in (f.name for f in fields(terms) if f.name != "pairs"):
                value, column = getattr(terms, name), getattr(columns, name)
                assert column.base is None and column.shape[:2] == (5, 2), name
                assert value.base is column and same_bits(value, column[:, b]), name
                assert byte_bounds(value) == byte_bounds(column[:, b]), name

    @pytest.mark.parametrize("mode", MODES)
    def test_kept_terms_survive_every_later_chunk(self, canonical, mode):
        # one row per chunk, every row's terms read only once the last chunk has run:
        # no chunk writes under a trajectory an earlier one returned
        base = with_default_step(GuidanceConfig(total_steps=4), mode)
        cfgs = [base.updated(lambda_ortho=v) for v in (0.1, 0.4, 1.6)]
        latent0 = init_latent(canonical, mode, 0)
        with mock.patch.object(optimizer, "_CHUNK_ENTRIES", 1):
            outcomes = list(chain.from_iterable(run_rows(canonical, cfgs, latent0)))
        assert len({id(outcome._columns) for outcome in outcomes}) == 3
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)
            _row_matches_the_reference_loop(canonical, cfg, latent0, outcome)

    def test_rows_must_share_their_step_count(self, canonical):
        cfgs = [GuidanceConfig(total_steps=steps, eta0=1.0) for steps in (3, 4)]
        with pytest.raises(ValueError, match="same total_steps"):
            run_rows(canonical, cfgs, init_latent(canonical, "raster", 0))

    def test_a_plan_needs_a_row(self, canonical):
        with pytest.raises(ValueError, match="at least one row config"):
            _plan(canonical, derive_occlusion_pairs(canonical), [])


# ---------------------------------------------------------------------------
# tiles
# ---------------------------------------------------------------------------

def _row_matches_the_reference_loop(scene, cfg, latent0, outcome) -> None:
    """A row's eta, terms, final latent and final field are, bit for bit, the untiled reference loop's."""
    eta, terms, latent, maps = reference_run(scene, cfg, latent0)
    assert same_bits(outcome.eta, eta)
    assert_same_breakdown(outcome.terms, terms)
    assert same_bits(outcome.final_latent.values, latent)
    assert same_bits(outcome.final_field.maps, maps)


class TestTileBoundaries:
    """However a step's maps fall into tiles, each row's run is its untiled one, bit for bit."""

    @pytest.mark.parametrize("tiling", ["one map per tile", "two rows per tile"])
    @pytest.mark.parametrize("mode", MODES)
    def test_rows_equal_the_reference_loop_and_standalone_runs(self, canonical, mode, tiling):
        # at 4 steps the rows switch stage after 0, 1, 3, 4 and 2 steps, so a
        # two-row tile holds rows in different stages; the fifth row is a tile alone
        base = with_default_step(GuidanceConfig(total_steps=4), mode)
        cfgs = [base.updated(stage1_fraction=v) for v in (0.0, 0.25, 0.8, 1.0, 0.5)]
        latent0 = init_latent(canonical, mode, 3)
        map_entries = canonical.grid_height * canonical.grid_width
        rows = 1 if tiling == "one map per tile" else 2
        tile_entries = map_entries if rows == 1 else rows * len(canonical.objects) * map_entries
        tiles = []
        real = optimizer._tiles
        with mock.patch.object(optimizer, "_TILE_ENTRIES", tile_entries), \
                mock.patch.object(optimizer, "_tiles", lambda *a: tiles.append(real(*a)) or tiles[-1]):
            outcomes = list(chain.from_iterable(run_rows(canonical, cfgs, latent0)))
        assert [(tile.lo, tile.hi) for tile in tiles[0]] == (
            [(m, m + 1) for m in range(10)] if rows == 1 else [(0, 4), (4, 8), (8, 10)]
        )
        assert [outcome.terms.stage.tolist()[:2] for outcome in outcomes[:2]] == [[2, 2], [1, 2]]
        for cfg, outcome in zip(cfgs, outcomes):
            _row_matches_the_reference_loop(canonical, cfg, latent0, outcome)
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    @settings(max_examples=150)
    @given(lockstep_cases(), st.data())
    def test_every_tile_size_gives_the_standalone_runs(self, case, data):
        scene, cfgs, latent0, chunk_entries = case
        size = len(scene.objects) * scene.grid_height * scene.grid_width
        tile_entries = data.draw(st.integers(1, 2 * len(cfgs) * size), label="tile_entries")
        with mock.patch.object(optimizer, "_CHUNK_ENTRIES", chunk_entries), \
                mock.patch.object(optimizer, "_TILE_ENTRIES", tile_entries):
            outcomes = list(chain.from_iterable(run_rows(scene, cfgs, latent0)))
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(scene, cfg, latent0, outcome)

    @pytest.mark.parametrize("name,mode,eta,steps,seed,step,reason", ABORT_PINS)
    def test_abort_pins_hold_at_one_map_per_tile(self, two_object_scene, name, mode, eta, steps, seed, step, reason):
        scene = _scene(name, two_object_scene)
        cfg = GuidanceConfig(total_steps=steps, eta0=eta)
        with mock.patch.object(optimizer, "_TILE_ENTRIES", 1):
            with pytest.raises(NumericalAbort) as exc_info:
                run_guidance(scene, cfg, init_latent(scene, mode, seed))
        assert str(exc_info.value) == f"non-finite {reason} at step {step}"


def _partition(draw, batch: int, k: int, whole_rows: bool) -> list[tuple[int, int]]:
    """Tiles (lo, hi) over the B * K maps of a run's stack, cut where hypothesis draws: runs of whole rows, or
    runs of maps of one row."""
    def runs(count: int) -> list[tuple[int, int]]:
        cuts = draw(st.lists(st.booleans(), min_size=count - 1, max_size=count - 1))
        ends = [n for n, cut in enumerate(cuts, 1) if cut] + [count]
        return list(zip([0, *ends[:-1]], ends))

    if whole_rows:
        return [(lo * k, hi * k) for lo, hi in runs(batch)]
    return [(b * k + lo, b * k + hi) for b in range(batch) for lo, hi in runs(k)]


def _tiled_and_whole(scene, mode, values, tiles):
    """The field and reductions of latent `values` (B, ...) rendered, reduced and chained tile by tile, and at
    once.

    Each is (maps, row_dots, col_sum, the blob or raster chain of one fixed set of gradient factors); the
    tiled buffers start out NaN, so an entry no tile writes shows.  Rows alternate between the stages, so a
    tile can chain two runs of maps.
    """
    batch, k = len(values), len(scene.objects)
    cfgs = [GuidanceConfig()] * batch
    stages = [1 + b % 2 for b in range(batch)]
    pairs = derive_occlusion_pairs(scene)
    out = []
    for tiling in (tiles, [(0, batch * k)]):
        surrogate, plan = _surrogate(scene, mode, batch), _plan(scene, pairs, cfgs)
        for column in plan.columns:
            column[...] = np.random.default_rng(0).uniform(-1.0, 1.0, column.shape)
        for array in (surrogate.maps, plan.scratch.row_dots, plan.scratch.col_sum):
            array.fill(math.nan)
        stack = values.reshape(batch * k, -1)
        for lo, hi in tiling:
            surrogate.render(stack[lo:hi], lo, hi)
            surrogate.reduce(plan, lo, hi)
        chained = []
        for lo, hi in tiling:
            grad = np.empty((hi - lo, scene.grid_height, scene.grid_width))
            chained.append(surrogate.chain(_product_views(plan, stages, lo, hi, grad), grad, lo, hi).copy())
        out.append((surrogate.field(), plan.scratch.row_dots, plan.scratch.col_sum, np.concatenate(chained)))
    return out


def _rows_of(scene, mode, batch):
    """B distinct start latents of `mode` for `scene`, one per row."""
    return np.stack([init_latent(scene, mode, seed).values for seed in range(batch)])


class TestTilePartitions:
    """Rendering and reducing a field tile by tile writes, bit for bit, what the whole-field calls write."""

    @settings(max_examples=150)
    @given(lockstep_cases(), st.integers(1, 3), st.booleans(), st.data())
    def test_any_partition_equals_the_whole_field(self, case, batch, whole_rows, data):
        scene = case[0]
        mode = data.draw(st.sampled_from(MODES), label="mode")
        tiles = _partition(data.draw, batch, len(scene.objects), whole_rows)
        tiled, whole = _tiled_and_whole(scene, mode, _rows_of(scene, mode, batch), tiles)
        for got, want in zip(tiled, whole):
            assert same_bits(got, want)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("field", ["large_scene(1)", "2 pixels tall"])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_map_tiled_fields_equal_the_whole_field(self, mode, field, data):
        # a 256x256, K = 8 field, and a 2x40000, K = 2 one: fields whose rows a run splits into map tiles
        if field == "large_scene(1)":
            scene = parse_scene(json.dumps(scenegen.large_scene(1)))
        else:
            scene = SceneSpec(grid_height=2, grid_width=40000, objects=(
                SceneObject(id=0, label="", bbox=(0.1, 0.0, 0.6, 1.0), depth=0.2),
                SceneObject(id=1, label="", bbox=(0.4, 0.0, 0.9, 1.0), depth=0.8),
            ))
        size = len(scene.objects) * scene.grid_height * scene.grid_width
        assert size > optimizer._TILE_ENTRIES
        tiles = _partition(data.draw, 1, len(scene.objects), whole_rows=False)
        tiled, whole = _tiled_and_whole(scene, mode, _rows_of(scene, mode, 1), tiles)
        for got, want in zip(tiled, whole):
            assert same_bits(got, want)

    @pytest.mark.parametrize("tile_entries", [optimizer._TILE_ENTRIES, 2 * 16 * 16, 16 * 16])
    @pytest.mark.parametrize("mode", MODES)
    def test_each_map_is_rendered_once_per_pass(self, two_object_scene, monkeypatch, mode, tile_entries):
        # 3 rows of 2 maps in one tile, a row per tile or a map per tile; 5 steps and the end state are 6 passes
        renders, reduces = Counter(), Counter()
        real = optimizer._surrogate

        def counted(*args):
            surrogate = real(*args)
            render, reduce = surrogate.render, surrogate.reduce

            def counting_render(values, lo=0, hi=None):
                render(values, lo, hi)
                renders.update(_drawn(surrogate.maps, lo, hi))

            def counting_reduce(plan, lo=0, hi=None):
                reduce(plan, lo, hi)
                reduces.update(_drawn(surrogate.maps, lo, hi))

            surrogate.render, surrogate.reduce = counting_render, counting_reduce
            return surrogate

        monkeypatch.setattr(optimizer, "_surrogate", counted)
        monkeypatch.setattr(optimizer, "_TILE_ENTRIES", tile_entries)
        base = with_default_step(GuidanceConfig(total_steps=5), mode)
        cfgs = [base.updated(lambda_ortho=v) for v in (0.5, 1.0, 2.0)]
        outcomes = list(chain.from_iterable(run_rows(two_object_scene, cfgs, init_latent(two_object_scene, mode, 4))))
        assert all(isinstance(outcome, optimizer.Trajectory) for outcome in outcomes)
        assert renders == {m: 6 for m in range(6)}
        assert reduces == {m: 6 for m in range(6)}


def _poisoned_at(step: int, poison):
    """The run loop's factor half, with `poison(plan)` applied after its call at `step`."""
    real, calls = optimizer._step_factors, Counter()

    def step_factors(plan, *columns):
        real(plan, *columns)
        if calls["steps"] == step:
            poison(plan)
        calls["steps"] += 1

    return step_factors


def _chain_poisoned_at(step: int, planted: int):
    """The run loop's surrogate, whose every chain of map `planted` at `step` holds a NaN."""
    real = optimizer._surrogate

    def surrogate_of(*args):
        surrogate = real(*args)
        render, chain, renders = surrogate.render, surrogate.chain, Counter()

        def counted_render(values, lo=0, hi=None):
            render(values, lo, hi)
            # the renders of the planted map: its chain at `step` follows the render of pass `step`
            renders["n"] += planted in _drawn(surrogate.maps, lo, hi)

        def poisoned_chain(products, grad, lo, hi):
            out = chain(products, grad, lo, hi)
            if renders["n"] == step + 1 and lo <= planted < hi:
                out[planted - lo].flat[3] = math.nan
            return out

        surrogate.render, surrogate.chain = counted_render, poisoned_chain
        return surrogate

    return surrogate_of


# (rows, faulty row, planted map) of each case: the planted map shares a tile
# with the rest of its row, is the second tile of a row split one map a tile,
# or is one of three lockstep rows sharing a tile
PLANT_CASES = {"one tile": (1, 0, 1), "second tile of a row": (1, 0, 1), "lockstep row": (3, 1, 2)}


def _planted_run(scene, mode, case, eta0=None, **patches):
    """Every row's outcome of a run of PLANT_CASES[case] under the given patches of `optimizer`; and the configs."""
    rows = PLANT_CASES[case][0]
    base = with_default_step(GuidanceConfig(total_steps=4, eta0=eta0), mode)
    cfgs = [base.updated(lambda_ortho=v) for v in (0.5, 1.0, 2.0)[:rows]]
    tile_entries = 16 * 16 if case == "second tile of a row" else optimizer._TILE_ENTRIES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(optimizer, "_TILE_ENTRIES", tile_entries), mock.patch.multiple(optimizer, **patches):
            return list(chain.from_iterable(run_rows(scene, cfgs, init_latent(scene, mode, 5)))), cfgs


class TestPlantedFaults:
    """TestGuardEquivalence's grid never reaches a gradient abort; planted faults do, in any tile."""

    def _check(self, scene, mode, case, outcomes, cfgs, abort):
        row = PLANT_CASES[case][1]
        assert str(outcomes[row]) == abort
        for b, (cfg, outcome) in enumerate(zip(cfgs, outcomes)):
            if b != row:
                _assert_row_is_standalone(scene, cfg, init_latent(scene, mode, 5), outcome)

    @pytest.mark.parametrize("case", list(PLANT_CASES))
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("mode", MODES)
    def test_a_non_finite_factor_is_a_gradient_abort(self, two_object_scene, mode, value, case):
        def poison(plan):
            # U[:, :, 1] multiplies a column of ones: a whole line of the map's gradient
            plan.columns[1][PLANT_CASES[case][2], 7] = value

        outcomes, cfgs = _planted_run(two_object_scene, mode, case, _step_factors=_poisoned_at(1, poison))
        self._check(two_object_scene, mode, case, outcomes, cfgs, "non-finite gradient at step 1")

    @pytest.mark.parametrize("mode", MODES)
    def test_a_gradient_fault_outranks_an_update_fault_in_an_earlier_tile(self, two_object_scene, mode):
        # at eta0 = inf every map's update fails at step 0; map 1's gradient, the second tile, too
        def poison(plan):
            plan.columns[1][1, 7] = math.nan

        case = "second tile of a row"
        outcomes, cfgs = _planted_run(two_object_scene, mode, case, math.inf, _step_factors=_poisoned_at(0, poison))
        self._check(two_object_scene, mode, case, outcomes, cfgs, "non-finite gradient at step 0")

    @pytest.mark.parametrize("case", list(PLANT_CASES))
    @pytest.mark.parametrize("mode", MODES)
    def test_a_non_finite_latent_gradient_is_told_from_an_update_fault(self, two_object_scene, mode, case):
        planted = PLANT_CASES[case][2]
        outcomes, cfgs = _planted_run(two_object_scene, mode, case, _surrogate=_chain_poisoned_at(1, planted))
        self._check(two_object_scene, mode, case, outcomes, cfgs, "non-finite latent gradient at step 1")
