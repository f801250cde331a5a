from __future__ import annotations

import math
import sys
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    render_attention,
    run_guidance,
    staged_loss,
)
from deptharb import losses, optimizer
from deptharb.losses import _plan, _values, value_and_grad
from deptharb.cli import SWEEP_PARAMS
from deptharb.optimizer import _all_finite, _final_stage, run_rows, stage_of, step_size
from deptharb.surrogate import MODES, _mode_class, _surrogate, with_default_step

from reference import assert_same_breakdown, reference_run, same_bits


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

    def test_unset_eta0_is_a_config_error(self):
        # the default step belongs to the surrogate mode, which a config does not know
        assert GuidanceConfig().eta0 is None
        with pytest.raises(ConfigError, match="^eta0 is not set"):
            step_size(0, GuidanceConfig())


class TestDefaultStep:
    @pytest.mark.parametrize("mode", MODES)
    def test_library_run_steps_at_the_modes_default(self, canonical, mode):
        # only where the step comes from is pinned: seed 0 collapses in blob mode
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
        surrogate = _surrogate(two_object_scene, "raster", 1)
        maps = surrogate.render(latent0.values[None])
        grad = value_and_grad(maps, _plan(two_object_scene, pairs, [cfg]), [1])[1]
        expected = latent0.values - 0.5 * surrogate.chain(grad)[0]
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
        assert len(calls) == 7 and traj.terms.total.shape == (8,)

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


def _composed_run(scene, cfg, latent0):
    """The loop written out with a fresh surrogate and plan on every step, and
    the public, validating field, latent and loss wherever there is one."""
    pairs = derive_occlusion_pairs(scene)
    latent, totals = latent0, []
    for t in range(cfg.total_steps):
        surrogate = _surrogate(scene, latent.mode, 1)
        field = AttentionField(maps=surrogate.render(latent.values[None])[0])
        stage = stage_of(t, cfg)
        totals.append(staged_loss(field, scene, pairs, cfg, stage).total)
        grad = value_and_grad(field.maps[None], _plan(scene, pairs, [cfg]), [stage])[1]
        step = step_size(t, cfg) * surrogate.chain(grad)[0]
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
        eta, terms = reference_run(canonical, cfg, latent0)
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
        runs += zip(cfgs, run_rows(canonical, cfgs, latent0))
        assert [_final_stage(cfg) for cfg, _ in runs] == [2, 1, 2, 1]
        for cfg, traj in runs:
            want = staged_loss(traj.final_field, canonical, pairs, cfg, _final_stage(cfg))
            assert_same_breakdown(traj.terms.take(-1), want)


# sizes around the BLAS dot kernel's unrolled blocks and tail loops, and a
# 256x256 field of 8 maps
PREDICATE_SIZES = [0, 1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 8 * 256 * 256]
# non-finite entries, and finite ones whose squares overflow
PLANTED = [math.nan, math.inf, -math.inf, 1e200, -1e300, 1.5e154]


@st.composite
def guarded_arrays(draw):
    n = draw(st.sampled_from(PREDICATE_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.uniform(-3.0, 3.0, size=2 * n)
    view = draw(st.sampled_from(["contiguous", "strided", "reversed", "transposed"]))
    if view == "contiguous":
        a = base[:n]
    elif view == "strided":
        a = base[::2]
    elif view == "reversed":
        a = base[::-1][:n]
    else:
        a = base.reshape(2, n).T
    if a.size:
        for value in draw(st.lists(st.sampled_from(PLANTED), max_size=3)):
            a[np.unravel_index(int(rng.integers(a.size)), a.shape)] = value
    return a


class TestFinitePredicate:
    @given(guarded_arrays())
    @settings(max_examples=300)
    def test_equals_the_literal_scan(self, a):
        before = a.copy()
        with np.errstate(all="ignore"):  # as inside the run loop
            assert _all_finite(a) == bool(np.isfinite(a).all())
        assert np.array_equal(a, before, equal_nan=True)

    @pytest.mark.parametrize("value", PLANTED)
    @pytest.mark.parametrize("at", [0, 1, 8 * 256 * 256 - 1])
    def test_one_planted_entry_in_a_full_field(self, value, at):
        a = np.ones(8 * 256 * 256)
        a[at] = value
        with np.errstate(all="ignore"):
            assert _all_finite(a) == math.isfinite(value)


def _reference_run(scene, cfg, latent0):
    """The guided loop with the literal np.isfinite(x).all() guards, in their order.

    Returns ("abort", step, reason), or ("done", totals, final latent, final field).
    """
    plan = _plan(scene, derive_occlusion_pairs(scene), [cfg])
    surrogate = _surrogate(scene, latent0.mode, 1)
    z = latent0.values[None].copy()
    totals = []
    with np.errstate(all="ignore"):
        for t in range(cfg.total_steps + 1):
            last = t == cfg.total_steps
            stage = _final_stage(cfg) if last else stage_of(t, cfg)
            maps = surrogate.render(z)
            if not np.isfinite(maps).all():
                return ("abort", t, "rendered field")
            if last:
                breakdown = _values(maps, plan, [stage])[0].take(0)
            else:
                terms, grad = value_and_grad(maps, plan, [stage])
                breakdown = terms.take(0)
            if not math.isfinite(breakdown.total):
                return ("abort", t, "loss")
            totals.append(breakdown.total)
            if last:
                break
            if not np.isfinite(grad).all():
                return ("abort", t, "gradient")
            latent_grad = surrogate.chain(grad)
            if not np.isfinite(latent_grad).all():
                return ("abort", t, "latent gradient")
            z = z - step_size(t, cfg) * latent_grad
            if not np.isfinite(z).all():
                return ("abort", t, "latent update")
    return ("done", totals, z[0], maps[0])


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

            def render_once_bad(z):
                maps = render(z)
                if calls["render"] == at:
                    maps[0, 1, 3, 5] = value
                calls["render"] += 1
                return maps

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
            outcomes = list(run_rows(scene, cfgs, latent0))
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
        outcomes = list(run_rows(canonical, cfgs, latent0))
        stages = [outcome.terms.stage.tolist() for outcome in outcomes]
        assert stages == [[2, 2, 2, 2, 2], [1, 2, 2, 2, 2], [1, 1, 1, 2, 2], [1, 1, 1, 1, 1]]
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    def test_an_aborted_row_leaves_the_others_running(self, canonical):
        # raster rows at eta0 1e9 and 1e6 diverge at steps 1 and 2; the
        # others run all 20 steps
        cfgs = [GuidanceConfig(total_steps=20, eta0=eta) for eta in (800.0, 1e6, 1e9, 400.0)]
        latent0 = init_latent(canonical, "raster", 3)
        outcomes = list(run_rows(canonical, cfgs, latent0))
        assert [str(o) for o in outcomes[1:3]] == [
            "non-finite rendered field at step 2", "non-finite rendered field at step 1",
        ]
        assert [o.eta.shape for o in (outcomes[0], outcomes[3])] == [(21,), (21,)]
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_are_stepped_in_chunks_of_bounded_field_size(self, canonical, mode, monkeypatch):
        # the budget counts field entries (K * H * W per row), whatever the latent's shape
        monkeypatch.setattr(optimizer, "_CHUNK_ENTRIES", 2 * 2 * 64 * 64 + 1)
        chunk_rows = []
        real = optimizer._run_chunk

        def recording(scene, plan, latent0):
            chunk_rows.append(len(plan.cfgs))
            return real(scene, plan, latent0)

        monkeypatch.setattr(optimizer, "_run_chunk", recording)
        base = with_default_step(GuidanceConfig(total_steps=3), mode)
        cfgs = [base.updated(lambda_ortho=v) for v in (0.1, 0.2, 0.4, 0.8, 1.6)]
        latent0 = init_latent(canonical, mode, 0)
        outcomes = run_rows(canonical, cfgs, latent0)
        assert chunk_rows == []  # nothing is stepped before the iterator is read
        outcomes = list(outcomes)
        assert chunk_rows == [2, 2, 1]
        for cfg, outcome in zip(cfgs, outcomes):
            _assert_row_is_standalone(canonical, cfg, latent0, outcome)

    def test_passes_are_stacked_once_per_chunk_and_only_when_read(self, canonical, monkeypatch):
        stacks = []
        real = optimizer._stacked
        monkeypatch.setattr(optimizer, "_stacked", lambda passes: stacks.append(len(passes)) or real(passes))
        cfgs = [GuidanceConfig(total_steps=4, eta0=eta) for eta in (400.0, 800.0)]
        latent0 = init_latent(canonical, "raster", 0)
        outcomes = list(run_rows(canonical, cfgs, latent0))
        run_guidance(canonical, cfgs[0], latent0).final_field
        assert stacks == []  # a caller that reads only the end state never stacks
        for outcome in outcomes:
            assert outcome.terms.total.shape == (5,)
        assert stacks == [5]

    def test_rows_must_share_their_step_count(self, canonical):
        cfgs = [GuidanceConfig(total_steps=steps, eta0=1.0) for steps in (3, 4)]
        with pytest.raises(ValueError, match="same total_steps"):
            run_rows(canonical, cfgs, init_latent(canonical, "raster", 0))

    def test_a_plan_needs_a_row(self, canonical):
        with pytest.raises(ValueError, match="at least one row config"):
            _plan(canonical, derive_occlusion_pairs(canonical), [])
