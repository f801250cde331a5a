"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
execute.  Thresholds are fixed here, not tuned at runtime.
"""

from __future__ import annotations

import time

import numpy as np

import deptharb as d
from deptharb.cli import main as cli_main
from deptharb.gradcheck import (
    alignment_ratio,
    coord_grid,
    interference,
    scene_masks,
    spatial_mean,
    spatial_variance,
)
from deptharb.losses import _plan, arbitration_weight, staged_total, value_and_grad
from deptharb.optimizer import _final_stage

from conftest import dyadic_field, random_scene, scene_file_text
from reference import normalize_map, pseudo_segment
from test_losses import brute_force_variance

EPS = 1e-8
GRAD_SCENE_SEEDS = (1001, 1002, 1003, 1004, 1005)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_gradient_fidelity(self):
        # 5 seeded random scenes (2-4 objects, 32x32), raster and blob, both
        # stages, >= 1000 coordinates each; rel tol 1e-5, abs floor 1e-9
        start = time.perf_counter()
        worst_rel = worst_abs = 0.0
        checked = 0
        failures = 0
        for seed in GRAD_SCENE_SEEDS:
            scene = random_scene(seed, size=32, min_objects=2, max_objects=4)
            assert 2 <= len(scene.objects) <= 4
            for mode in ("raster", "blob"):
                for stage in (1, 2):
                    result = d.check_gradients(
                        scene, d.GuidanceConfig(), d.init_latent(scene, mode, seed), stage, seed=seed,
                        samples=1000, rel_tol=1e-5,
                    )
                    assert result.checked >= 1000
                    checked += result.checked
                    failures += len(result.failures)
                    worst_rel = max(worst_rel, result.worst_rel)
                    worst_abs = max(worst_abs, result.worst_abs)
        elapsed = time.perf_counter() - start
        _criterion(
            "gradient fidelity",
            failures == 0 and elapsed < 30.0,
            f"{checked} coordinates, worst rel {worst_rel:.3e}, "
            f"worst abs {worst_abs:.3e}, {elapsed:.1f}s",
        )

    def test_closed_form_identities(self):
        cfg = d.GuidanceConfig()
        checks = []

        f = alignment_ratio(4.0, 12.0, EPS)
        checks.append(("f(4,12)", abs(f - 0.25) <= 1e-9))

        lam = arbitration_weight(0.37, 0.37, cfg)
        checks.append(("lambda(d_i=d_j)", lam == cfg.lambda0))

        delta = np.zeros((8, 8))
        delta[3, 4] = 5.0
        coords = coord_grid(8, 8)
        norm = normalize_map(delta, EPS)
        var_delta = spatial_variance(norm, coords, spatial_mean(norm, coords))
        checks.append(("Var(delta)=0", abs(var_delta) <= 1e-12))

        uniform = np.ones((8, 8))
        oracle = brute_force_variance(uniform, EPS)
        norm = normalize_map(uniform, EPS)
        var_uniform = spatial_variance(norm, coords, spatial_mean(norm, coords))
        checks.append(("Var(uniform 8x8)", abs(var_uniform - oracle) <= 1e-6))
        checks.append(("Var(uniform 8x8)~0.16406", abs(var_uniform - 0.16406) <= 1e-4))

        total1 = staged_total(0.5625, 1.0, 0.0625, cfg, 1)
        total2 = staged_total(0.5625, 1.0, 0.0625, cfg, 2)
        checks.append(("staged total stage1", abs(total1 - 1.075) <= 1e-12))
        checks.append(("staged total stage2", abs(total2 - 0.575) <= 1e-12))

        bad = [name for name, ok in checks if not ok]
        _criterion(
            "closed-form identities",
            not bad,
            "all identities at stated tolerances" if not bad else f"failed: {bad}",
        )

    def test_arbitration_dynamics(self):
        start = time.perf_counter()
        scene = d.canonical_scene()
        cfg = d.GuidanceConfig()  # defaults: 200 steps, calibrated eta0
        latent0 = d.init_latent(scene, "raster", seed=42)
        trajectory = d.run_guidance(scene, cfg, latent0)
        pairs = d.derive_occlusion_pairs(scene)
        breakdown = d.staged_loss(trajectory.final_field, scene, pairs, cfg, _final_stage(cfg))
        focr_mean = d.focr(trajectory.final_field, scene, pairs).mean

        small = cfg.updated(eta0=0.01)
        descent_traj = d.run_guidance(scene, small, d.init_latent(scene, "raster", seed=42))
        first50 = descent_traj.terms.total[:51].tolist()
        assert (descent_traj.terms.stage[:51] == 1).all()
        non_increasing = all(b <= a for a, b in zip(first50, first50[1:]))
        elapsed = time.perf_counter() - start

        ok = (
            bool((breakdown.f >= 0.90).all())
            and np.mean(breakdown.pair_interference) <= 0.05
            and focr_mean >= 0.95
            and non_increasing
            and elapsed < 60.0
        )
        _criterion(
            "arbitration dynamics",
            ok,
            f"f={np.round(breakdown.f, 4).tolist()}, "
            f"mean I={np.mean(breakdown.pair_interference):.4f}, FOCR={focr_mean:.4f}, "
            f"stage-1 descent at eta0=0.01: {non_increasing}, {elapsed:.1f}s",
        )

    def test_stage_semantics(self):
        scene = d.canonical_scene()
        cfg = d.GuidanceConfig(total_steps=20, eta0=50.0, stage1_fraction=0.5)
        latent0 = d.init_latent(scene, "raster", seed=42)
        trajectory = d.run_guidance(scene, cfg, latent0)
        boundary = 10
        bd = trajectory.terms.take(boundary)
        assert bd.stage == 2 and trajectory.terms.stage[boundary - 1] == 1
        total_error = abs(bd.total - (bd.align + cfg.lambda_compact * bd.compact))

        rng = np.random.default_rng(7)
        field = d.AttentionField(maps=rng.uniform(0.1, 2.0, (2, 64, 64)))
        pairs = d.derive_occlusion_pairs(scene)
        g_with = value_and_grad(field.maps[None], _plan(scene, pairs, [cfg]), [2])[1]
        g_without = value_and_grad(field.maps[None], _plan(scene, [], [cfg]), [2])[1]
        ortho_grad_zero = np.array_equal(g_with, g_without)

        ok = total_error <= 1e-12 and bd.ortho > 0 and ortho_grad_zero
        _criterion(
            "stage semantics",
            ok,
            f"first stage-2 total error {total_error:.2e}, "
            f"stage-2 ortho gradient identically zero: {ortho_grad_zero}",
        )

    def test_sensitivity_trends(self):
        scene = d.canonical_scene()
        base = d.GuidanceConfig()
        latent0 = d.init_latent(scene, "raster", seed=42)

        pairs = d.derive_occlusion_pairs(scene)

        def final_terms(cfg):
            field = d.run_guidance(scene, cfg, latent0).final_field
            return d.staged_loss(field, scene, pairs, cfg, _final_stage(cfg))

        mean_interference = []
        for value in (0.1, 0.5, 1.0):
            mean_interference.append(np.mean(final_terms(base.updated(lambda_ortho=value)).pair_interference))
        interference_monotone = all(
            b <= a for a, b in zip(mean_interference, mean_interference[1:])
        )

        mean_var = []
        for value in (0.1, 0.5, 2.0):
            mean_var.append(np.mean(final_terms(base.updated(lambda_compact=value)).var))
        var_monotone = all(b <= a for a, b in zip(mean_var, mean_var[1:]))

        _criterion(
            "sensitivity trends",
            interference_monotone and var_monotone,
            f"mean I over lambda_ortho {np.round(mean_interference, 5).tolist()}, "
            f"mean Var over lambda_compact {np.round(mean_var, 6).tolist()}",
        )

    def test_determinism_and_round_trip(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_file_text(grid=32), encoding="utf-8")

        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code = cli_main([
                "run", "--scene", str(scene_path), "--steps", "50", "--seed", "42",
                "--report", str(path),
            ])
            assert code == 0
            reports.append(path.read_bytes())
        identical = reports[0] == reports[1]

        dump_path = tmp_path / "field.darb"
        run_report_path = tmp_path / "run.json"
        eval_report_path = tmp_path / "eval.json"
        assert cli_main([
            "run", "--scene", str(scene_path), "--steps", "50", "--seed", "42",
            "--dump", str(dump_path), "--report", str(run_report_path),
        ]) == 0
        assert cli_main([
            "eval", "--dump", str(dump_path), "--scene", str(scene_path), "--steps", "50",
            "--report", str(eval_report_path),
        ]) == 0
        round_trip_exact = run_report_path.read_bytes() == eval_report_path.read_bytes()

        _criterion(
            "determinism & round-trip",
            identical and round_trip_exact,
            f"repeat runs identical: {identical}, dump->eval exact: {round_trip_exact}",
        )

    def test_scaling_properties(self, two_object_scene):
        scene = two_object_scene
        field = dyadic_field((2, 16, 16), seed=99)
        tripled = d.AttentionField(maps=field.maps * 3.0)
        pairs = d.derive_occlusion_pairs(scene)

        seg_equal = np.array_equal(
            pseudo_segment(field, scene), pseudo_segment(tripled, scene)
        )
        focr_equal = d.focr(field, scene, pairs) == d.focr(tripled, scene, pairs)
        miou_equal = d.layout_miou(field, scene, 0.5) == d.layout_miou(tripled, scene, 0.5)

        masks = scene_masks(scene)
        cfg = d.GuidanceConfig(epsilon=EPS)
        f1 = d.staged_loss(field, scene, pairs, cfg, 1).f
        f3 = d.staged_loss(tripled, scene, pairs, cfg, 1).f
        f_bound = all(
            abs(f3[k] - f1[k]) <= EPS / field.maps[k].sum() for k in range(2)
        )

        i1 = interference(field.maps[1], masks[0], EPS)
        i3 = interference(tripled.maps[1], masks[0], EPS)
        interference_scales = i3 == 3.0 * i1

        ok = seg_equal and focr_equal and miou_equal and f_bound and interference_scales
        _criterion(
            "scaling properties",
            ok,
            f"segment/focr/miou invariant: {seg_equal}/{focr_equal}/{miou_equal}, "
            f"|df| within eps/mass: {f_bound}, interference x3 exact: {interference_scales}",
        )
