"""The finite-difference oracle: its rank-one form, its anchor, and that it catches errors."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deptharb import GuidanceConfig, LatentState, SceneObject, SceneSpec, canonical_scene, init_latent, parse_scene
from deptharb import gradcheck
from deptharb.cli import main
from deptharb.gradcheck import (
    ANCHOR_EPS,
    FD_STEP,
    CoordGrid,
    GradCheckResult,
    OracleError,
    _blob_map,
    _object_terms,
    _PixelSums,
    _restricted_terms,
    _staged,
    check_gradients,
    coord_grid,
    spatial_mean,
    spatial_variance,
)
from deptharb.surrogate import _Blob, _Raster

from conftest import scene_file_text
from perfbench import scenegen
from reference import _absorb, judge, scalar_check_gradients

# the benchmark's parse of a per-stage result line
STAGE_LINE = re.compile(r"^stage (\d) \((\w+)\): (\d+) coordinates, .* -> (pass|\d+ FAILURES)$", re.M)


@st.composite
def oracle_cases(draw):
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    count = draw(st.integers(1, 4))
    objects = []
    for i in range(count):
        r0 = draw(st.integers(0, height - 1))
        c0 = draw(st.integers(0, width - 1))
        if draw(st.booleans()):
            # the smallest legal box: one ulp wide, starting on a pixel centre
            x0, y0 = (c0 + 0.5) / width, (r0 + 0.5) / height
            bbox = (x0, y0, float(np.nextafter(x0, 1.0)), float(np.nextafter(y0, 1.0)))
        else:
            r1 = draw(st.integers(r0 + 1, height))
            c1 = draw(st.integers(c0 + 1, width))
            bbox = (c0 / width, r0 / height, c1 / width, r1 / height)
        depth = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        objects.append(SceneObject(id=i, label="", bbox=bbox, depth=depth))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    cfg = GuidanceConfig(epsilon=draw(st.sampled_from([1e-8, 1e-3, 0.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-2.0, 2.0, (count, height, width))
    return scene, cfg, draw(st.sampled_from([1, 2])), logits


def _value_bound(literal, depth):
    return ANCHOR_EPS * np.finfo(gradcheck.LONG).eps * (abs(literal) + depth)


class TestRankOneOracle:
    @settings(max_examples=30)
    @given(oracle_cases())
    def test_matches_literal_fd_at_every_coordinate(self, case):
        # every attention and raster-latent coordinate: the rank-one FD equals
        # the per-term FD of the literal terms on the fully perturbed map to
        # 1e-9 relative, floored at 1e-11 (the literal's own rounding noise is
        # about 1e-19 * |term| / h per ulp); the sum-form values match the
        # literal ones at the base and at every perturbed map
        scene, cfg, stage, logits = case
        long = gradcheck.LONG
        h = long(FD_STEP)
        coords = coord_grid(scene.grid_height, scene.grid_width, dtype=long)
        for k, terms in enumerate(_object_terms(scene, cfg)):

            def literal(map_k, terms=terms):
                return _restricted_terms(map_k, *terms, coords, cfg)

            z = logits[k].astype(long)
            for space, base in (("attention", np.exp(logits[k]).astype(long)), ("latent", np.exp(z))):
                sums = _PixelSums(base, *terms, coords, cfg)
                value = _staged(literal(base), stage)
                assert abs(sums.loss(long(0), 0, 0, stage) - value) <= _value_bound(value, terms[1])
                for (y, x), a in np.ndenumerate(base):
                    perturbed = []
                    for sign in (+1, -1):
                        if space == "attention":
                            pert = base.copy()
                            pert[y, x] += sign * h
                        else:
                            pert_z = z.copy()
                            pert_z[y, x] += sign * h
                            pert = np.exp(pert_z)
                            # the scalar exp the oracle uses is the array's
                            assert pert[y, x] == np.exp(z[y, x] + sign * h)
                        perturbed.append((pert, pert[y, x] - a))
                    (up_map, up), (down_map, down) = perturbed
                    terms_up = literal(up_map)
                    value_up = _staged(terms_up, stage)
                    assert abs(sums.loss(up, y, x, stage) - value_up) <= _value_bound(value_up, terms[1])
                    [fd] = gradcheck._differences(terms_up, literal(down_map), (stage,), h)
                    fd = float(fd)
                    [rank_one] = gradcheck._differences(sums.terms(up, y, x), sums.terms(down, y, x), (stage,), h)
                    rank_one = float(rank_one)
                    assert abs(rank_one - fd) <= max(1e-9 * max(abs(rank_one), abs(fd)), 1e-11), (
                        space, k, y, x, rank_one, fd,
                    )

    def test_anchor_mismatch_raises_without_judging(self, monkeypatch):
        loss = _PixelSums.loss
        monkeypatch.setattr(_PixelSums, "loss", lambda self, *a: loss(self, *a) * (1 + 1e-15))
        scene = canonical_scene()
        with pytest.raises(OracleError, match="literal"):
            check_gradients(scene, GuidanceConfig(), init_latent(scene, "raster", 0), (1,), seed=0, samples=5)

    def test_same_coordinates_and_counts_as_the_literal_sampler(self, two_object_scene):
        # the rng draws k, y, x per attention sample, then per latent sample
        latent = init_latent(two_object_scene, "raster", 3)
        [result] = check_gradients(two_object_scene, GuidanceConfig(), latent, (1,), seed=3, samples=40)
        assert result.checked == 80 and result.passed
        latent = init_latent(two_object_scene, "blob", 3)
        [result] = check_gradients(two_object_scene, GuidanceConfig(), latent, (2,), seed=3, samples=40)
        assert result.checked == 40 + 5 * 2 and result.passed


def _bits(result) -> tuple:
    """Every field of a result, floats as hex so that equal means bit-equal (signed zeros, NaNs)."""
    return (
        result.checked,
        result.worst_rel.hex(),
        result.worst_abs.hex(),
        [
            (r.space, r.object_index, r.coordinate, r.analytic.hex(), r.fd.hex(), r.abs_err.hex(),
             r.rel_err.hex())
            for r in result.failures
        ],
        result.floored,
    )


def _one_stage(scene, cfg, latent, stage: int, **kwargs) -> GradCheckResult:
    """The one result of a `check_gradients` call on `stage` alone."""
    [result] = check_gradients(scene, cfg, latent, (stage,), **kwargs)
    return result


def _outcome(check, *args, **kwargs):
    """The bits of a check's result, or the message of the oracle's refusal."""
    try:
        return _bits(check(*args, **kwargs))
    except OracleError as exc:
        return f"refused: {exc}"


@st.composite
def sampler_cases(draw):
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    objects = []
    for i in range(draw(st.integers(1, 4))):
        r0, c0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        r1, c1 = draw(st.integers(r0 + 1, height)), draw(st.integers(c0 + 1, width))
        bbox = (c0 / width, r0 / height, c1 / width, r1 / height)
        objects.append(SceneObject(id=i, label="", bbox=bbox, depth=draw(st.floats(0.0, 1.0))))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    seed = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    chunk = gradcheck.CHUNK
    return (
        scene,
        init_latent(scene, draw(st.sampled_from(["raster", "blob"])), seed),
        draw(st.sampled_from([1, 2])),
        seed,
        draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1])),
        draw(st.sampled_from([0.0, 1e-5])),
    )


def _spy_on_sampled_terms(monkeypatch) -> list[int]:
    """The length of each `_PixelSums.terms` call on sampled coordinates, in call order."""
    lengths = []
    terms = _PixelSums.terms

    def spied(self, delta, y, x):
        # the anchors take one scalar entry; a sampled pass takes arrays
        if np.ndim(y):
            lengths.append(len(y))
        return terms(self, delta, y, x)

    monkeypatch.setattr(_PixelSums, "terms", spied)
    return lengths


class TestArrayOracle:
    @settings(max_examples=100)
    @given(sampler_cases())
    def test_equals_the_per_coordinate_sampler(self, case):
        # the same draws, central differences and judgements as scalar k, y, x
        # draws evaluated one coordinate at a time: counts, worst errors and the
        # failure list in sample order, bit for bit
        scene, latent, stage, seed, samples, rel_tol = case
        args = (scene, GuidanceConfig(), latent, stage)
        kwargs = {"seed": seed, "samples": samples, "rel_tol": rel_tol}
        assert _outcome(_one_stage, *args, **kwargs) == _outcome(scalar_check_gradients, *args, **kwargs)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_chunk_size_changes_nothing_and_bounds_each_pass(self, monkeypatch, two_object_scene, mode):
        # at rel_tol 0 every coordinate fails, so the failure list pins the order too
        samples = 40
        args = (two_object_scene, GuidanceConfig(), init_latent(two_object_scene, mode, 5), 1)
        kwargs = {"seed": 5, "samples": samples, "rel_tol": 0.0}
        expected = _bits(_one_stage(*args, **kwargs))
        assert len(expected[3]) == expected[0] > 0
        lengths = _spy_on_sampled_terms(monkeypatch)
        for chunk in (1, 3, samples + 7):
            monkeypatch.setattr(gradcheck, "CHUNK", chunk)
            lengths.clear()
            assert _bits(_one_stage(*args, **kwargs)) == expected
            # per sampled space: one array pass per object and chunk, none longer than a chunk;
            # a pass takes the terms of its coordinates moved up, then down
            passes = lengths[::2]
            assert lengths[1::2] == passes
            spaces = 2 if mode == "raster" else 1
            assert max(passes) <= chunk
            assert sum(passes) == spaces * samples
            assert len(passes) == spaces * len(two_object_scene.objects) * -(-samples // chunk)

    @pytest.mark.parametrize(
        "analytic,fd", [(np.inf, 0.0), (0.0, np.inf), (-np.inf, 1.0), (np.inf, np.inf), (np.nan, 0.0)]
    )
    def test_non_finite_value_fails_as_in_the_scalar_judge(self, analytic, fd):
        # an infinite value makes rel_tol * ref infinite, so the bound alone would pass it
        judged = GradCheckResult()
        gradcheck._judge_all(
            judged, "attention", np.array([1]), np.array([[2, 3]]), np.array([analytic]), np.array([fd]), 1e-5
        )
        scalar = GradCheckResult()
        _absorb(scalar, judge("attention", 1, (2, 3), analytic, fd, 1e-5))
        assert not judged.passed
        assert _bits(judged) == _bits(scalar)


    def test_worst_relative_error_skips_the_coordinates_the_floor_judges(self):
        # 1e-9 against 1.5e-9 is off by a third, and 5e-5 against 5e-5 + 1e-10 by 2e-6; both references
        # are at most 1e-4, so the floor 1e-9 judges and passes them.  The worst relative error is the
        # third coordinate's, and a NaN difference against a small gradient still shows in it
        analytic, fd = np.array([1e-9, 5e-5, 1.0, 5e-5]), np.array([1.5e-9, 5e-5 + 1e-10, 1.0 + 1e-6, np.nan])
        for n in (3, 4):
            judged, scalar = GradCheckResult(), GradCheckResult()
            gradcheck._judge_all(
                judged, "attention", np.zeros(n, int), np.zeros((n, 2), int), analytic[:n], fd[:n], 1e-5
            )
            for a, f in zip(analytic[:n], fd[:n]):
                _absorb(scalar, judge("attention", 0, (0, 0), float(a), float(f), 1e-5))
            assert _bits(judged) == _bits(scalar)
            assert judged.floored == 2
            if n == 3:
                assert judged.passed and judged.worst_rel == (1.0 + 1e-6 - 1.0) / (1.0 + 1e-6)
        assert math.isnan(judged.worst_rel) and len(judged.failures) == 1


    def test_a_nan_analytic_value_reads_nan_in_the_relative_error(self):
        # its reference max(|analytic|, |fd|) is NaN; a relative error of 0 would hide it from the worst
        # relative error and sort it last among a failing check's offenders
        judged = GradCheckResult()
        gradcheck._judge_all(
            judged, "attention", np.zeros(2, int), np.zeros((2, 2), int), np.array([np.nan, 1.0]),
            np.array([0.0, 2.0]), 1e-5,
        )
        assert [math.isnan(r.rel_err) for r in judged.failures] == [True, False]
        assert math.isnan(judged.worst_rel) and judged.floored == 0


class TestRefusedChecks:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"samples": 0}, "samples must be >= 1, got 0"),
            ({"samples": -1}, "samples must be >= 1, got -1"),
            ({"samples": 2.5}, "samples must be an integer, got 2.5"),
            ({"samples": 1.0}, "samples must be an integer, got 1.0"),
            ({"samples": True}, "samples must be an integer, got True"),
            ({"samples": "5"}, "samples must be an integer, got '5'"),
            ({"rel_tol": np.inf}, "rel_tol must be finite and >= 0, got inf"),
            ({"rel_tol": np.nan}, "rel_tol must be finite and >= 0, got nan"),
            ({"rel_tol": -1.0}, "rel_tol must be finite and >= 0, got -1.0"),
            # numpy's isfinite would raise TypeError on both
            ({"rel_tol": 10**400}, "rel_tol must be within the float range, got 10000000000000000000... (401 digits)"),
            ({"rel_tol": "1e-5"}, "rel_tol must be a real number, got '1e-5'"),
        ],
    )
    def test_judging_nothing_or_everything_is_refused(self, monkeypatch, kwargs, message):
        # a raster check of 0 samples passed having judged nothing; rel_tol inf
        # passed every coordinate, nan and -1 failed every one
        monkeypatch.setattr(gradcheck, "_surrogate", lambda *a: pytest.fail("rendered"))
        scene = canonical_scene()
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$") as info:
            check_gradients(scene, GuidanceConfig(), init_latent(scene, "raster", 0), (1,), seed=0, **kwargs)
        assert len(str(info.value).encode()) < 200


class TestRefusedStages:
    @pytest.mark.parametrize(
        "stages,message",
        [
            ((), "stages must name at least one stage, got ()"),
            ([], "stages must name at least one stage, got ()"),
            ((1, 1), "stages must name each stage once, got (1, 1)"),
            ((2, 1, 2), "stages must name each stage once, got (2, 1, 2)"),
            ((0,), "stages must hold only stages 1 and 2, got (0,)"),
            ((1, 3), "stages must hold only stages 1 and 2, got (1, 3)"),
            (("1",), "stages must hold only stages 1 and 2, got ('1',)"),
            ((True,), "stages must hold only stages 1 and 2, got (True,)"),
            ((1.0,), "stages must hold only stages 1 and 2, got (1.0,)"),
            (1, "stages must be a sequence of stages 1 and 2, got 1"),
        ],
    )
    def test_bad_stages_are_refused_before_any_render(self, monkeypatch, stages, message):
        monkeypatch.setattr(gradcheck, "_surrogate", lambda *a: pytest.fail("rendered"))
        scene = canonical_scene()
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            check_gradients(scene, GuidanceConfig(), init_latent(scene, "raster", 0), stages, seed=0, samples=5)


def _joint_outcome(scene, cfg, latent, stages, **kwargs):
    """The bits of each result of one `check_gradients` call on `stages`, or its refusal."""
    try:
        return [_bits(result) for result in check_gradients(scene, cfg, latent, stages, **kwargs)]
    except OracleError as exc:
        return f"refused: {exc}"


@st.composite
def joint_cases(draw):
    if draw(st.booleans()):
        scene = canonical_scene()
    else:
        scene = parse_scene(json.dumps(scenegen.small_scene(draw(st.integers(0, 2**32 - 1)))))
    seed = draw(st.integers(0, 2**64 - 1))
    return (
        scene,
        init_latent(scene, draw(st.sampled_from(["raster", "blob"])), seed),
        draw(st.sampled_from([(1, 2), (2, 1)])),
        seed,
        draw(st.sampled_from([1, 40, gradcheck.CHUNK + 1])),
        draw(st.sampled_from([0.0, 1e-5])),
    )


class TestJointStages:
    """One call checks every stage it is given, each exactly as a call on that stage alone would."""

    @settings(max_examples=24)
    @given(joint_cases())
    def test_each_result_equals_its_one_stage_call_and_the_scalar_sampler(self, case):
        # at rel_tol 0 every coordinate fails, so the failure lists pin every
        # analytic and FD value; a refusal is the first refusing stage's
        scene, latent, stages, seed, samples, rel_tol = case
        kwargs = {"seed": seed, "samples": samples, "rel_tol": rel_tol}
        alone = [_outcome(_one_stage, scene, GuidanceConfig(), latent, stage, **kwargs) for stage in stages]
        for stage, outcome in zip(stages, alone):
            assert outcome == _outcome(scalar_check_gradients, scene, GuidanceConfig(), latent, stage, **kwargs)
        refusals = [outcome for outcome in alone if isinstance(outcome, str)]
        expected = refusals[0] if refusals else alone
        assert _joint_outcome(scene, GuidanceConfig(), latent, stages, **kwargs) == expected

    def test_a_stage_2_refusal_refuses_the_joint_call(self, monkeypatch):
        # the stage-2 anchor is off: alone, stage 1 is judged and stage 2 refused
        loss = _PixelSums.loss

        def off_at_stage_2(self, delta, y, x, stage):
            return loss(self, delta, y, x, stage) * (1 + 1e-15 * (stage == 2))

        monkeypatch.setattr(_PixelSums, "loss", off_at_stage_2)
        scene = canonical_scene()
        args = (scene, GuidanceConfig(), init_latent(scene, "blob", 0))
        assert _one_stage(*args, 1, seed=0, samples=5).passed
        for stages in ((1, 2), (2, 1)):
            with pytest.raises(OracleError, match="literal"):
                check_gradients(*args, stages, seed=0, samples=5)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_each_literal_map_is_evaluated_once_for_any_number_of_stages(self, monkeypatch, mode):
        # per call: each base map's literal terms once per object (the
        # attention field, and the raster latent's exp(z)); a blob latent
        # adds its 2 * 5 * K perturbed maps, each rendered and evaluated once
        calls = {"blob": 0, "terms": 0}
        blob_map, terms = gradcheck._blob_map, gradcheck._restricted_terms

        def count(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(gradcheck, "_blob_map", count("blob", blob_map))
        monkeypatch.setattr(gradcheck, "_restricted_terms", count("terms", terms))
        scene = parse_scene(json.dumps(scenegen.small_scene(3)))
        k = len(scene.objects)
        perturbed = 2 * 5 * k if mode == "blob" else 0
        bases = 2 if mode == "raster" else 1
        for stages in ((1,), (2,), (1, 2), (2, 1)):
            calls.update(blob=0, terms=0)
            results = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 4), stages, seed=4, samples=30)
            assert [result.passed for result in results] == [True] * len(stages)
            assert calls == {"blob": perturbed, "terms": bases * k + perturbed}

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_each_sampled_coordinate_is_evaluated_once_for_any_number_of_stages(self, monkeypatch, mode):
        # the stages judge the same draws, so the sum form's terms of a chunk are
        # taken once, up and down, and staged per stage: as many calls as one stage makes
        lengths = _spy_on_sampled_terms(monkeypatch)
        scene = parse_scene(json.dumps(scenegen.small_scene(3)))
        counts = {}
        for stages in ((1,), (2,), (1, 2), (2, 1)):
            lengths.clear()
            check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 4), stages, seed=4, samples=300)
            counts[stages] = list(lengths)
        assert counts[(1,)] and all(calls == counts[(1,)] for calls in counts.values())
        spaces = 2 if mode == "raster" else 1
        assert sum(counts[(1,)]) == 2 * spaces * 300


class TestCollapsedMaps:
    def test_map_far_below_the_step_is_refused_by_name(self):
        # log-amplitude -1e4 renders an all-zero map; the central difference
        # of f = e_in / (S + eps) then failed 29 of 60 correct coordinates
        latent = init_latent(canonical_scene(), "blob", 0)
        values = latent.values.copy()
        values[1, 4] = -1e4
        for stages in ((1,), (2,), (1, 2)):
            with pytest.raises(OracleError, match=r"object 1's map mass 0 .* step 1e-06"):
                check_gradients(
                    canonical_scene(), GuidanceConfig(), LatentState(mode="blob", values=values), stages,
                    seed=0, samples=50,
                )


@st.composite
def extreme_scenes(draw):
    """Small scenes with depths exactly 0 and 1 and one-pixel boxes."""
    height, width = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    objects = []
    for i in range(draw(st.integers(1, 4))):
        r0, c0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        kind = draw(st.sampled_from(["pixel", "ulp", "box"]))
        if kind == "pixel":
            bbox = (c0 / width, r0 / height, (c0 + 1) / width, (r0 + 1) / height)
        elif kind == "ulp":
            x0, y0 = (c0 + 0.5) / width, (r0 + 0.5) / height
            bbox = (x0, y0, float(np.nextafter(x0, 1.0)), float(np.nextafter(y0, 1.0)))
        else:
            r1, c1 = draw(st.integers(r0 + 1, height)), draw(st.integers(c0 + 1, width))
            bbox = (c0 / width, r0 / height, c1 / width, r1 / height)
        objects.append(SceneObject(id=i, label="", bbox=bbox, depth=draw(st.sampled_from([0.0, 1.0]))))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    return scene, draw(st.integers(0, 2**16))


class TestExtremeScenes:
    @settings(max_examples=25)
    @given(extreme_scenes())
    def test_analytic_gradient_passes_at_rel_1e_5(self, case):
        scene, seed = case
        results = check_gradients(
            scene, GuidanceConfig(), init_latent(scene, "raster", seed), (1, 2), seed=seed, samples=60,
            rel_tol=1e-5,
        )
        for result in results:
            assert result.passed, result.failures[:3]


class TestNonSquareGrid:
    # 20 rows by 13 columns: an x/y swap of the (1, W)/(H, 1) centres cannot
    # go unnoticed, as it can on a square grid
    SCENE = {
        "grid": {"height": 20, "width": 13},
        "objects": [
            {"id": 0, "label": "back", "bbox": [0.05, 0.1, 0.95, 0.9], "depth": 0.8},
            # contained in the background box
            {"id": 1, "label": "inner", "bbox": [0.3, 0.25, 0.7, 0.6], "depth": 0.3},
            # overlaps "inner" at equal depth, which pairs nothing
            {"id": 2, "label": "peer", "bbox": [0.5, 0.45, 0.9, 0.85], "depth": 0.3},
        ],
    }

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_grad_check_passes_both_stages(self, tmp_path, capsys, mode):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.SCENE), encoding="utf-8")
        assert main(["grad-check", "--scene", str(path), "--mode", mode, "--stage", "both"]) == 0
        lines = STAGE_LINE.findall(capsys.readouterr().out)
        assert [(stage, verdict) for stage, _, _, verdict in lines] == [("1", "pass"), ("2", "pass")]


@st.composite
def broadcast_cases(draw):
    height = draw(st.integers(1, 16))
    width = draw(st.integers(1, 16).filter(lambda w: w != height))
    dtype = draw(st.sampled_from([np.float64, gradcheck.LONG]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def mask():
        return (rng.uniform(size=(height, width)) < 0.5).astype(dtype)

    map_k = rng.uniform(0.0, 2.0, (height, width)).astype(dtype)
    fg_terms = [(mask(), float(rng.uniform(0.1, 3.0))) for _ in range(draw(st.integers(0, 2)))]
    params = np.array([*rng.uniform(0.0, 1.0, 2), *rng.uniform(-3.0, -1.0, 2), rng.uniform(-1.0, 1.0)])
    stage = draw(st.sampled_from([1, 2]))
    return dtype, map_k, mask(), float(rng.uniform()), fg_terms, params.astype(dtype), stage


class TestBroadcastCentres:
    @settings(max_examples=40)
    @given(broadcast_cases())
    def test_same_values_as_full_grids(self, case):
        # every literal term reads the (1, W)/(H, 1) centres with the same
        # per-pixel arithmetic as full (H, W) copies, so the results are equal
        dtype, map_k, mask_k, depth, fg_terms, params, stage = case
        height, width = map_k.shape
        thin = coord_grid(height, width, dtype=dtype)
        full = CoordGrid(
            x=np.broadcast_to(thin.x, (height, width)).copy(),
            y=np.broadcast_to(thin.y, (height, width)).copy(),
        )
        norm = map_k / (map_k.sum() + 1e-8)
        mu = spatial_mean(norm, thin)
        assert mu == spatial_mean(norm, full)
        assert spatial_variance(norm, thin, mu) == spatial_variance(norm, full, mu)
        cfg = GuidanceConfig()
        assert _staged(_restricted_terms(map_k, mask_k, depth, fg_terms, thin, cfg), stage) == _staged(
            _restricted_terms(map_k, mask_k, depth, fg_terms, full, cfg), stage
        )
        blob = _blob_map(params, thin.x, thin.y)
        assert blob.shape == (height, width)
        assert np.array_equal(blob, _blob_map(params, full.x, full.y))


def _scaled(grad, k: int, factor: float) -> np.ndarray:
    """A copy of a one-row gradient with object k's entries scaled by `factor`."""
    out = np.array(grad, dtype=np.float64)
    out[:, k] *= factor
    return out


def _skew_attention(monkeypatch, k: int, factor: float) -> None:
    """The dL/dA of object k that the oracle checks, and nothing else, off by `factor`.

    The check's stages are distinct, so each of its product views writes
    one row's K maps; the chain's products, in the surrogate, stay right.
    """
    real = gradcheck._grad_product

    def skewed(views):
        real(views)
        for _, _, out in views:
            out[k] *= factor

    monkeypatch.setattr(gradcheck, "_grad_product", skewed)


def _skew_latent(monkeypatch, k: int, factor: float) -> None:
    """Both surrogates' chain rule for object k off by `factor`."""
    for cls in (_Raster, _Blob):
        def skewed(self, products, grad, lo=0, hi=None, real=cls.chain):
            # the chain's maps, row by row: (B, K, ...)
            partials = real(self, products, grad, lo, hi)
            return _scaled(partials.reshape(-1, self.maps.shape[1], *partials.shape[1:]), k, factor)

        monkeypatch.setattr(cls, "chain", skewed)


SKEWS = {"attention": _skew_attention, "latent": _skew_latent}


class TestNegativeControl:
    # one object's analytic gradient off by 1e-3 relative must be caught

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_wrong_attention_gradient_is_reported(self, monkeypatch, mode):
        _skew_attention(monkeypatch, 0, 1 + 1e-3)
        scene = canonical_scene()
        [result] = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 2), (1,), seed=2, samples=100)
        failed = {(r.space, r.object_index) for r in result.failures}
        assert ("attention", 0) in failed
        assert all(k == 0 for _, k in failed)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_wrong_latent_gradient_is_reported(self, monkeypatch, mode):
        _skew_latent(monkeypatch, 1, 1 - 1e-3)
        scene = canonical_scene()
        [result] = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 2), (2,), seed=2, samples=100)
        assert result.failures
        assert {(r.space, r.object_index) for r in result.failures} == {("latent", 1)}

    @pytest.mark.parametrize("space", ["attention", "latent"])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_grad_check_exits_3(self, monkeypatch, capsys, space, mode):
        SKEWS[space](monkeypatch, 0, 1 + 1e-3)
        assert main(["grad-check", "--mode", mode, "--samples", "60", "--seed", "1"]) == 3
        assert "FAILURES" in capsys.readouterr().out


class TestWeightScale:
    """The verdict on a raster latent does not depend on the scale of the pair weights; a blob latent's
    is a pass or a refusal at any compactness weight."""

    @pytest.mark.parametrize("lambda0", [1e-3, 1.0, 1e4, 1e8, 1e12])
    def test_a_correct_gradient_passes_at_any_weight(self, lambda0):
        # each summand is differenced on its own: a pair term that a coordinate
        # leaves alone adds exactly 0, not its own rounding, to the difference
        scene = canonical_scene()
        latent = init_latent(scene, "raster", 0)
        results = check_gradients(scene, GuidanceConfig(lambda0=lambda0), latent, (1, 2), seed=0, samples=200)
        for result in results:
            assert result.passed, result.failures[:3]

    @pytest.mark.parametrize("lambda0", [1.0, 1e8])
    def test_a_planted_error_of_rel_1e_4_fails_at_any_weight(self, monkeypatch, lambda0):
        _skew_attention(monkeypatch, 1, 1 + 1e-4)
        scene = canonical_scene()
        latent = init_latent(scene, "raster", 0)
        results = check_gradients(scene, GuidanceConfig(lambda0=lambda0), latent, (1, 2), seed=0, samples=200)
        for result in results:
            assert result.failures
            assert {r.object_index for r in result.failures} == {1}

    @pytest.mark.parametrize("lambda_compact", [0.2, 1e4, 1e6, 1e8, 1e10])
    def test_a_correct_blob_gradient_passes_or_is_refused(self, lambda_compact):
        # a blob coordinate changes the compactness term, so its difference carries that
        # term's rounding: the oracle judges the check or refuses it, never fails it
        scene = canonical_scene()
        cfg = GuidanceConfig(lambda_compact=lambda_compact)
        try:
            results = check_gradients(scene, cfg, init_latent(scene, "blob", 0), (1, 2), seed=0, samples=200)
        except OracleError as exc:
            # the bound named is the one the judge would apply to that coordinate: the floor, or a larger
            # relative bound
            match = re.fullmatch(
                r"object \d's blob parameter (cx|cy|lsx|lsy|la): the finite difference's estimated rounding "
                r"noise (\S+) exceeds the judge's (floor 1e-09|relative bound (\S+))", str(exc),
            )
            assert match
            assert match[4] is None or float(match[4]) > 1e-9
            return
        assert lambda_compact < 1e8, "refused at 1e8 and 1e10"
        for result in results:
            assert result.passed, result.failures[:3]

    @pytest.mark.parametrize("lambda_compact", [0.2, 1e4])
    def test_a_planted_blob_error_of_rel_1e_4_fails_where_judged(self, monkeypatch, lambda_compact):
        _skew_latent(monkeypatch, 1, 1 + 1e-4)
        scene = canonical_scene()
        cfg = GuidanceConfig(lambda_compact=lambda_compact)
        results = check_gradients(scene, cfg, init_latent(scene, "blob", 0), (1, 2), seed=0, samples=200)
        for result in results:
            assert result.failures
            assert {(r.space, r.object_index) for r in result.failures} == {("latent", 1)}

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_no_refusal_at_default_weights(self, mode):
        # the benchmark's grad-check traffic: the canonical scene and generated 32x32 ones
        scenes = [canonical_scene()] + [parse_scene(json.dumps(scenegen.small_scene(n))) for n in range(20)]
        for n, scene in enumerate(scenes):
            latent = init_latent(scene, mode, n)
            for result in check_gradients(scene, GuidanceConfig(), latent, (1, 2), seed=n, samples=20):
                assert result.passed, (n, result.failures[:3])


class TestRefusalBound:
    """A blob coordinate is refused only where its noise exceeds the bound the judge would apply to it."""

    def test_noise_within_a_relative_bound_above_the_floor_is_judged(self, capsys):
        # at lambda_compact 1e6, stage 1's noise exceeds the 1e-9 floor on object 1's cx, but no
        # coordinate's own bound, which is relative there
        argv = ["grad-check", "--mode", "blob", "--samples", "5", "--lambda-compact", "1e6"]
        assert main([*argv, "--stage", "1"]) == 0
        assert "-> pass" in capsys.readouterr().out
        # stage 2 has a coordinate whose bound is the floor, and whose noise exceeds it
        for stage in ("2", "both"):
            assert main([*argv, "--stage", stage]) == 1
            assert re.fullmatch(
                r"error: object 1's blob parameter la: the finite difference's estimated rounding noise \S+ "
                r"exceeds the judge's floor 1e-09\n", capsys.readouterr().err,
            )

    def test_the_refusal_reads_the_judges_bound(self):
        floor = 1e-5 * gradcheck.FLOOR_REF
        analytic = np.array([[1.0, 0.0], [0.0, 0.0]])
        fd = np.array([[1.0, 0.0], [0.0, 2e-3]])
        ref, bound = gradcheck._bounds(analytic, fd, 1e-5)
        assert np.array_equal(ref, [[1.0, 0.0], [0.0, 2e-3]])
        assert np.array_equal(bound, [[1e-5, floor], [floor, 2e-8]])
        # noise under each coordinate's own bound: nothing is refused
        gradcheck._check_noise(bound, bound, 1e-5)
        with pytest.raises(OracleError, match=r"cx: .* noise 1.1e-05 exceeds the judge's relative bound 1e-05$"):
            gradcheck._check_noise(bound * [[1.1, 1], [1, 1]], bound, 1e-5)
        with pytest.raises(OracleError, match=r"parameter cy: .* noise 2e-09 exceeds the judge's floor 1e-09$"):
            gradcheck._check_noise(bound * [[1, 2], [1, 1]], bound, 1e-5)


class TestRunLoopSequence:
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_one_surrogate_renders_once_and_chains_that_render(self, monkeypatch, mode):
        # per surrogate built: its render calls, and the render count each chain call saw
        built = []
        real = gradcheck._surrogate

        def counting(*args):
            surrogate = real(*args)
            calls = {"render": 0, "chain": []}
            render, chain = surrogate.render, surrogate.chain

            def counted_render(values):
                calls["render"] += 1
                return render(values)

            def counted_chain(products, grad):
                calls["chain"].append(calls["render"])
                return chain(products, grad)

            surrogate.render, surrogate.chain = counted_render, counted_chain
            built.append(calls)
            return surrogate

        monkeypatch.setattr(gradcheck, "_surrogate", counting)
        scene = canonical_scene()
        # both stages: one render of one row per stage, and one chain of it
        results = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 2), (1, 2), seed=2, samples=50)
        assert [result.passed for result in results] == [True, True]
        assert built == [{"render": 1, "chain": [1]}]

    def test_a_planted_error_in_the_blob_reductions_fails(self, monkeypatch):
        # the blob field is read through the surrogate's own reductions, as a run reads it, so a rel-1e-4
        # error in its column sums shows in both gradients
        calls = []
        real = _Blob.reduce

        def planted(self, plan, lo=0, hi=None):
            calls.append(1)
            real(self, plan, lo, hi)
            plan.scratch.col_sum[lo:hi] *= 1 + 1e-4

        monkeypatch.setattr(_Blob, "reduce", planted)
        scene = canonical_scene()
        results = check_gradients(scene, GuidanceConfig(), init_latent(scene, "blob", 0), (1, 2), seed=0, samples=200)
        for result in results:
            assert len(result.failures) == result.checked
            assert {r.space for r in result.failures} == {"attention", "latent"}
        assert calls == [1]


class TestPrecisionFallback:
    def test_float64_long_double_is_stated_and_still_checks(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(gradcheck, "LONG", np.float64)
        path = tmp_path / "s.json"
        path.write_text(scene_file_text(grid=16), encoding="utf-8")
        for mode in ("raster", "blob"):
            assert main(["grad-check", "--scene", str(path), "--mode", mode, "--samples", "200"]) == 0
            out = capsys.readouterr().out
            notes = [line for line in out.splitlines() if line.startswith("note:")]
            assert len(notes) == 1 and "float64" in notes[0]
            assert f"{np.finfo(np.float64).eps:.3g}" in notes[0]
            assert len(STAGE_LINE.findall(out)) == 2
            assert len(out.splitlines()) == 4  # note, two stage lines, worst error

    def test_anchor_tolerance_follows_the_working_eps(self, monkeypatch):
        # float64 sums disagree with the literal by far more than 64 extended
        # ulps; the anchor must accept them because its eps is float64's
        monkeypatch.setattr(gradcheck, "LONG", np.float64)
        scene = canonical_scene()
        latent = init_latent(scene, "raster", 4)
        [result] = check_gradients(scene, GuidanceConfig(), latent, (1,), seed=4, samples=50)
        assert result.passed

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is float64 on this platform",
    )
    def test_extended_precision_prints_no_note(self, capsys):
        assert main(["grad-check", "--samples", "20"]) == 0
        assert "note:" not in capsys.readouterr().out
