"""The finite-difference oracle: its rank-one form, its anchor, and that it catches errors."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deptharb import (
    GuidanceConfig,
    LatentState,
    SceneObject,
    SceneSpec,
    canonical_scene,
    coord_grid,
    init_latent,
)
from deptharb import gradcheck
from deptharb.cli import main
from deptharb.gradcheck import (
    ANCHOR_EPS,
    FD_STEP,
    OracleError,
    _object_terms,
    _PixelSums,
    _restricted_loss,
    check_gradients,
)

from conftest import scene_file_text

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
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(oracle_cases())
    def test_matches_literal_fd_at_every_coordinate(self, case):
        # every attention and raster-latent coordinate: the rank-one FD equals
        # the FD of _restricted_loss on the fully perturbed map to 1e-9
        # relative, floored at 1e-11 (the literal's own rounding noise is
        # about 1e-19 * |loss| / h per ulp); the sum-form values match the
        # literal ones at the base and at every perturbed map
        scene, cfg, stage, logits = case
        long = gradcheck.LONG
        h = long(FD_STEP)
        coords = coord_grid(scene.grid_height, scene.grid_width, dtype=long)
        for k, terms in enumerate(_object_terms(scene, cfg)):

            def literal(map_k, terms=terms):
                return _restricted_loss(map_k, *terms, coords, cfg, stage)

            z = logits[k].astype(long)
            for space, base in (("attention", np.exp(logits[k]).astype(long)), ("latent", np.exp(z))):
                sums = _PixelSums(base, *terms, coords, cfg, stage)
                value = literal(base)
                assert abs(sums.loss(long(0), 0, 0) - value) <= _value_bound(value, terms[1])
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
                    value_up = literal(up_map)
                    assert abs(sums.loss(up, y, x) - value_up) <= _value_bound(value_up, terms[1])
                    fd = float((value_up - literal(down_map)) / (2 * h))
                    rank_one = sums.fd(y, x, up, down, h)
                    assert abs(rank_one - fd) <= max(1e-9 * max(abs(rank_one), abs(fd)), 1e-11), (
                        space, k, y, x, rank_one, fd,
                    )

    def test_anchor_mismatch_raises_without_judging(self, monkeypatch):
        loss = _PixelSums.loss
        monkeypatch.setattr(_PixelSums, "loss", lambda self, *a: loss(self, *a) * (1 + 1e-15))
        with pytest.raises(OracleError, match="literal"):
            check_gradients(canonical_scene(), GuidanceConfig(), "raster", 1, seed=0, samples=5)

    def test_same_coordinates_and_counts_as_the_literal_sampler(self, two_object_scene):
        # the rng draws k, y, x per attention sample, then per latent sample
        result = check_gradients(two_object_scene, GuidanceConfig(), "raster", 1, seed=3, samples=40)
        assert result.checked == 80 and result.passed
        result = check_gradients(two_object_scene, GuidanceConfig(), "blob", 2, seed=3, samples=40)
        assert result.checked == 40 + 5 * 2 and result.passed


class TestCollapsedMaps:
    def test_map_far_below_the_step_is_refused_by_name(self):
        # log-amplitude -1e4 renders an all-zero map; the central difference
        # of f = e_in / (S + eps) then failed 29 of 60 correct coordinates
        latent = init_latent(canonical_scene(), "blob", 0)
        values = latent.values.copy()
        values[1, 4] = -1e4
        for stage in (1, 2):
            with pytest.raises(OracleError, match=r"object 1's map mass 0 .* step 1e-06"):
                check_gradients(
                    canonical_scene(), GuidanceConfig(), "blob", stage, seed=0, samples=50,
                    latent=LatentState(mode="blob", values=values),
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
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(extreme_scenes())
    def test_analytic_gradient_passes_at_rel_1e_5(self, case):
        scene, seed = case
        for stage in (1, 2):
            result = check_gradients(
                scene, GuidanceConfig(), "raster", stage, seed=seed, samples=60, rel_tol=1e-5
            )
            assert result.passed, result.failures[:3]


def _skew(fn, k: int, factor: float):
    def skewed(*args):
        out = np.array(fn(*args), dtype=np.float64)
        out[k] *= factor
        return out

    return skewed


class TestNegativeControl:
    # one object's analytic gradient off by 1e-3 relative must be caught

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_wrong_attention_gradient_is_reported(self, monkeypatch, mode):
        monkeypatch.setattr(gradcheck, "grad_staged_loss", _skew(gradcheck.grad_staged_loss, 0, 1 + 1e-3))
        result = check_gradients(canonical_scene(), GuidanceConfig(), mode, 1, seed=2, samples=100)
        failed = {(r.space, r.object_index) for r in result.failures}
        assert ("attention", 0) in failed
        assert all(k == 0 for _, k in failed)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_wrong_latent_gradient_is_reported(self, monkeypatch, mode):
        monkeypatch.setattr(
            gradcheck, "backprop_to_latent", _skew(gradcheck.backprop_to_latent, 1, 1 - 1e-3)
        )
        result = check_gradients(canonical_scene(), GuidanceConfig(), mode, 2, seed=2, samples=100)
        assert result.failures
        assert {(r.space, r.object_index) for r in result.failures} == {("latent", 1)}

    @pytest.mark.parametrize("target", ["grad_staged_loss", "backprop_to_latent"])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_grad_check_exits_3(self, monkeypatch, capsys, target, mode):
        monkeypatch.setattr(gradcheck, target, _skew(getattr(gradcheck, target), 0, 1 + 1e-3))
        assert main(["grad-check", "--mode", mode, "--samples", "60", "--seed", "1"]) == 3
        assert "FAILURES" in capsys.readouterr().out


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
        result = check_gradients(canonical_scene(), GuidanceConfig(), "raster", 1, seed=4, samples=50)
        assert result.passed

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is float64 on this platform",
    )
    def test_extended_precision_prints_no_note(self, capsys):
        assert main(["grad-check", "--samples", "20"]) == 0
        assert "note:" not in capsys.readouterr().out
