"""The finite-difference oracle: its rank-one form, its anchor, and that it catches errors."""

from __future__ import annotations

import json
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
    CoordGrid,
    OracleError,
    _blob_map,
    _object_terms,
    _PixelSums,
    _restricted_loss,
    check_gradients,
    spatial_mean,
    spatial_variance,
)
from deptharb.surrogate import _Blob, _Raster

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
    @settings(max_examples=30)
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
        scene = canonical_scene()
        with pytest.raises(OracleError, match="literal"):
            check_gradients(scene, GuidanceConfig(), init_latent(scene, "raster", 0), 1, seed=0, samples=5)

    def test_same_coordinates_and_counts_as_the_literal_sampler(self, two_object_scene):
        # the rng draws k, y, x per attention sample, then per latent sample
        latent = init_latent(two_object_scene, "raster", 3)
        result = check_gradients(two_object_scene, GuidanceConfig(), latent, 1, seed=3, samples=40)
        assert result.checked == 80 and result.passed
        latent = init_latent(two_object_scene, "blob", 3)
        result = check_gradients(two_object_scene, GuidanceConfig(), latent, 2, seed=3, samples=40)
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
                    canonical_scene(), GuidanceConfig(), LatentState(mode="blob", values=values), stage,
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
        for stage in (1, 2):
            result = check_gradients(
                scene, GuidanceConfig(), init_latent(scene, "raster", seed), stage, seed=seed, samples=60,
                rel_tol=1e-5,
            )
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
        assert _restricted_loss(map_k, mask_k, depth, fg_terms, thin, cfg, stage) == _restricted_loss(
            map_k, mask_k, depth, fg_terms, full, cfg, stage
        )
        blob = _blob_map(params, thin.x, thin.y)
        assert blob.shape == (height, width)
        assert np.array_equal(blob, _blob_map(params, full.x, full.y))


def _scaled(grad, k: int, factor: float) -> np.ndarray:
    out = np.array(grad, dtype=np.float64)
    out[k] *= factor
    return out


def _skew_attention(monkeypatch, k: int, factor: float) -> None:
    """The kernel's gradient of object k, and nothing else, off by `factor`."""
    real = gradcheck.value_and_grad

    def skewed(*args):
        breakdown, grad = real(*args)
        return breakdown, _scaled(grad, k, factor)

    monkeypatch.setattr(gradcheck, "value_and_grad", skewed)


def _skew_latent(monkeypatch, k: int, factor: float) -> None:
    """Both surrogates' chain rule for object k off by `factor`."""
    for cls in (_Raster, _Blob):
        real = cls.chain
        monkeypatch.setattr(cls, "chain", lambda self, grad, real=real: _scaled(real(self, grad), k, factor))


SKEWS = {"attention": _skew_attention, "latent": _skew_latent}


class TestNegativeControl:
    # one object's analytic gradient off by 1e-3 relative must be caught

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_wrong_attention_gradient_is_reported(self, monkeypatch, mode):
        _skew_attention(monkeypatch, 0, 1 + 1e-3)
        scene = canonical_scene()
        result = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 2), 1, seed=2, samples=100)
        failed = {(r.space, r.object_index) for r in result.failures}
        assert ("attention", 0) in failed
        assert all(k == 0 for _, k in failed)

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_wrong_latent_gradient_is_reported(self, monkeypatch, mode):
        _skew_latent(monkeypatch, 1, 1 - 1e-3)
        scene = canonical_scene()
        result = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 2), 2, seed=2, samples=100)
        assert result.failures
        assert {(r.space, r.object_index) for r in result.failures} == {("latent", 1)}

    @pytest.mark.parametrize("space", ["attention", "latent"])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_grad_check_exits_3(self, monkeypatch, capsys, space, mode):
        SKEWS[space](monkeypatch, 0, 1 + 1e-3)
        assert main(["grad-check", "--mode", mode, "--samples", "60", "--seed", "1"]) == 3
        assert "FAILURES" in capsys.readouterr().out


class TestRunLoopSequence:
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_one_surrogate_renders_once_and_chains_that_render(self, monkeypatch, mode):
        # per surrogate built: its render calls, and the render count each chain call saw
        built = []
        real = gradcheck._surrogate

        def counting(scene, mode_):
            surrogate = real(scene, mode_)
            calls = {"render": 0, "chain": []}
            render, chain = surrogate.render, surrogate.chain

            def counted_render(values):
                calls["render"] += 1
                return render(values)

            def counted_chain(grad):
                calls["chain"].append(calls["render"])
                return chain(grad)

            surrogate.render, surrogate.chain = counted_render, counted_chain
            built.append(calls)
            return surrogate

        monkeypatch.setattr(gradcheck, "_surrogate", counting)
        scene = canonical_scene()
        result = check_gradients(scene, GuidanceConfig(), init_latent(scene, mode, 2), 1, seed=2, samples=50)
        assert result.passed
        assert built == [{"render": 1, "chain": [1]}]


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
        result = check_gradients(scene, GuidanceConfig(), latent, 1, seed=4, samples=50)
        assert result.passed

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is float64 on this platform",
    )
    def test_extended_precision_prints_no_note(self, capsys):
        assert main(["grad-check", "--samples", "20"]) == 0
        assert "note:" not in capsys.readouterr().out
