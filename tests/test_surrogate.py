from __future__ import annotations

import ast
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deptharb import (
    GuidanceConfig,
    LatentState,
    SceneObject,
    SceneSpec,
    SurrogateError,
    check_gradients,
    derive_occlusion_pairs,
    init_latent,
    render_attention,
    run_guidance,
    staged_loss,
)
from deptharb import canonical_scene, parse_scene
from deptharb.gradcheck import _blob_map, coord_grid, spatial_mean
from deptharb.losses import _columns, _plan, _product_views, _reduce, _step_factors
from deptharb.surrogate import JITTER, MODES, _Blob, _mode_class, _surrogate, with_default_step
from perfbench import scenegen

from reference import (
    dense_blob_chain,
    normalize_map,
    reference_blob_chain,
    reference_blob_reduce,
    reference_blob_render,
)


def one_blob_scene(bbox=(0.2, 0.2, 0.6, 0.6), grid: int = 9) -> SceneSpec:
    return SceneSpec(
        grid_height=grid,
        grid_width=grid,
        objects=(SceneObject(id=0, label="", bbox=bbox, depth=0.7),),
    )


def per_object_init(scene: SceneSpec, mode: str, seed: int) -> np.ndarray:
    """The seeded start as a per-object loop: the reference `init_latent` must match bit for bit."""
    rng = np.random.default_rng(seed)
    k = len(scene.objects)
    if mode == "raster":
        return rng.uniform(-1.0, 1.0, size=(k, scene.grid_height, scene.grid_width))
    values = np.zeros((k, 5), dtype=np.float64)
    for i, obj in enumerate(scene.objects):
        x0, y0, x1, y1 = obj.bbox
        values[i, 0] = (x0 + x1) / 2.0
        values[i, 1] = (y0 + y1) / 2.0
        values[i, 2] = np.log((x1 - x0) / 4.0)
        values[i, 3] = np.log((y1 - y0) / 4.0)
        values[i, 4] = 0.0
    values[:, 0:2] += rng.uniform(-1.0, 1.0, size=(k, 2)) * JITTER
    return values


@st.composite
def init_cases(draw):
    """1-6 boxes, some one ulp wide, in either mode, at any seed the CLI accepts."""
    height, width = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    objects = []
    for i in range(draw(st.integers(1, 6))):
        r0, c0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        if draw(st.booleans()):
            # the thinnest legal box: one ulp wide, starting on a pixel centre
            x0, y0 = (c0 + 0.5) / width, (r0 + 0.5) / height
            bbox = (x0, y0, float(np.nextafter(x0, 1.0)), float(np.nextafter(y0, 1.0)))
        else:
            r1, c1 = draw(st.integers(r0 + 1, height)), draw(st.integers(c0 + 1, width))
            bbox = (c0 / width, r0 / height, c1 / width, r1 / height)
        objects.append(SceneObject(id=i, label="", bbox=bbox, depth=0.5))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    seed = draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    return scene, draw(st.sampled_from(["raster", "blob"])), seed


class TestInit:
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_same_seed_bit_identical(self, two_object_scene, mode):
        a = init_latent(two_object_scene, mode, seed=123)
        b = init_latent(two_object_scene, mode, seed=123)
        assert a.mode == b.mode
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self, two_object_scene):
        a = init_latent(two_object_scene, "raster", seed=1)
        b = init_latent(two_object_scene, "raster", seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_blob_without_jitter_hits_box_geometry(self):
        latent = init_latent(one_blob_scene(), "blob", seed=0)
        _, _, lsx, lsy, la = latent.values[0]
        assert lsx == pytest.approx(math.log(0.1), abs=1e-15)
        assert lsy == pytest.approx(math.log(0.1), abs=1e-15)
        assert la == 0.0

    def test_blob_jitter_stays_within_bound(self, two_object_scene):
        for seed in range(10):
            latent = init_latent(two_object_scene, "blob", seed=seed)
            for k, obj in enumerate(two_object_scene.objects):
                x0, y0, x1, y1 = obj.bbox
                assert abs(latent.values[k, 0] - (x0 + x1) / 2) <= 0.05
                assert abs(latent.values[k, 1] - (y0 + y1) / 2) <= 0.05

    def test_raster_shape_and_range(self):
        scene = SceneSpec(
            grid_height=8,
            grid_width=8,
            objects=(
                SceneObject(id=0, label="", bbox=(0.0, 0.0, 0.5, 0.5), depth=0.1),
                SceneObject(id=1, label="", bbox=(0.5, 0.5, 1.0, 1.0), depth=0.9),
            ),
        )
        latent = init_latent(scene, "raster", seed=7)
        assert latent.values.shape == (2, 8, 8)
        assert (latent.values >= -1.0).all() and (latent.values <= 1.0).all()

    def test_unknown_mode(self, two_object_scene):
        # one lookup, one message, whichever entry point meets the mode first
        message = "^" + re.escape(f"mode must be one of {MODES}, got 'spline'") + "$"
        with pytest.raises(SurrogateError, match=message):
            init_latent(two_object_scene, "spline", seed=0)
        with pytest.raises(SurrogateError, match=message):
            LatentState(mode="spline", values=np.zeros((2, 5)))
        for cfg in (GuidanceConfig(), GuidanceConfig(eta0=1.0)):
            with pytest.raises(SurrogateError, match=message):
                with_default_step(cfg, "spline")

    def test_a_long_unknown_mode_gives_a_short_message(self, two_object_scene):
        with pytest.raises(SurrogateError) as info:
            init_latent(two_object_scene, "x" * 100_000, seed=0)
        message = str(info.value)
        assert len(message) < 300 and message.endswith("... (100000 characters)"), message

    @settings(max_examples=60)
    @given(init_cases())
    def test_matches_the_per_object_start_bit_for_bit(self, case):
        scene, mode, seed = case
        latent = init_latent(scene, mode, seed)
        assert latent.mode == mode
        assert np.array_equal(latent.values, per_object_init(scene, mode, seed))


class TestRender:
    def test_blob_peak_at_exact_center(self):
        # 9x9 grid: pixel (4, 4) center is exactly (0.5, 0.5)
        scene = one_blob_scene(bbox=(0.3, 0.3, 0.7, 0.7))
        values = np.array([[0.5, 0.5, math.log(0.1), math.log(0.1), 0.0]])
        field = render_attention(LatentState(mode="blob", values=values), scene)
        assert field[0][4, 4] == 1.0
        assert field[0].max() == 1.0

    def test_blob_neighbor_value(self):
        scene = one_blob_scene(bbox=(0.3, 0.3, 0.7, 0.7))
        values = np.array([[0.5, 0.5, math.log(0.1), math.log(0.1), 0.0]])
        field = render_attention(LatentState(mode="blob", values=values), scene)
        dx = (5 + 0.5) / 9 - 0.5
        expected = math.exp(-(dx**2) / 0.02)
        assert field[0][4, 5] == pytest.approx(expected, rel=1e-12)
        assert field[0][4, 5] == pytest.approx(0.53941, abs=1e-5)

    def test_zero_logits_render_ones(self, two_object_scene):
        values = np.zeros((2, 16, 16))
        field = render_attention(LatentState(mode="raster", values=values), two_object_scene)
        assert (field.maps == 1.0).all()

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_strictly_positive_finite(self, two_object_scene, mode):
        for seed in range(5):
            latent = init_latent(two_object_scene, mode, seed=seed)
            field = render_attention(latent, two_object_scene)
            assert (field.maps > 0.0).all()
            assert np.isfinite(field.maps).all()

    def test_shape_mismatch_rejected(self, two_object_scene):
        # a latent is built whatever its shape; every consumer checks it
        # against the mode's `latent_shape` for its scene, with one message
        scene = two_object_scene
        consumers = (
            lambda latent: render_attention(latent, scene),
            lambda latent: run_guidance(scene, GuidanceConfig(total_steps=1), latent),
            lambda latent: check_gradients(scene, GuidanceConfig(), latent, (1,), seed=0, samples=1),
        )
        for mode in MODES:
            expected = _mode_class(mode).latent_shape(scene)
            wrong_rank = (expected[:-1], expected + (1,))
            wrong_size = ((expected[0] + 1, *expected[1:]), expected[:-1] + (expected[-1] + 1,))
            for shape in wrong_rank + wrong_size:
                latent = LatentState(mode=mode, values=np.zeros(shape))
                message = "^" + re.escape(f"{mode} latent shape {shape} != scene shape {expected}") + "$"
                for consume in consumers:
                    with pytest.raises(SurrogateError, match=message):
                        consume(latent)


def _products(u: np.ndarray, v: np.ndarray, grad: np.ndarray) -> list:
    """One run of maps whose dL/dA = u @ v, as `losses._product_views` hands it out, writing into grad."""
    return [(u, v, grad)]


class TestBackprop:
    def test_zero_gradient_maps_to_zero(self, two_object_scene):
        for mode in ("raster", "blob"):
            latent = init_latent(two_object_scene, mode, seed=3)
            surrogate = _surrogate(two_object_scene, mode, 1)
            surrogate.render(latent.values[None])
            grad = np.empty((2, 16, 16))
            g = surrogate.chain(_products(np.zeros((2, 16, 3)), np.zeros((2, 3, 16)), grad), grad)
            assert (g == 0.0).all()
            assert g.shape == latent.values.shape

    def test_raster_chain_rule_is_single_multiplication(self, two_object_scene):
        latent = init_latent(two_object_scene, "raster", seed=5)
        # dL/dA = u @ v is 2.5 at (1, 3, 7) and 0 elsewhere
        u, v = np.zeros((2, 16, 1)), np.zeros((2, 1, 16))
        u[1, 3, 0], v[1, 0, 7] = 2.5, 1.0
        surrogate = _surrogate(two_object_scene, "raster", 1)
        surrogate.render(latent.values[None])
        grad = np.empty((2, 16, 16))
        out = surrogate.chain(_products(u, v, grad), grad)
        expected = 2.5 * math.exp(latent.values[1, 3, 7])
        assert out[1, 3, 7] == pytest.approx(expected, rel=1e-15)
        out[1, 3, 7] = 0.0
        assert (out == 0.0).all()

    def test_blob_parameters_match_finite_differences(self):
        # end-to-end: all five parameters of a one-object scene
        scene = one_blob_scene(grid=24)
        cfg = GuidanceConfig()
        latent = init_latent(scene, "blob", seed=11)
        pairs = derive_occlusion_pairs(scene)

        def loss_at(values: np.ndarray) -> float:
            state = LatentState(mode="blob", values=values)
            field = render_attention(state, scene)
            return staged_loss(field, scene, pairs, cfg, 1).total

        # the run's sequence: render, reduce, the kernel's factors, chain
        surrogate, plan = _surrogate(scene, "blob", 1), _plan(scene, pairs, [cfg])
        surrogate.render(latent.values[None])
        surrogate.reduce(plan)
        _step_factors(plan, _columns(plan, [[1]]), 0)
        grad = np.empty((1, 24, 24))
        analytic = surrogate.chain(_product_views(plan, [1], 0, 1, grad), grad)
        h = 1e-6
        for p in range(5):
            plus = latent.values.copy()
            minus = latent.values.copy()
            plus[0, p] += h
            minus[0, p] -= h
            fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
            assert abs(analytic[0, p] - fd) <= max(1e-9, 1e-5 * max(abs(analytic[0, p]), abs(fd)))


TINY = np.finfo(np.float64).tiny


CENTRE = st.floats(-0.5, 1.5)
LOG_SIGMA = st.floats(math.log(1e-3), math.log(10.0))
LOG_AMPLITUDE = st.floats(-50.0, 709.0)


def blob_params(draw) -> list[float]:
    """One object's (cx, cy, lsx, lsy, la): a centre off the canvas, any sigma in [1e-3, 10] and a
    log-amplitude up to 709."""
    return [draw(CENTRE), draw(CENTRE), draw(LOG_SIGMA), draw(LOG_SIGMA), draw(LOG_AMPLITUDE)]


@st.composite
def blob_states(draw):
    """A K-object blob latent (`blob_params`) on an H != W grid, with a seed for dL/dA."""
    k = draw(st.integers(1, 5))
    height = draw(st.integers(2, 40))
    width = draw(st.integers(2, 40).filter(lambda w: w != height))
    values = np.array([blob_params(draw) for _ in range(k)])
    objects = tuple(SceneObject(id=i, label="", bbox=(0.0, 0.0, 1.0, 1.0), depth=0.5) for i in range(k))
    return SceneSpec(grid_height=height, grid_width=width, objects=objects), values, draw(st.integers(0, 2**32 - 1))


@st.composite
def blob_batches(draw):
    """A `blob_states` case with B in {1, 3} rows of latent (B, K, 5), and a range lo..hi of its B * K maps."""
    scene, values, seed = draw(blob_states())
    batch = draw(st.sampled_from([1, 3]))
    rows = [values] + [np.array([blob_params(draw) for _ in values]) for _ in range(batch - 1)]
    lo = draw(st.integers(0, batch * len(values) - 1))
    hi = draw(st.integers(lo + 1, batch * len(values)))
    return scene, np.stack(rows), seed, lo, hi


def five_sums(values, maps, grad, coords, mag=lambda a: a):
    """The per-object dense chain rule: dL/dA * A contracted against dx, dy, dx^2, dy^2 and 1.

    With mag=np.abs it gives the sums of absolute terms, the scale of each partial.
    """
    out = np.zeros_like(values)
    for i in range(len(values)):
        cx, cy, lsx, lsy, _ = values[i]
        sx = np.exp(lsx)
        sy = np.exp(lsy)
        ga = mag(grad[i] * maps[i])
        dx = mag(coords.x - cx)
        dy = mag(coords.y - cy)
        out[i, 0] = (ga * dx).sum() / sx**2
        out[i, 1] = (ga * dy).sum() / sy**2
        out[i, 2] = (ga * dx**2).sum() / sx**2
        out[i, 3] = (ga * dy**2).sum() / sy**2
        out[i, 4] = ga.sum()
    return out


class TestSeparableBlob:
    """The rank-one render and its two contractions against the dense definitions."""

    @given(blob_states())
    @settings(max_examples=300)
    def test_render_matches_the_literal_blob_map(self, state):
        scene, values, _ = state
        blob = _Blob(scene, 1)
        blob.render(values[None])
        maps = blob.field()[0]
        coords = coord_grid(scene.grid_height, scene.grid_width)
        for k, params in enumerate(values):
            literal = _blob_map(params, coords.x, coords.y)
            # the literal's unit-amplitude exp(-(u + v)) must be normal too:
            # a subnormal one has lost the precision the amplitude scales up
            unit = _blob_map(np.append(params[:4], 0.0), coords.x, coords.y)
            normal = (literal >= TINY) & (unit >= TINY)
            # the literal squares sigma with a scalar power, which can differ
            # from x * x by an ulp, and rounds u + v; exp turns those ulps of
            # the exponent u + v <= 708 into relative error (u + v) * 2^-51
            exponent = -np.log(unit[normal])
            err = np.abs(maps[k] - literal)[normal]
            assert (err <= (1e-13 + exponent * 2.0**-51) * literal[normal]).all()

    @given(blob_states())
    @settings(max_examples=300)
    def test_chain_matches_the_dense_five_sums(self, state):
        scene, values, seed = state
        blob = _Blob(scene, 1)
        blob.render(values[None])
        maps = blob.field()[0]
        coords = coord_grid(scene.grid_height, scene.grid_width)
        # dL/dA = u @ v of four columns, scaled so that no dense product overflows at an amplitude of e^709
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, (len(values), scene.grid_height, 4)) * 2.0**-7
        v = rng.uniform(-1.0, 1.0, (len(values), 4, scene.grid_width)) * 2.0**-7
        got = blob.chain(_products(u, v, None))
        want = five_sums(values, maps, u @ v, coords)
        # the factor form rounds the products of |u| and |v| that u @ v sums
        scale = five_sums(values, maps, np.abs(u) @ np.abs(v), coords, mag=np.abs)
        # a factor product in the subnormal range is off by up to 2^-1075,
        # which the amplitude and a partial's 1 / sigma^2 scale; per pixel,
        # with a 32x margin
        sx2, sy2 = np.exp(values[:, 2]) ** 2, np.exp(values[:, 3]) ** 2
        amp = np.maximum(1.0, np.exp(values[:, 4]))
        subnormal = 2.0**-1070 * maps[0].size * (1 + 1 / sx2 + 1 / sy2) * amp
        assert np.isfinite(want).all()
        assert (np.abs(got - want) <= 1e-12 * scale + subnormal[:, None]).all()


class TestBlobMatchesReference:
    """The blob render, reductions and chain, written into per-run buffers, against the allocating factor forms
    in `reference`."""

    @given(blob_batches())
    @settings(max_examples=200)
    def test_field_and_partials_bit_for_bit(self, case):
        scene, values, seed, lo, hi = case
        height, width, n = scene.grid_height, scene.grid_width, values.shape[0] * values.shape[1]
        blob = _Blob(scene, len(values))
        plan = _plan(scene, derive_occlusion_pairs(scene), [GuidanceConfig()] * len(values))
        blob.render(values)
        want_maps, factors = reference_blob_render(values, height, width)
        assert np.array_equal(blob.field(), want_maps)
        # at an amplitude near e^709 a sum of g_y, and the reductions with it, can overflow, in both forms
        with np.errstate(over="ignore", invalid="ignore"):
            blob.reduce(plan)
            row_dots, col_sum = reference_blob_reduce(factors, plan.colmat)
        assert np.array_equal(plan.scratch.row_dots, row_dots, equal_nan=True)
        assert np.array_equal(plan.scratch.col_sum, col_sum, equal_nan=True)
        # dL/dA = u @ v of five columns; a tile's second run of maps reads the first three, as stage 2 does
        rng = np.random.default_rng(seed)
        u, v = rng.uniform(-1.0, 1.0, (n, height, 5)) * 2.0**-7, rng.uniform(-1.0, 1.0, (n, 5, width)) * 2.0**-7
        assert np.array_equal(blob.chain(_products(u, v, None)), reference_blob_chain(factors, [(u, v)]))
        mid = (lo + hi + 1) // 2
        products = [(u[lo:mid], v[lo:mid]), (u[mid:hi, :, :3], v[mid:hi, :3])]
        got = blob.chain([(*product, None) for product in products], None, lo, hi)
        assert np.array_equal(got, reference_blob_chain(factors, products, lo))

    def test_render_and_chain_allocate_nothing_per_call(self):
        # numpy's ufunc iterator may buffer an operand, at most 8192 elements per operand and call; with
        # rows of 8192 pixels one (B * K, W) array is larger than any such buffer
        scene = SceneSpec(
            grid_height=4,
            grid_width=8192,
            objects=(
                SceneObject(id=0, label="", bbox=(0.1, 0.2, 0.6, 0.7), depth=0.2),
                SceneObject(id=1, label="", bbox=(0.4, 0.3, 0.9, 0.9), depth=0.8),
            ),
        )
        batch, k, width = 3, len(scene.objects), scene.grid_width
        values = np.stack([init_latent(scene, "blob", seed).values for seed in range(batch)])
        blob = _Blob(scene, batch)
        plan = _plan(scene, derive_occlusion_pairs(scene), [GuidanceConfig()] * batch)
        u, v = plan.factors
        products = _products(u, v, None)
        # every chain returns a view of the same surrogate-owned buffer
        blob.render(values)
        blob.reduce(plan)
        partials = blob.chain(products)
        assert np.shares_memory(blob.chain(_products(u[1:4], v[1:4], None), None, 1, 4), partials)
        tracemalloc.start()
        try:
            blob.render(values)
            blob.reduce(plan)
            blob.chain(products)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                blob.render(values)
                blob.reduce(plan)
                assert np.shares_memory(blob.chain(products), partials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no temporary as large as one (B * K, W) array of doubles was ever alive
        assert peak - before < batch * k * width * 8


def _blob_run_state(scene: SceneSpec, seed: int, steps: int) -> np.ndarray:
    """The blob latent of `scene` from seed `seed` after `steps` steps at the mode's default step."""
    return run_guidance(scene, GuidanceConfig(total_steps=steps), init_latent(scene, "blob", seed)).final_latent.values


LOG = math.log
# (cx, cy, lsx, lsy, la) per object of the canonical scene; the amplitude e^708.5 keeps sum g_y and
# sum g_x * g_y finite (about 1.5e308 at most), where the factor and dense forms can be compared
EXTREME_LATENTS = {
    "sigma 1e-3 of the canvas": [[0.3, 0.4, LOG(1e-3), LOG(1e-3), 0.0], [0.62, 0.55, LOG(1e-3), LOG(2e-3), 0.0]],
    "centre off the canvas": [[-0.5, 0.4, LOG(0.05), LOG(0.1), 0.0], [0.6, 1.5, LOG(0.1), LOG(0.05), 0.0]],
    "la near 709": [[0.35, 0.35, LOG(0.02), LOG(0.02), 708.5], [0.65, 0.6, LOG(0.01), LOG(0.015), 708.5]],
}

AGREEMENT_CASES = {
    **{f"canonical seed {seed}": (lambda seed=seed: (canonical_scene(), init_latent(canonical_scene(), "blob", seed)
                                                      .values)) for seed in range(4)},
    "canonical seed 7 after 20 steps": lambda: (canonical_scene(), _blob_run_state(canonical_scene(), 7, 20)),
    **{f"small_scene({n})": (lambda n=n: (lambda scene: (scene, init_latent(scene, "blob", n).values))(
        parse_scene(json.dumps(scenegen.small_scene(n))))) for n in range(5)},
    **{name: (lambda values=values: (canonical_scene(), np.array(values))) for name, values in EXTREME_LATENTS.items()},
}

EPS = np.finfo(np.float64).eps
SUBNORMAL = 2.0**-1074


class TestFactorFormsMatchDense:
    """The blob's reductions and chain, read from its 1-D factors, against the dense definitions: the field
    rendered and reduced by `losses._reduce`, and the (3, H) @ (H, W) chain of the dense dL/dA = U @ V.

    A reduction's terms are all >= 0, and the two forms round one product per term and a sum over a grid
    line in other orders: on these cases they differ by at most 3.9 eps relative, and must agree to
    8 eps, plus (H + W) * 2^-1074 for products that fall in the subnormal range.  The chain's terms have
    both signs and cancel, so its forms are compared against the sum of the terms' magnitudes, the scale
    of their rounding (a partial can be 1e5 times smaller): they differ by at most 1.1 eps of it and must
    agree to 4 eps, plus 2^-1074 per term, scaled by a partial's 1 / sigma.
    """

    @pytest.mark.parametrize("case", list(AGREEMENT_CASES))
    def test_reductions_and_chain(self, case):
        scene, values = AGREEMENT_CASES[case]()
        k, height, width = len(scene.objects), scene.grid_height, scene.grid_width
        pairs = derive_occlusion_pairs(scene)
        cfg = GuidanceConfig()
        blob, plan, dense = _Blob(scene, 1), _plan(scene, pairs, [cfg]), _plan(scene, pairs, [cfg])
        blob.render(values[None])
        blob.reduce(plan)
        maps = blob.field()
        _reduce(maps[0], dense)
        for name in ("row_dots", "col_sum"):
            got, want = getattr(plan.scratch, name), getattr(dense.scratch, name)
            assert np.isfinite(want).all()
            assert (np.abs(got - want) <= 8 * EPS * want + (height + width) * SUBNORMAL).all()

        # the run's own factors at both stages; random ones at the extreme states, whose loss can overflow
        _, factors = reference_blob_render(values, height, width)
        if case in EXTREME_LATENTS:
            rng = np.random.default_rng(0)
            u, v = rng.uniform(-1.0, 1.0, (k, height, 5)) * 2.0**-20, rng.uniform(-1.0, 1.0, (k, 5, width)) * 2.0**-20
            runs = [(u, v)]
        else:
            _step_factors(plan, _columns(plan, [[1]]), 0)
            u, v = plan.factors
            runs = [(u, v), (u[:, :, :3], v[:, :3])]
        magnitudes = reference_blob_render(values, height, width)[1]
        magnitudes.left, magnitudes.right = np.abs(factors.left), np.abs(factors.right)
        for u, v in runs:
            m = u.shape[2]
            got = blob.chain(_products(u, v, None))
            want = dense_blob_chain(factors, u @ v)
            scale = dense_blob_chain(magnitudes, np.abs(u) @ np.abs(v))
            slack = SUBNORMAL * (height * width + m * (height + width + 9)) * (1 + 1 / factors.sx + 1 / factors.sy)
            assert np.isfinite(want).all()
            assert (np.abs(got - want) <= 4 * EPS * scale + slack[:, None]).all()


class TestEndToEndGradients:
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_latent_space_finite_differences(self, two_object_scene, mode, stage):
        latent = init_latent(two_object_scene, mode, 19)
        [result] = check_gradients(two_object_scene, GuidanceConfig(), latent, (stage,), seed=19, samples=150)
        assert result.passed, result.failures[:3]
        assert result.checked >= 150


class TestTranslationCovariance:
    def test_center_shift_moves_spatial_mean(self):
        scene = SceneSpec(
            grid_height=64,
            grid_width=64,
            objects=(SceneObject(id=0, label="", bbox=(0.25, 0.25, 0.55, 0.55), depth=0.5),),
        )
        sigma = 0.05  # 3-sigma support stays inside the grid before and after
        base = np.array([[0.4, 0.4, math.log(sigma), math.log(sigma), 0.0]])
        delta = 0.02
        shifted = base.copy()
        shifted[0, 0] += delta
        coords = coord_grid(64, 64)
        mus = []
        for values in (base, shifted):
            field = render_attention(LatentState(mode="blob", values=values), scene)
            norm = normalize_map(field[0], 1e-8)
            mus.append(spatial_mean(norm, coords))
        assert abs((mus[1][0] - mus[0][0]) - delta) <= 1.0 / 64.0
        assert abs(mus[1][1] - mus[0][1]) <= 1.0 / 64.0


# the one deliberate mode-name comparison: the oracle keeps its own latent
# branch, independent of the surrogate classes it checks
ORACLE_BRANCH = ("gradcheck.py", "check_gradients")


def _names_a_mode(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in MODES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_mode(elt) for elt in node.elts)
    if isinstance(node, ast.MatchValue):
        return _names_a_mode(node.value)
    if isinstance(node, ast.MatchOr):
        return any(_names_a_mode(p) for p in node.patterns)
    return False


def mode_comparisons(src: Path) -> list[tuple[str, int, str]]:
    """(file, line, function) of every comparison or `case` against a mode-name literal under `src`."""
    found = []

    def visit(node: ast.AST, path: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and any(map(_names_a_mode, (node.left, *node.comparators))):
            found.append((path, node.lineno, function))
        if isinstance(node, ast.match_case) and _names_a_mode(node.pattern):
            found.append((path, node.pattern.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


class TestModeTable:
    def test_no_mode_branch_outside_the_table(self):
        # a mode is added as one class in `_SURROGATES`: no module branches on its name
        import deptharb

        found = mode_comparisons(Path(deptharb.__file__).parent)
        assert [f for f in found if (f[0], f[2]) != ORACLE_BRANCH] == []

    def test_the_lint_sees_a_comparison_and_a_case(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def f(mode):\n"
            f"    if {MODES[-1]!r} == mode:\n"
            "        return 1\n"
            f"    if mode in ({MODES[0]!r}, 'other'):\n"
            "        return 2\n"
            "    match mode:\n"
            f"        case {MODES[0]!r} | 'other':\n"
            "            return 3\n",
            encoding="utf-8",
        )
        assert mode_comparisons(tmp_path) == [("m.py", 2, "f"), ("m.py", 4, "f"), ("m.py", 7, "f")]

    @pytest.mark.parametrize("mode", MODES)
    def test_each_class_owns_its_default_step(self, mode):
        default_eta0 = _mode_class(mode).default_eta0
        assert default_eta0 > 0
        assert with_default_step(GuidanceConfig(), mode) == GuidanceConfig(eta0=default_eta0)
        set_cfg = GuidanceConfig(eta0=3.0)
        assert with_default_step(set_cfg, mode) is set_cfg
