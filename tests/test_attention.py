from __future__ import annotations

import numpy as np
import pytest

from deptharb import AttentionError, AttentionField, LatentState, SceneObject, SceneSpec, SurrogateError
from deptharb.gradcheck import coord_grid
from deptharb.metrics import NONE_ID

from reference import from_maps, normalize_map, pseudo_segment, threshold_mask

EPS = 1e-8


class TestNormalize:
    def test_uniform_map(self):
        out = normalize_map(np.ones((4, 4)), EPS)
        assert np.abs(out - 1.0 / 16.0).max() <= 1e-9

    def test_all_zero_passes_through(self):
        out = normalize_map(np.zeros((3, 3)), EPS)
        assert (out == 0.0).all()

    def test_single_pixel_mass(self):
        m = np.zeros((4, 4))
        m[2, 1] = 5.0
        out = normalize_map(m, EPS)
        assert out[2, 1] == pytest.approx(1.0, abs=1e-8)
        out[2, 1] = 0.0
        assert (out == 0.0).all()

    def test_rejects_negative_and_nan(self):
        with pytest.raises(AttentionError):
            normalize_map(np.array([[1.0, -0.5]]), EPS)
        with pytest.raises(AttentionError):
            normalize_map(np.array([[1.0, np.nan]]), EPS)
        with pytest.raises(AttentionError):
            normalize_map(np.ones((2, 2)), 0.0)

    def test_scale_invariance_up_to_epsilon_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.uniform(0.0, 2.0, size=(16, 16))
            total = m.sum()
            assert total >= 1.0
            c = rng.uniform(0.5, 10.0)
            diff = np.abs(normalize_map(c * m, EPS) - normalize_map(m, EPS)).max()
            assert diff <= EPS / total


def _scene(depths=(0.2, 0.8)):
    return SceneSpec(
        grid_height=4,
        grid_width=4,
        objects=tuple(
            SceneObject(id=i, label="", bbox=(0.0, 0.0, 1.0, 1.0), depth=d)
            for i, d in enumerate(depths)
        ),
    )


class TestPseudoSegment:
    def test_dominant_map_wins(self):
        field = from_maps([np.ones((4, 4)), np.zeros((4, 4))])
        winners = pseudo_segment(field, _scene())
        assert (winners == 0).all()

    def test_tie_goes_to_smaller_depth(self):
        field = from_maps([np.ones((4, 4)), np.ones((4, 4))])
        winners = pseudo_segment(field, _scene(depths=(0.8, 0.2)))
        assert (winners == 1).all()

    def test_tie_then_smaller_id(self):
        field = from_maps([np.ones((4, 4)), np.ones((4, 4))])
        winners = pseudo_segment(field, _scene(depths=(0.5, 0.5)))
        assert (winners == 0).all()

    def test_all_zero_pixel_is_none(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 1.0
        winners = pseudo_segment(from_maps([a, b]), _scene())
        assert winners[0, 0] == 0
        assert (winners.ravel()[1:] == NONE_ID).all()

    def test_exact_invariance_under_common_scaling(self):
        rng = np.random.default_rng(21)
        field = AttentionField(maps=rng.uniform(0, 2, (2, 4, 4)))
        scene = _scene()
        base = pseudo_segment(field, scene)
        for c in (0.5, 2.0, 4.0):
            assert np.array_equal(base, pseudo_segment(AttentionField(maps=field.maps * c), scene))


class TestThresholdMask:
    def test_delta_map(self):
        m = np.zeros((3, 3))
        m[1, 2] = 4.0
        mask = threshold_mask(m, 0.5)
        assert mask.sum() == 1.0
        assert mask[1, 2] == 1.0

    def test_uniform_map_any_threshold(self):
        for t in (0.1, 0.5, 1.0):
            assert (threshold_mask(np.full((3, 3), 2.5), t) == 1.0).all()

    def test_three_values(self):
        m = np.array([[1.0, 0.4, 0.6]])
        assert np.array_equal(threshold_mask(m, 0.5), np.array([[1.0, 0.0, 1.0]]))

    def test_all_zero_map(self):
        assert (threshold_mask(np.zeros((2, 2)), 0.5) == 0.0).all()

    def test_threshold_range_enforced(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(AttentionError):
                threshold_mask(np.ones((2, 2)), bad)


class TestCoordGrid:
    def test_pixel_centers(self):
        g = coord_grid(2, 4)
        assert np.array_equal(g.x[0], np.array([0.125, 0.375, 0.625, 0.875]))
        assert np.array_equal(g.y[:, 0], np.array([0.25, 0.75]))

    def test_broadcast_shapes(self):
        # a (1, W) row and an (H, 1) column, not two (H, W) copies
        g = coord_grid(3, 5)
        assert g.x.shape == (1, 5) and g.y.shape == (3, 1)

    def test_deterministic(self):
        a = coord_grid(7, 5)
        b = coord_grid(7, 5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestAttentionField:
    def test_from_maps_validates(self):
        with pytest.raises(AttentionError):
            from_maps([])
        with pytest.raises(AttentionError):
            from_maps([np.ones((2, 2)), np.ones((2, 3))])
        with pytest.raises(AttentionError):
            from_maps([-np.ones((2, 2))])


class TestRealDtype:
    """Both containers reject, rather than cast, values that are not real numbers."""

    @pytest.mark.parametrize(
        "make, error, name",
        [
            (AttentionField, AttentionError, "field"),
            (lambda values: LatentState("raster", values), SurrogateError, "latent"),
        ],
        ids=["AttentionField", "LatentState"],
    )
    @pytest.mark.parametrize(
        "values",
        [
            np.ones((1, 2, 2), dtype=complex),
            np.full((1, 2, 2), "a"),
            np.full((1, 2, 2), "1.5"),
            np.ones((1, 2, 2), dtype=bool),
            [[[1.0, 2.0], [3.0]]],
            np.ones((1, 2, 2), dtype=object),
        ],
        ids=["complex", "str", "numeric-str", "bool", "ragged", "object"],
    )
    def test_rejected_with_the_containers_error(self, make, error, name, values):
        with pytest.raises(error, match=rf"^{name} (must hold real numbers|is not a rectangular array)"):
            make(values)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, np.float64])
    def test_integer_and_float_kinds_pass_as_float64(self, dtype):
        maps = AttentionField(np.ones((1, 2, 2), dtype=dtype)).maps
        values = LatentState("raster", np.ones((1, 2, 2), dtype=dtype)).values
        assert maps.dtype == values.dtype == np.float64
