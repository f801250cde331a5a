from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deptharb import (
    AttentionField,
    GuidanceConfig,
    OcclusionPair,
    SceneError,
    SceneObject,
    SceneSpec,
    derive_occlusion_pairs,
    staged_loss,
)
from deptharb.losses import _plan
from deptharb.metrics import FocrResult, LayoutMiou, MetricReport, _focr_rows, _miou_rows, _score_rows

from conftest import dyadic_field
from reference import from_maps, kernel_value_and_grad, mask_iou, pseudo_segment, rasterize_mask, threshold_mask


def box_indicator_field(scene: SceneSpec, amplitudes=None) -> AttentionField:
    maps = []
    for k, obj in enumerate(scene.objects):
        amp = 1.0 if amplitudes is None else amplitudes[k]
        maps.append(amp * rasterize_mask(obj.bbox, scene.grid_height, scene.grid_width))
    return from_maps(maps)


class TestMaskIou:
    def test_identical(self):
        m = rasterize_mask((0.2, 0.2, 0.8, 0.8), 16, 16)
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = rasterize_mask((0.0, 0.0, 0.4, 0.4), 16, 16)
        b = rasterize_mask((0.6, 0.6, 1.0, 1.0), 16, 16)
        assert mask_iou(a, b) == 0.0

    def test_half_overlap_counted(self):
        # left half of a full-width box: intersection/union counted by hand
        box = rasterize_mask((0.0, 0.25, 1.0, 0.75), 16, 16)
        left = rasterize_mask((0.0, 0.25, 0.5, 0.75), 16, 16)
        inter = int(np.sum((box > 0) & (left > 0)))
        union = int(np.sum((box > 0) | (left > 0)))
        assert mask_iou(left, box) == inter / union == 0.5

    def test_two_empty_masks_defined_as_zero(self):
        assert mask_iou(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0


class TestLayoutMiou:
    def test_exact_box_maps_score_one(self, two_object_scene):
        field = box_indicator_field(two_object_scene)
        result = _miou_rows(field.maps[None], two_object_scene, {0}, 0.5)[0]
        assert result.per_object == {0: 1.0, 1: 1.0}
        assert result.all == 1.0
        assert result.fg == 1.0 and result.bg == 1.0

    def test_disjoint_mass_scores_zero(self):
        scene = SceneSpec(
            grid_height=16,
            grid_width=16,
            objects=(SceneObject(id=0, label="", bbox=(0.5, 0.5, 1.0, 1.0), depth=0.5),),
        )
        values = rasterize_mask((0.0, 0.0, 0.4, 0.4), 16, 16)
        result = _miou_rows(from_maps([values]).maps[None], scene, set(), 0.5)[0]
        assert result.per_object[0] == 0.0

    def test_half_coverage(self):
        scene = SceneSpec(
            grid_height=16,
            grid_width=16,
            objects=(SceneObject(id=0, label="", bbox=(0.0, 0.25, 1.0, 0.75), depth=0.5),),
        )
        # attention covers only the left half of the box
        values = rasterize_mask((0.0, 0.25, 0.5, 0.75), 16, 16)
        result = _miou_rows(from_maps([values]).maps[None], scene, set(), 0.5)[0]
        box = rasterize_mask(scene.objects[0].bbox, 16, 16)
        expected = np.sum((values > 0) & (box > 0)) / np.sum((values > 0) | (box > 0))
        assert result.per_object[0] == expected == 0.5

    def test_fg_bg_split_uses_pair_roles(self):
        scene = SceneSpec(
            grid_height=16,
            grid_width=16,
            objects=(
                SceneObject(id=0, label="", bbox=(0.1, 0.1, 0.5, 0.5), depth=0.1),
                SceneObject(id=1, label="", bbox=(0.3, 0.3, 0.7, 0.7), depth=0.5),
                SceneObject(id=2, label="", bbox=(0.55, 0.55, 0.95, 0.95), depth=0.9),
            ),
        )
        pairs = derive_occlusion_pairs(scene)
        # object 1 is background to 0 and foreground to 2: foreground wins
        assert OcclusionPair(0, 1) in pairs and OcclusionPair(1, 2) in pairs
        field = box_indicator_field(scene)
        result = _miou_rows(field.maps[None], scene, {p.foreground_id for p in pairs}, 0.5)[0]
        assert result.fg == 1.0  # objects 0 and 1
        assert result.bg == 1.0  # object 2
        assert result.all == 1.0

    def test_no_pairs_means_no_fg_aggregate(self):
        scene = SceneSpec(
            grid_height=16,
            grid_width=16,
            objects=(SceneObject(id=0, label="", bbox=(0.1, 0.1, 0.9, 0.9), depth=0.5),),
        )
        result = _miou_rows(box_indicator_field(scene).maps[None], scene, set(), 0.5)[0]
        assert result.fg is None
        assert result.bg == result.all

    def test_tiny_threshold_predicts_everything(self):
        scene = SceneSpec(
            grid_height=16,
            grid_width=16,
            objects=(SceneObject(id=0, label="", bbox=(0.25, 0.25, 0.75, 0.75), depth=0.5),),
        )
        rng = np.random.default_rng(13)
        values = rng.uniform(0.5, 2.0, size=(16, 16))  # strictly positive
        result = _miou_rows(from_maps([values]).maps[None], scene, set(), 1e-9)[0]
        box = rasterize_mask(scene.objects[0].bbox, 16, 16)
        assert result.per_object[0] == box.sum() / (16 * 16)

    def test_aggregates_are_means(self, two_object_scene):
        rng = np.random.default_rng(15)
        field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
        result = _miou_rows(field.maps[None], two_object_scene, {0}, 0.5)[0]
        values = list(result.per_object.values())
        assert result.all == pytest.approx(np.mean(values), abs=1e-15)
        assert 0.0 <= result.all <= 1.0


class TestFocr:
    def test_foreground_dominant_everywhere(self, two_object_scene):
        field = box_indicator_field(two_object_scene, amplitudes=[2.0, 1.0])
        result = _focr_rows(field.maps[None], two_object_scene, derive_occlusion_pairs(two_object_scene))[0]
        assert result.per_pair[0] == 1.0
        assert result.mean == 1.0

    def test_background_dominant_everywhere(self, two_object_scene):
        field = box_indicator_field(two_object_scene, amplitudes=[1.0, 3.0])
        result = _focr_rows(field.maps[None], two_object_scene, derive_occlusion_pairs(two_object_scene))[0]
        assert result.per_pair[0] == 0.0
        assert result.mean == 0.0

    def test_exact_tie_goes_to_closer_object(self, two_object_scene):
        # equal attention in the intersection: depth 0.2 object wins every pixel
        field = box_indicator_field(two_object_scene, amplitudes=[1.0, 1.0])
        result = _focr_rows(field.maps[None], two_object_scene, derive_occlusion_pairs(two_object_scene))[0]
        assert result.per_pair[0] == 1.0

    @pytest.mark.parametrize("pair", [OcclusionPair(0, 5), OcclusionPair(5, 1)])
    def test_unknown_pair_id_is_named_as_the_loss_names_it(self, two_object_scene, pair):
        field = box_indicator_field(two_object_scene)
        with pytest.raises(SceneError, match=r"^unknown object id 5$"):
            _focr_rows(field.maps[None], two_object_scene, [pair])
        with pytest.raises(SceneError, match=r"^unknown object id 5$"):
            staged_loss(field, two_object_scene, [pair], GuidanceConfig(), 1)

    def test_empty_pairs_reports_absent_mean(self, two_object_scene):
        field = box_indicator_field(two_object_scene)
        result = _focr_rows(field.maps[None], two_object_scene, [])[0]
        assert result.per_pair == ()
        assert result.mean is None

    def test_values_in_unit_interval(self, two_object_scene):
        rng = np.random.default_rng(29)
        pairs = derive_occlusion_pairs(two_object_scene)
        for _ in range(10):
            field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
            result = _focr_rows(field.maps[None], two_object_scene, pairs)[0]
            assert 0.0 <= result.per_pair[0] <= 1.0

    def test_monotone_in_foreground_scale(self, two_object_scene):
        rng = np.random.default_rng(33)
        maps = rng.uniform(0, 2, (2, 16, 16))
        pairs = derive_occlusion_pairs(two_object_scene)
        values = []
        for c in (1.0, 2.0, 4.0, 8.0):
            scaled = maps.copy()
            scaled[0] *= c
            values.append(_focr_rows(scaled[None], two_object_scene, pairs)[0].per_pair[0])
        assert all(b >= a for a, b in zip(values, values[1:]))


    def test_one_winners_pass_over_the_pairs_bounding_rectangle(self, monkeypatch):
        # three boxes in a row: pairs (0, 1) and (1, 2) overlap in rows 4-5, at
        # column 5 and at column 10, so the winners cover rows 4-5, columns 5-10
        import deptharb.metrics

        boxes = [(0.1, 0.2, 0.35, 0.4), (0.3, 0.25, 0.7, 0.4), (0.6, 0.1, 0.9, 0.35)]
        scene = SceneSpec(grid_height=16, grid_width=16, objects=tuple(
            SceneObject(id=i, label="", bbox=bbox, depth=0.2 * (i + 1)) for i, bbox in enumerate(boxes)
        ))
        pairs = derive_occlusion_pairs(scene)
        assert len(pairs) == 2
        shapes = []
        real = deptharb.metrics._winners
        monkeypatch.setattr(deptharb.metrics, "_winners", lambda maps, sc: shapes.append(maps.shape) or real(maps, sc))
        field = AttentionField(maps=np.random.default_rng(3).uniform(0, 2, (3, 16, 16)))
        result = _focr_rows(field.maps[None], scene, pairs)[0]
        assert shapes == [(3, 2, 6)]
        assert result == full_mask_report(field, scene, GuidanceConfig(), 1, 0.5).focr


class TestMetricReport:
    def test_report_dict_invariants(self, two_object_scene):
        rng = np.random.default_rng(85)
        field = AttentionField(maps=rng.uniform(0, 2, (2, 16, 16)))
        [report] = _score_rows(field.maps[None], two_object_scene, [GuidanceConfig()], [1], 0.5)
        doc = report.to_json_dict()
        assert set(doc.keys()) == {"losses", "per_object", "per_pair", "metrics"}
        ious = [obj["iou"] for obj in doc["per_object"]]
        assert all(0.0 <= v <= 1.0 for v in ious)
        assert doc["metrics"]["miou_all"] == pytest.approx(np.mean(ious), abs=1e-15)
        focrs = [p["focr"] for p in doc["per_pair"] if p["focr"] is not None]
        assert all(0.0 <= v <= 1.0 for v in focrs)
        if focrs:
            assert doc["metrics"]["focr_mean"] == pytest.approx(np.mean(focrs), abs=1e-15)
        assert doc["metrics"]["bor"] is None and doc["metrics"]["fbs"] is None


class TestScalingInvariance:
    def test_metrics_unchanged_under_common_scaling(self, two_object_scene):
        field = dyadic_field((2, 16, 16), seed=77)
        pairs = derive_occlusion_pairs(two_object_scene)
        base_focr = _focr_rows(field.maps[None], two_object_scene, pairs)
        base_miou = _miou_rows(field.maps[None], two_object_scene, {0}, 0.5)
        for c in (2.0, 3.0):
            scaled = field.maps[None] * c
            assert _focr_rows(scaled, two_object_scene, pairs) == base_focr
            assert _miou_rows(scaled, two_object_scene, {0}, 0.5) == base_miou


@st.composite
def scored_cases(draw):
    """Scenes with equal depths, containment and sub-pixel boxes, and fields
    with exact ties, all-zero maps and few distinct levels."""
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    count = draw(st.integers(1, 5))
    objects = []
    for i in range(count):
        kind = draw(st.sampled_from(["aligned", "ulp", "contained", "float"]))
        r0, c0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        r1, c1 = draw(st.integers(r0 + 1, height)), draw(st.integers(c0 + 1, width))
        bbox = (c0 / width, r0 / height, c1 / width, r1 / height)
        if kind == "ulp":
            # one ulp wide, starting on a pixel centre: exactly one pixel
            x0, y0 = (c0 + 0.5) / width, (r0 + 0.5) / height
            bbox = (x0, y0, float(np.nextafter(x0, 1.0)), float(np.nextafter(y0, 1.0)))
        elif kind == "contained" and objects:
            outer = draw(st.sampled_from(objects)).bbox
            a, b = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
            c, e = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
            inner = (
                outer[0] + a * (outer[2] - outer[0]), outer[1] + c * (outer[3] - outer[1]),
                outer[0] + b * (outer[2] - outer[0]), outer[1] + e * (outer[3] - outer[1]),
            )
            if inner[0] < inner[2] and inner[1] < inner[3]:
                bbox = inner
        elif kind == "float":
            x0, x1 = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
            y0, y1 = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
            if x0 < x1 and y0 < y1:
                bbox = (x0, y0, x1, y1)
        if not rasterize_mask(bbox, height, width).any():
            bbox = (c0 / width, r0 / height, c1 / width, r1 / height)
        depth = draw(st.sampled_from([0.0, 0.5, 1.0]))
        objects.append(SceneObject(id=draw(st.integers(0, 9)) * 10 + i, label="", bbox=bbox, depth=depth))
    scene = SceneSpec(grid_height=height, grid_width=width, objects=tuple(objects))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 0]))
    shape = (count, height, width)
    maps = (rng.integers(0, levels, shape) if levels else rng.uniform(0, 2, shape)).astype(np.float64)
    for k in range(count):
        role = draw(st.sampled_from(["own", "zero", "copy"]))
        if role == "zero":
            maps[k] = 0.0
        elif role == "copy":
            maps[k] = maps[draw(st.integers(0, count - 1))]
    return scene, AttentionField(maps=maps), draw(st.sampled_from([1e-6, 0.5, 1.0]))


def full_mask_report(field, scene, cfg, stage, rel_threshold) -> MetricReport:
    """The literal full-mask definition of the report: thresholded maps against
    rasterized boxes, winners over the whole field."""
    height, width = scene.grid_height, scene.grid_width
    pairs = derive_occlusion_pairs(scene)
    fg_ids = {p.foreground_id for p in pairs}
    ious = {
        obj.id: mask_iou(threshold_mask(field[k], rel_threshold), rasterize_mask(obj.bbox, height, width))
        for k, obj in enumerate(scene.objects)
    }
    fg_vals = [v for i, v in ious.items() if i in fg_ids]
    bg_vals = [v for i, v in ious.items() if i not in fg_ids]
    miou = LayoutMiou(
        per_object=ious,
        fg=float(np.mean(fg_vals)) if fg_vals else None,
        bg=float(np.mean(bg_vals)) if bg_vals else None,
        all=float(np.mean(list(ious.values()))),
    )
    winners = pseudo_segment(field, scene)
    per_pair = []
    for pair in pairs:
        m_fg = rasterize_mask(scene.objects[scene.index_of(pair.foreground_id)].bbox, height, width)
        m_bg = rasterize_mask(scene.objects[scene.index_of(pair.background_id)].bbox, height, width)
        inter = (m_fg > 0) & (m_bg > 0)
        n = int(inter.sum())
        value = int(np.sum(winners[inter] == pair.foreground_id)) / n if n else None
        per_pair.append(value)
    values = [v for v in per_pair if v is not None]
    result = FocrResult(per_pair=tuple(per_pair), mean=float(np.mean(values)) if values else None)
    breakdown = kernel_value_and_grad(field.maps[None], _plan(scene, pairs, [cfg]), [stage])[0].take(0)
    return MetricReport(scene, breakdown, miou, result)


class TestBoxRectangleScoring:
    @settings(max_examples=200)
    @given(scored_cases(), st.sampled_from([1, 2]))
    def test_report_equals_full_mask_reference(self, case, stage):
        scene, field, rel = case
        expected = json.dumps(full_mask_report(field, scene, GuidanceConfig(), stage, rel).to_json_dict())
        [report] = _score_rows(field.maps[None], scene, [GuidanceConfig()], [stage], rel)
        assert json.dumps(report.to_json_dict()) == expected

    def test_report_assembles_no_gradient(self, two_object_scene, monkeypatch):
        import deptharb.losses

        # the kernel's gradient half: the factors, and their product into dL/dA
        calls = []
        for name in ("_step_factors", "_grad_product"):
            real = getattr(deptharb.losses, name)
            monkeypatch.setattr(deptharb.losses, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        field = AttentionField(maps=np.random.default_rng(7).uniform(0, 2, (2, 16, 16)))
        for stage in (1, 2):
            _score_rows(field.maps[None], two_object_scene, [GuidanceConfig()], [stage], 0.5)
        assert calls == []


# each variant derives a row's field from the drawn one
ROW_VARIANTS = {
    "same": lambda maps, k: maps,
    "zero map": lambda maps, k: np.where(np.arange(len(maps))[:, None, None] == k % len(maps), 0.0, maps),
    "all zero": lambda maps, k: np.zeros_like(maps),
    "scaled": lambda maps, k: 3.0 * maps,
    "rolled": lambda maps, k: np.roll(maps, k + 1, axis=(1, 2)),
}


class TestScoreRows:
    """Scoring on the row axis: each row of a stack is scored as its field alone."""

    @settings(max_examples=150)
    @given(
        scored_cases(),
        st.lists(st.tuples(st.sampled_from(sorted(ROW_VARIANTS)), st.sampled_from([1, 2]),
                           st.sampled_from([0.0, 0.5, 2.0])), min_size=1, max_size=4),
    )
    def test_each_row_is_the_full_mask_report_of_its_field(self, case, rows):
        scene, field, rel = case
        stack = np.array([ROW_VARIANTS[variant](field.maps, k) for k, (variant, _, _) in enumerate(rows)])
        cfgs = [GuidanceConfig(lambda_ortho=ortho) for _, _, ortho in rows]
        stages = [stage for _, stage, _ in rows]
        reports = _score_rows(stack, scene, cfgs, stages, rel)
        for maps, cfg, stage, report in zip(stack, cfgs, stages, reports, strict=True):
            args = (AttentionField(maps=maps), scene, cfg, stage, rel)
            expected = json.dumps(full_mask_report(*args).to_json_dict())
            assert json.dumps(report.to_json_dict()) == expected
            [alone] = _score_rows(maps[None], scene, [cfg], [stage], rel)
            assert json.dumps(alone.to_json_dict()) == expected

    def test_an_all_zero_map_predicts_nothing_and_wins_nothing(self, two_object_scene):
        # row 0 random; row 1's foreground map is all zero; row 2 is all zero
        maps = np.random.default_rng(11).uniform(0.5, 2.0, (2, 16, 16))
        stack = np.array([maps, [np.zeros((16, 16)), maps[1]], np.zeros((2, 16, 16))])
        cfg = GuidanceConfig()
        reports = _score_rows(stack, two_object_scene, [cfg] * 3, [1] * 3, 0.5)
        # an empty mask: no intersection, so IoU 0
        assert reports[1].miou.per_object[0] == 0.0
        assert reports[2].miou.per_object == {0: 0.0, 1: 0.0}
        # the background wins every overlap pixel of row 1; row 2's are NONE_ID
        assert [r.focr.per_pair for r in reports[1:]] == [(0.0,), (0.0,)]
        for row, report in zip(stack, reports):
            args = (AttentionField(maps=row), two_object_scene, cfg, 1, 0.5)
            assert json.dumps(report.to_json_dict()) == json.dumps(full_mask_report(*args).to_json_dict())
