from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deptharb import (
    ConfigError,
    GuidanceConfig,
    OcclusionPair,
    SceneError,
    SceneObject,
    SceneSpec,
    derive_occlusion_pairs,
    init_latent,
    parse_scene,
)
from deptharb.optimizer import run_rows
from deptharb.scene import SHOWN_BYTES, _shown, box_span, parse_scene_with_config

from conftest import scene_file_text
from reference import rasterize_mask


class TestParseScene:
    def test_two_object_file(self):
        scene = parse_scene(scene_file_text())
        assert len(scene.objects) == 2
        assert scene.grid_height == scene.grid_width == 64
        assert scene.objects[0].bbox == (0.1, 0.1, 0.6, 0.6)
        assert scene.objects[0].depth == 0.2
        assert scene.objects[1].id == 1

    def test_depth_out_of_range_names_field(self):
        text = scene_file_text().replace('"depth": 0.8', '"depth": 1.5')
        with pytest.raises(SceneError, match=r"objects\[1\]\.depth"):
            parse_scene(text)

    def test_zero_width_bbox_names_field(self):
        text = scene_file_text().replace("[0.1, 0.1, 0.6, 0.6]", "[0.5, 0.2, 0.5, 0.8]")
        with pytest.raises(SceneError, match=r"objects\[0\]\.bbox"):
            parse_scene(text)

    def test_duplicate_ids(self):
        text = scene_file_text().replace('"id": 1', '"id": 0')
        with pytest.raises(SceneError, match="duplicate id"):
            parse_scene(text)

    def test_missing_grid(self):
        with pytest.raises(SceneError, match="grid"):
            parse_scene('{"objects": [{"id": 0, "bbox": [0,0,1,1], "depth": 0.5}]}')

    def test_malformed_json(self):
        with pytest.raises(SceneError, match="malformed"):
            parse_scene("{not json")

    def test_bbox_coordinate_outside_unit_square(self):
        text = scene_file_text().replace("[0.4, 0.4, 0.9, 0.9]", "[0.4, 0.4, 1.2, 0.9]")
        with pytest.raises(SceneError, match=r"objects\[1\]\.bbox"):
            parse_scene(text)

    def test_no_objects(self):
        with pytest.raises(SceneError, match="at least one"):
            parse_scene('{"grid": {"height": 8, "width": 8}, "objects": []}')

    def test_config_block_round_trip(self):
        text = scene_file_text()[:-1] + ', "config": {"eta0": 3.5, "total_steps": 7}}'
        scene, overrides = parse_scene_with_config(text)
        assert len(scene.objects) == 2
        assert overrides == {"eta0": 3.5, "total_steps": 7}

    def test_null_config_value_rejected(self):
        # an unset eta0 means the mode's own step; a scene file cannot ask for it with null
        text = scene_file_text()[:-1] + ', "config": {"eta0": null}}'
        with pytest.raises(SceneError, match=r"^config\.eta0: expected a number, got None$"):
            parse_scene(text)

    def test_unknown_config_key(self):
        text = scene_file_text()[:-1] + ', "config": {"nope": 1.0}}'
        with pytest.raises(SceneError, match="config.nope"):
            parse_scene(text)

    def test_non_integer_grid_rejected(self):
        text = scene_file_text().replace('"height": 64', '"height": 64.0')
        with pytest.raises(SceneError, match=r"^grid: expected integer sides, got 64\.0x64$"):
            parse_scene(text)

    def test_boolean_id_rejected(self):
        text = scene_file_text().replace('"id": 0', '"id": true')
        with pytest.raises(SceneError, match=r"objects\[0\]\.id"):
            parse_scene(text)

    def test_non_numeric_depth_rejected(self):
        text = scene_file_text().replace('"depth": 0.2', '"depth": "near"')
        with pytest.raises(SceneError, match=r"objects\[0\]\.depth"):
            parse_scene(text)

    def test_bbox_wrong_arity_rejected(self):
        text = scene_file_text().replace("[0.1, 0.1, 0.6, 0.6]", "[0.1, 0.1, 0.6]")
        with pytest.raises(SceneError, match=r"objects\[0\]\.bbox"):
            parse_scene(text)

    def test_fractional_total_steps_in_config_rejected(self):
        text = scene_file_text()[:-1] + ', "config": {"total_steps": 2.5}}'
        with pytest.raises(SceneError, match="config.total_steps"):
            parse_scene(text)

    def test_box_covering_no_pixel_center_rejected(self):
        # pixel centers on 16x16 sit at 0.03125, 0.09375, 0.15625, ...
        text = scene_file_text(grid=16).replace("[0.1, 0.1, 0.6, 0.6]", "[0.1, 0.1, 0.12, 0.12]")
        with pytest.raises(SceneError, match=r"objects\[0\]\.bbox: .* covers no pixel center"):
            parse_scene(text)
        # the same box holds a pixel center on a finer grid
        assert len(parse_scene(scene_file_text(grid=64).replace(
            "[0.1, 0.1, 0.6, 0.6]", "[0.1, 0.1, 0.12, 0.12]")).objects) == 2


class TestTypeInvariants:
    def test_scene_object_rejects_bad_geometry(self):
        with pytest.raises(SceneError):
            SceneObject(id=-1, label="", bbox=(0.1, 0.1, 0.5, 0.5), depth=0.5)
        with pytest.raises(SceneError):
            SceneObject(id=0, label="", bbox=(0.5, 0.1, 0.5, 0.5), depth=0.5)
        with pytest.raises(SceneError):
            SceneObject(id=0, label="", bbox=(0.1, 0.1, 0.5, 0.5), depth=1.5)

    def test_scene_spec_rejects_degenerate_grids_and_duplicates(self):
        obj = SceneObject(id=0, label="", bbox=(0.1, 0.1, 0.5, 0.5), depth=0.5)
        with pytest.raises(SceneError):
            SceneSpec(grid_height=1, grid_width=8, objects=(obj,))
        with pytest.raises(SceneError):
            SceneSpec(grid_height=8, grid_width=8, objects=())
        with pytest.raises(SceneError):
            SceneSpec(grid_height=8, grid_width=8, objects=(obj, obj))

    # each ill-typed value a library caller might pass, built from a valid object
    ILL_TYPED = {
        "float grid side": ("grid", lambda obj: SceneSpec(64.0, 64, (obj,))),
        "bool grid side": ("grid", lambda obj: SceneSpec(64, True, (obj,))),
        "objects in a list": ("objects", lambda obj: SceneSpec(8, 8, [obj])),
        "object of another type": ("objects", lambda obj: SceneSpec(8, 8, (obj, {"id": 1}))),
        "float id": ("id", lambda obj: replace(obj, id=1.5)),
        "string id": ("id", lambda obj: replace(obj, id="3")),
        "bool id": ("id", lambda obj: replace(obj, id=True)),
        "id beyond int64": ("id", lambda obj: replace(obj, id=2**63)),
        "missing label": ("label", lambda obj: replace(obj, label=None)),
        "label with a lone surrogate": ("label", lambda obj: replace(obj, label="a\ud800")),
        "three-coordinate bbox": ("bbox", lambda obj: replace(obj, bbox=(0.1, 0.1, 0.5))),
        "bbox in a list": ("bbox", lambda obj: replace(obj, bbox=[0.1, 0.1, 0.5, 0.5])),
        "string coordinate": ("bbox", lambda obj: replace(obj, bbox=(0.1, 0.1, "0.5", 0.5))),
        "bool coordinate": ("bbox", lambda obj: replace(obj, bbox=(False, 0.1, 0.5, 0.5))),
        "string depth": ("depth", lambda obj: replace(obj, depth="0.5")),
    }

    @pytest.mark.parametrize("case", list(ILL_TYPED))
    def test_ill_typed_values_are_scene_errors_naming_their_field(self, case):
        field, build = self.ILL_TYPED[case]
        obj = SceneObject(id=0, label="", bbox=(0.1, 0.1, 0.5, 0.5), depth=0.5)
        with pytest.raises(SceneError, match=f"^{field}: expected "):
            build(obj)

    def test_numpy_numbers_are_accepted(self):
        bbox = (np.float32(0.25), 0.1, 0.5, np.float64(0.5))
        obj = SceneObject(id=np.int64(3), label="", bbox=bbox, depth=np.float64(0.5))
        scene = SceneSpec(grid_height=np.int32(8), grid_width=np.uint8(8), objects=(obj,))
        assert scene.objects[0].id == 3
        # the pixel limit is checked on Python integers, so a product of numpy ones cannot wrap
        with pytest.raises(SceneError, match="^grid: 65536x65536 exceeds"):
            SceneSpec(grid_height=np.int32(65536), grid_width=np.int32(65536), objects=(obj,))


class TestCanonicalScene:
    def test_shipped_file_matches_builtin(self):
        from pathlib import Path

        from deptharb import canonical_scene

        path = Path(__file__).resolve().parent.parent / "scenes" / "canonical.json"
        scene = parse_scene(path.read_text(encoding="utf-8"))
        assert scene == canonical_scene()


class TestRasterize:
    def test_full_box_all_ones(self):
        mask = rasterize_mask((0.0, 0.0, 1.0, 1.0), 4, 4)
        assert mask.shape == (4, 4)
        assert (mask == 1.0).all()

    def test_half_box_columns(self):
        # centers 0.125 and 0.375 fall inside [0, 0.5); 0.625 and 0.875 outside
        mask = rasterize_mask((0.0, 0.0, 0.5, 1.0), 4, 4)
        expected_cols = np.array([1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(mask, np.tile(expected_cols, (4, 1)))

    def test_sub_pixel_box_between_centers_is_empty(self):
        # pixel pitch 0.25, centers at 0.125/0.375/...; box avoids them all
        mask = rasterize_mask((0.4, 0.4, 0.45, 0.45), 4, 4)
        assert mask.sum() == 0.0

    def test_center_inclusion_enumeration(self):
        bbox = (0.2, 0.3, 0.7, 0.9)
        h = w = 8
        mask = rasterize_mask(bbox, h, w)
        for row in range(h):
            for col in range(w):
                cx = (col + 0.5) / w
                cy = (row + 0.5) / h
                inside = bbox[0] <= cx < bbox[2] and bbox[1] <= cy < bbox[3]
                assert mask[row, col] == (1.0 if inside else 0.0)

    def test_monotone_in_box_growth(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x0, y0 = rng.uniform(0.0, 0.5, 2)
            x1, y1 = rng.uniform(0.55, 1.0, 2)
            grow = min(0.05, x0, y0)
            inner = rasterize_mask((x0, y0, x1, y1), 32, 32)
            outer = rasterize_mask((x0 - grow, y0 - grow, x1, y1), 32, 32)
            assert (outer >= inner).all()

    def test_area_convergence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x0, y0 = rng.uniform(0.0, 0.4, 2)
            x1, y1 = rng.uniform(0.6, 1.0, 2)
            area = (x1 - x0) * (y1 - y0)
            for n in (16, 64, 256):
                mask = rasterize_mask((x0, y0, x1, y1), n, n)
                err = abs(mask.sum() / (n * n) - area)
                assert err <= 2.0 * (1.0 / n + 1.0 / n)


@st.composite
def box_edges(draw):
    """A grid and a normalized box whose edges sit anywhere, on pixel centres,
    on pixel borders, one ulp off a centre, or on the canvas edge."""
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))

    def edge(n):
        i = draw(st.integers(0, n))
        centre = min((i + 0.5) / n, 1.0)
        below, above = float(np.nextafter(centre, 0.0)), float(np.nextafter(centre, 1.0))
        return draw(st.sampled_from([0.0, 1.0, i / n, centre, below, above]) | st.floats(0.0, 1.0))

    x0, x1 = sorted((edge(width), edge(width)))
    y0, y1 = sorted((edge(height), edge(height)))
    return (x0, y0, x1, y1), height, width


class TestBoxSpan:
    @settings(max_examples=300)
    @given(box_edges())
    def test_span_is_the_literal_centre_comparison(self, case):
        (x0, y0, x1, y1), height, width = case
        r0, r1, c0, c1 = box_span((x0, y0, x1, y1), height, width)
        cx = (np.arange(width, dtype=np.float64) + 0.5) / width
        cy = (np.arange(height, dtype=np.float64) + 0.5) / height
        assert np.array_equal(np.flatnonzero((cy >= y0) & (cy < y1)), np.arange(r0, r1))
        assert np.array_equal(np.flatnonzero((cx >= x0) & (cx < x1)), np.arange(c0, c1))
        mask = rasterize_mask((x0, y0, x1, y1), height, width)
        assert mask.sum() == max(r1 - r0, 0) * max(c1 - c0, 0) == mask[r0:r1, c0:c1].sum()


class TestOcclusionPairs:
    def test_overlap_with_depth_order(self, two_object_scene):
        pairs = derive_occlusion_pairs(two_object_scene)
        assert pairs == [OcclusionPair(foreground_id=0, background_id=1)]

    def test_disjoint_boxes(self):
        scene = SceneSpec(
            grid_height=8,
            grid_width=8,
            objects=(
                SceneObject(id=0, label="", bbox=(0.0, 0.0, 0.4, 0.4), depth=0.1),
                SceneObject(id=1, label="", bbox=(0.6, 0.6, 1.0, 1.0), depth=0.9),
            ),
        )
        assert derive_occlusion_pairs(scene) == []

    def test_touching_edges_do_not_pair(self):
        scene = SceneSpec(
            grid_height=8,
            grid_width=8,
            objects=(
                SceneObject(id=0, label="", bbox=(0.0, 0.0, 0.5, 1.0), depth=0.1),
                SceneObject(id=1, label="", bbox=(0.5, 0.0, 1.0, 1.0), depth=0.9),
            ),
        )
        assert derive_occlusion_pairs(scene) == []

    def test_equal_depths_refuse_to_pair(self):
        scene = SceneSpec(
            grid_height=8,
            grid_width=8,
            objects=(
                SceneObject(id=0, label="", bbox=(0.1, 0.1, 0.6, 0.6), depth=0.5),
                SceneObject(id=1, label="", bbox=(0.4, 0.4, 0.9, 0.9), depth=0.5),
            ),
        )
        assert derive_occlusion_pairs(scene) == []

    def test_order_independent_of_object_listing(self):
        objs = (
            SceneObject(id=2, label="", bbox=(0.1, 0.1, 0.7, 0.7), depth=0.3),
            SceneObject(id=0, label="", bbox=(0.3, 0.3, 0.9, 0.9), depth=0.6),
            SceneObject(id=1, label="", bbox=(0.2, 0.2, 0.8, 0.8), depth=0.1),
        )
        forward = SceneSpec(grid_height=8, grid_width=8, objects=objs)
        backward = SceneSpec(grid_height=8, grid_width=8, objects=objs[::-1])
        pairs = derive_occlusion_pairs(forward)
        assert pairs == derive_occlusion_pairs(backward)
        assert pairs == sorted(pairs)
        # the d=0.1 object leads every pair it joins
        assert OcclusionPair(foreground_id=1, background_id=0) in pairs
        assert OcclusionPair(foreground_id=1, background_id=2) in pairs
        assert OcclusionPair(foreground_id=2, background_id=0) in pairs


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=8,
)


@st.composite
def scene_like_json(draw):
    """JSON text shaped like a scene file, with any value in any slot."""

    def slot(valid):
        return draw(valid | JSON_VALUES)

    doc = {
        "grid": slot(st.fixed_dictionaries({"height": st.integers(-1, 40), "width": st.integers(-1, 40)})),
        "objects": [
            {
                "id": slot(st.integers(-1, 5)),
                "label": slot(st.text(max_size=4)),
                "bbox": slot(st.lists(st.floats(-0.1, 1.1), min_size=3, max_size=5)),
                "depth": slot(st.floats(-0.1, 1.1)),
            }
            for _ in range(draw(st.integers(0, 3)))
        ],
    }
    if draw(st.booleans()):
        doc["config"] = slot(st.dictionaries(st.sampled_from(["eta0", "total_steps", "nope"]), JSON_VALUES))
    return json.dumps(doc)


@st.composite
def well_typed_scene(draw):
    """Grid and objects of a scene file, every value of the right JSON type, in range or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pick(good, bad):
        # about one value in twelve breaks its rule
        return bad[rng.integers(len(bad))] if rng.random() < 1 / 12 else good

    def unit():
        return pick(float(rng.choice([0.0, 1.0, rng.uniform()], p=[0.1, 0.1, 0.8])), [-0.1, 1.1, math.nan])

    def bbox():
        xs, ys = sorted([unit(), unit()]), sorted([unit(), unit()])
        if rng.random() < 1 / 12:
            xs.reverse()
        return [xs[0], ys[0], xs[1], ys[1]]

    grid = {side: pick(int(rng.integers(2, 13)), [-1, 0, 1, 10**7]) for side in ("height", "width")}
    objects = [
        {"id": pick(int(rng.integers(0, 4)), [-1]), "label": "", "bbox": bbox(), "depth": unit()}
        for _ in range(draw(st.integers(1, 3)))
    ]
    return grid, objects


class TestValueRulesLiveInTheTypes:
    @settings(max_examples=300)
    @given(well_typed_scene())
    def test_parser_rejects_exactly_what_the_types_reject(self, case):
        grid, objects = case
        expected = None
        try:
            built = []
            for i, raw in enumerate(objects):
                try:
                    built.append(SceneObject(raw["id"], raw["label"], tuple(raw["bbox"]), raw["depth"]))
                except SceneError as exc:
                    # the parser names the object, and adds nothing else
                    raise SceneError(f"objects[{i}].{exc}") from None
            SceneSpec(grid["height"], grid["width"], tuple(built))
        except SceneError as exc:
            expected = str(exc)
        try:
            parse_scene(json.dumps({"grid": grid, "objects": objects}))
            got = None
        except SceneError as exc:
            got = str(exc)
        assert got == expected
        if got is not None:
            assert re.match(r"(objects\[\d+\]\.(id|bbox|depth)|grid): ", got), got


class TestParseFuzz:
    # each pinned example raised something other than SceneError before
    @settings(max_examples=150)
    @given(st.text() | JSON_VALUES.map(json.dumps) | scene_like_json())
    @example("[" * 100_000)  # RecursionError from the JSON decoder
    @example('{"grid": %s}' % ("1" * 5000))  # ValueError: too many integer digits
    @example(scene_file_text().replace("0.6, 0.6]", "0.6, 1%s]" % ("0" * 400)))  # OverflowError in float()
    @example(scene_file_text()[:-1] + ', "config": {"eta0": 1%s}}' % ("0" * 400))  # same, config block
    @example(scene_file_text().replace('"height": 64', '"height": %d' % 10**30))  # numpy size error
    def test_arbitrary_text_raises_only_scene_error(self, text):
        try:
            parse_scene(text)
        except SceneError:
            pass

    def test_grid_pixel_limit(self):
        with pytest.raises(SceneError, match="exceeds"):
            SceneSpec(
                grid_height=2**20,
                grid_width=2**5,
                objects=(SceneObject(id=0, label="", bbox=(0.0, 0.0, 1.0, 1.0), depth=0.5),),
            )


# each place a scene file can hold an integer, written into its JSON document
HUGE_FIELDS = {
    "bbox coordinate": lambda doc, value: doc["objects"][1]["bbox"].__setitem__(2, value),
    "bbox beside a string": lambda doc, value: doc["objects"][1].__setitem__("bbox", [value, "x", 0.5, 0.5]),
    "depth": lambda doc, value: doc["objects"][1].__setitem__("depth", value),
    "id": lambda doc, value: doc["objects"][1].__setitem__("id", value),
    "grid height": lambda doc, value: doc["grid"].__setitem__("height", value),
    "grid width": lambda doc, value: doc["grid"].__setitem__("width", value),
    "label": lambda doc, value: doc["objects"][0].__setitem__("label", value),
    "config total_steps": lambda doc, value: doc.setdefault("config", {}).__setitem__("total_steps", value),
}


@st.composite
def huge_integers(draw):
    """An integer of 21 to 4300 digits (the most a JSON decoder reads), either sign, and its digit count."""
    digits = draw(st.integers(21, 4300))
    lead = draw(st.integers(10**19, 10**20 - 1))
    value = lead * 10 ** (digits - 20) + draw(st.integers(0, 10 ** (digits - 20) - 1))
    return (-value if draw(st.booleans()) else value), digits


class TestBoundedMessages:
    """A rejected integer of any size is echoed by its leading digits and its digit count."""

    @settings(max_examples=100)
    @given(st.sampled_from(list(HUGE_FIELDS)), huge_integers())
    def test_a_huge_integer_gives_a_short_message(self, name, huge):
        value, digits = huge
        doc = json.loads(scene_file_text())
        HUGE_FIELDS[name](doc, value)
        with pytest.raises((SceneError, ConfigError)) as info:
            # a config's total_steps meets its domain in the config, and the pass limit in the run
            scene, overrides = parse_scene_with_config(json.dumps(doc))
            run_rows(scene, [GuidanceConfig().updated(**overrides)], init_latent(scene, "raster", 0))
        message = str(info.value)
        assert len(message) <= 160, message
        assert f"{str(abs(value))[:20]}... ({digits} digits)" in message

    def test_a_config_real_beyond_the_float_range_is_refused_by_the_config(self):
        # the file's config block passes it on unconverted: no float holds it
        _, overrides = parse_scene_with_config(scene_file_text()[:-1] + ', "config": {"eta0": 1%s}}' % ("0" * 400))
        message = "eta0 must be within the float range, got 10000000000000000000... (401 digits)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            GuidanceConfig().updated(**overrides)

    @settings(max_examples=200)
    @given(st.text(st.characters() | st.characters(categories=["Cs"]))
           | st.builds(lambda char, count: char * count, st.characters(), st.integers(0, 100_000)))
    @example("\U000e0000" * 20)
    def test_a_string_is_shown_whole_or_by_its_leading_characters_and_length(self, text):
        shown = _shown(text)
        if len(repr(text).encode()) <= SHOWN_BYTES:
            assert shown == repr(text)
        else:
            head, _, count = shown.rpartition("... (")
            assert count == f"{len(text)} characters)"
            assert len(head.encode()) <= SHOWN_BYTES and text.startswith(ast.literal_eval(head))
