"""Scene specifications: layout parsing, box rasterization, occlusion pairing.

A scene is a pixel grid plus an ordered list of objects, each carrying a
normalized bounding box and a relative depth in [0, 1] (smaller depth means
closer to the camera).  Everything downstream consumes the binary box masks
produced here and the foreground/background pairs derived from depth order
and box overlap.  The guidance config lives here too, because a scene file's
"config" block may override any of its fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid guidance configuration values."""


def _knob(default, *, objective: bool = False, sweep: bool = False):
    """A config field; `objective` fields define the loss, `sweep` ones can be swept."""
    return field(default=default, metadata={"objective": objective, "sweep": sweep})


@dataclass(frozen=True)
class GuidanceConfig:
    """Every tunable of the guidance engine.

    The default step size is calibrated for the raster surrogate, whose
    gradient entries scale like 1/(total attention mass); see the README for
    blob-mode guidance.
    """

    lambda0: float = _knob(0.5, objective=True, sweep=True)
    alpha: float = _knob(1.0, objective=True, sweep=True)
    tau: float = _knob(1.0, objective=True, sweep=True)
    lambda_ortho: float = _knob(0.5, objective=True, sweep=True)
    lambda_compact: float = _knob(0.2, objective=True, sweep=True)
    epsilon: float = _knob(1e-8, objective=True)
    eta0: float = _knob(800.0, sweep=True)
    eta_decay: float = _knob(1.0)
    stage1_fraction: float = _knob(0.5, sweep=True)
    total_steps: int = _knob(200)

    def __post_init__(self) -> None:
        for knob in fields(self):
            value = getattr(self, knob.name)
            # a non-finite weight leaves the objective undefined (nan or inf
            # at step 0), which is an input error, not a numerical abort
            if knob.metadata["objective"] and not math.isfinite(value):
                raise ConfigError(f"{knob.name} must be finite, got {value}")
        if not self.lambda0 > 0:
            raise ConfigError(f"lambda0 must be > 0, got {self.lambda0}")
        if not self.tau > 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 <= self.stage1_fraction <= 1.0:
            raise ConfigError(
                f"stage1_fraction must be within [0, 1], got {self.stage1_fraction}"
            )
        if not self.eta0 >= 0:
            raise ConfigError(f"eta0 must be >= 0, got {self.eta0}")
        if not 0.0 < self.eta_decay <= 1.0:
            raise ConfigError(f"eta_decay must be in (0, 1], got {self.eta_decay}")
        if not self.total_steps >= 0:
            raise ConfigError(f"total_steps must be >= 0, got {self.total_steps}")

    @classmethod
    def preset(cls, name: str) -> "GuidanceConfig":
        """Named weight presets: "main" (0.5/0.2) or "appendix" (0.2/0.5)."""
        if name == "main":
            return cls()
        if name == "appendix":
            return cls(lambda_ortho=0.2, lambda_compact=0.5)
        raise ConfigError(f"unknown preset {name!r} (expected 'main' or 'appendix')")

    def updated(self, **overrides) -> "GuidanceConfig":
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        return asdict(self)


GUIDANCE_CONFIG_KEYS = tuple(f.name for f in fields(GuidanceConfig))
MAX_GRID_PIXELS = 1 << 24  # 4096x4096; one float64 map is then 128 MiB


class SceneError(ValueError):
    """Raised for malformed or invalid scene input."""


@dataclass(frozen=True)
class SceneObject:
    """One layout object: id, text label, normalized bbox, relative depth."""

    id: int
    label: str
    bbox: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)
    depth: float

    def __post_init__(self) -> None:
        # every value rule of an object lives here; a message opens with its field
        if self.id < 0:
            raise SceneError(f"id: expected a non-negative integer, got {self.id}")
        x0, y0, x1, y1 = self.bbox
        for coord in self.bbox:
            if not 0.0 <= coord <= 1.0:
                raise SceneError(f"bbox: coordinate {coord} outside [0, 1]")
        if not x0 < x1:
            raise SceneError(f"bbox: x_min {x0} must be < x_max {x1}")
        if not y0 < y1:
            raise SceneError(f"bbox: y_min {y0} must be < y_max {y1}")
        if not 0.0 <= self.depth <= 1.0:
            raise SceneError(f"depth: {self.depth} outside [0, 1]")


@dataclass(frozen=True)
class SceneSpec:
    """Validated scene: grid dimensions plus objects in file order."""

    grid_height: int
    grid_width: int
    objects: tuple[SceneObject, ...]

    def __post_init__(self) -> None:
        if self.grid_height < 2 or self.grid_width < 2:
            raise SceneError(
                f"grid: must be at least 2x2, got {self.grid_height}x{self.grid_width}"
            )
        if self.grid_height * self.grid_width > MAX_GRID_PIXELS:
            raise SceneError(
                f"grid: {self.grid_height}x{self.grid_width} exceeds {MAX_GRID_PIXELS} pixels"
            )
        if not self.objects:
            raise SceneError("objects: need at least one object")
        seen: set[int] = set()
        for k, obj in enumerate(self.objects):
            if obj.id in seen:
                raise SceneError(f"objects[{k}].id: duplicate id {obj.id}")
            seen.add(obj.id)
            # such a box can never hold attention: f would stay 0 forever
            r0, r1, c0, c1 = box_span(obj.bbox, self.grid_height, self.grid_width)
            if not (r1 > r0 and c1 > c0):
                raise SceneError(
                    f"objects[{k}].bbox: {obj.bbox} covers no pixel center of the "
                    f"{self.grid_height}x{self.grid_width} grid"
                )

    def index_of(self, object_id: int) -> int:
        for k, obj in enumerate(self.objects):
            if obj.id == object_id:
                return k
        raise SceneError(f"unknown object id {object_id}")

    def depths(self) -> np.ndarray:
        return np.array([obj.depth for obj in self.objects], dtype=np.float64)


@dataclass(frozen=True, order=True)
class OcclusionPair:
    """Ordered (foreground, background) object-id pair with strict depth order."""

    foreground_id: int
    background_id: int


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise SceneError(f"{where}: {message}")


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SceneError(f"{where}: integer too large for a float") from None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_object(raw: Any, index: int) -> SceneObject:
    """JSON shape and types of one object; `SceneObject` judges the values."""
    where = f"objects[{index}]"
    _require(isinstance(raw, dict), where, "expected an object")
    _require("id" in raw, f"{where}.id", "missing")
    _require(_is_int(raw["id"]), f"{where}.id", f"expected an integer, got {raw['id']!r}")
    label = raw.get("label", "")
    _require(isinstance(label, str), f"{where}.label", "expected a string")

    _require("bbox" in raw, f"{where}.bbox", "missing")
    bbox_raw = raw["bbox"]
    _require(
        isinstance(bbox_raw, (list, tuple)) and len(bbox_raw) == 4,
        f"{where}.bbox",
        "expected [x_min, y_min, x_max, y_max]",
    )
    bbox = tuple(_as_number(v, f"{where}.bbox") for v in bbox_raw)

    _require("depth" in raw, f"{where}.depth", "missing")
    depth = _as_number(raw["depth"], f"{where}.depth")
    try:
        return SceneObject(id=raw["id"], label=label, bbox=bbox, depth=depth)
    except SceneError as exc:
        raise SceneError(f"{where}.{exc}") from None


def parse_scene_with_config(text: str) -> tuple[SceneSpec, dict[str, float]]:
    """Parse a scene file, returning the scene and any config overrides it carries.

    The parser checks JSON shape and types; `SceneObject` and `SceneSpec`
    judge every value, and their messages name the field.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # incl. too many digits, too deep
        raise SceneError(f"malformed scene JSON: {exc}") from exc
    _require(isinstance(doc, dict), "scene", "top level must be a JSON object")

    _require("grid" in doc, "grid", "missing")
    grid = doc["grid"]
    _require(isinstance(grid, dict), "grid", "expected an object")
    for key in ("height", "width"):
        _require(key in grid, f"grid.{key}", "missing")
        _require(_is_int(grid[key]), f"grid.{key}", f"expected an integer, got {grid[key]!r}")

    _require("objects" in doc, "objects", "missing")
    raw_objects = doc["objects"]
    _require(isinstance(raw_objects, list), "objects", "expected a list")
    objects = tuple(_parse_object(raw, i) for i, raw in enumerate(raw_objects))
    scene = SceneSpec(grid_height=grid["height"], grid_width=grid["width"], objects=objects)

    overrides: dict[str, float] = {}
    if "config" in doc:
        raw_cfg = doc["config"]
        _require(isinstance(raw_cfg, dict), "config", "expected an object")
        for key, value in raw_cfg.items():
            _require(key in GUIDANCE_CONFIG_KEYS, f"config.{key}", "unknown config key")
            if key == "total_steps":
                _require(_is_int(value), f"config.{key}", f"expected an integer, got {value!r}")
                overrides[key] = value
            else:
                overrides[key] = _as_number(value, f"config.{key}")

    return scene, overrides


def parse_scene(text: str) -> SceneSpec:
    """Parse and validate a scene file (see the README for the schema)."""
    return parse_scene_with_config(text)[0]


def read_scene(path: str) -> tuple[SceneSpec, dict[str, float]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SceneError(f"scene file is not UTF-8: {exc}") from exc
    return parse_scene_with_config(text)


def pixel_centers(n: int, dtype=np.float64) -> np.ndarray:
    """Normalized centres (i + 0.5) / n of n pixels along one axis, in `dtype`."""
    return (np.arange(n, dtype=dtype) + dtype(0.5)) / dtype(n)


def box_span(
    bbox: tuple[float, float, float, float], height: int, width: int
) -> tuple[int, int, int, int]:
    """Index spans (r0, r1, c0, c1) of a normalized box: its pixels are [r0:r1, c0:c1].

    A pixel is inside iff its center ((x+0.5)/W, (y+0.5)/H) satisfies
    x_min <= cx < x_max and y_min <= cy < y_max; on the sorted centers a span
    runs from the first center >= its min edge to the first >= its max edge.
    Half-open intervals keep shared box edges from being claimed twice.
    """
    x0, y0, x1, y1 = bbox
    r0, r1 = np.searchsorted(pixel_centers(height), (y0, y1), side="left").tolist()
    c0, c1 = np.searchsorted(pixel_centers(width), (x0, x1), side="left").tolist()
    return r0, r1, c0, c1


def box_indicators(
    bbox: tuple[float, float, float, float], height: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row (height,) and column (width,) 0/1 float64 indicators; the box mask is their outer product."""
    r0, r1, c0, c1 = box_span(bbox, height, width)
    rows, cols = np.zeros(height), np.zeros(width)
    rows[r0:r1] = cols[c0:c1] = 1.0
    return rows, cols


def _boxes_overlap(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    # strict inequalities: touching edges do not count as overlap
    return (
        min(a[2], b[2]) - max(a[0], b[0]) > 0.0
        and min(a[3], b[3]) - max(a[1], b[1]) > 0.0
    )


def derive_occlusion_pairs(scene: SceneSpec) -> list[OcclusionPair]:
    """Foreground/background pairs from box overlap and strict depth order.

    One pair per unordered object pair whose boxes overlap with positive area
    and whose depths differ strictly; the smaller-depth object is the
    foreground.  Equal-depth overlaps yield no pair.  Output is sorted by
    (foreground_id, background_id).
    """
    pairs: list[OcclusionPair] = []
    objs = scene.objects
    for a in range(len(objs)):
        for b in range(a + 1, len(objs)):
            if not _boxes_overlap(objs[a].bbox, objs[b].bbox):
                continue
            if objs[a].depth == objs[b].depth:
                continue
            fg, bg = (objs[a], objs[b]) if objs[a].depth < objs[b].depth else (objs[b], objs[a])
            pairs.append(OcclusionPair(foreground_id=fg.id, background_id=bg.id))
    pairs.sort()
    return pairs


def canonical_scene() -> SceneSpec:
    """The two-object overlapping scene used throughout the test suite."""
    return SceneSpec(
        grid_height=64,
        grid_width=64,
        objects=(
            SceneObject(id=0, label="foreground", bbox=(0.15, 0.25, 0.65, 0.85), depth=0.2),
            SceneObject(id=1, label="background", bbox=(0.35, 0.15, 0.90, 0.80), depth=0.8),
        ),
    )
