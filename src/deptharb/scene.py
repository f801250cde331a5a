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
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from decimal import Decimal
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid guidance configuration values."""


def _is_integer(value: Any) -> bool:
    """An integer, numpy's too, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """A real number, numpy's too, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


SHOWN_DIGITS = 20  # a message shows an integer of more digits by its leading digits and its digit count
SHOWN_BYTES = 100  # and a string whose repr takes more UTF-8 bytes by the leading characters that fit and its length
FLOAT_MAX = sys.float_info.max


def _shown(value: Any) -> str:
    """`value` in a message: a real's str, else repr, item by item in a tuple or list, an integer of over
    SHOWN_DIGITS digits as its leading digits and digit count (str refuses one of over 4300 digits), and a
    string whose repr is over SHOWN_BYTES bytes as its leading characters and its length."""
    if isinstance(value, (tuple, list)):
        items = ", ".join(map(_shown, value))
        return f"({items}{',' * (len(value) == 1)})" if isinstance(value, tuple) else f"[{items}]"
    if isinstance(value, str) and len(repr(value).encode()) > SHOWN_BYTES:
        head = value[:SHOWN_BYTES]
        while len(repr(head).encode()) > SHOWN_BYTES:
            head = head[:-1]
        return f"{head!r}... ({len(value)} characters)"
    if not _is_integer(value) or abs(int(value)) < 10**SHOWN_DIGITS:
        return str(value) if _is_real(value) else repr(value)
    digits = Decimal(abs(int(value))).adjusted() + 1
    return f"{'-' * (value < 0)}{abs(int(value)) // 10 ** (digits - SHOWN_DIGITS)}... ({digits} digits)"


# each domain of a numeric input, keyed by the text its refusal prints: `<name> must be <domain>, got <value>`
DOMAINS = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "within [0, 1]": lambda value: 0 <= value <= 1,
    "in (0, 1]": lambda value: 0 < value <= 1,
    # a Python integer beyond FLOAT_MAX converts to no float, and is not finite
    "within the float range": lambda value: not _is_integer(value) or -FLOAT_MAX <= value <= FLOAT_MAX,
    "finite": lambda value: -FLOAT_MAX <= value <= FLOAT_MAX,
    "finite and >= 0": lambda value: 0 <= value <= FLOAT_MAX,
    "an unsigned 64-bit integer": lambda value: _is_integer(value) and 0 <= value < 2**64,
}
KINDS = {int: ("an integer", _is_integer), float: ("a real number", _is_real)}


def check_value(name: str, value: Any, kind: type | None, *domains: str, error: type[Exception] = ConfigError):
    """`value`, if it is of `kind` in KINDS (None: any; a real is also within the float range) and in each of
    `domains` in DOMAINS; else `error`, `<name> must be <kind or domain>, got <value>`, for the first rule broken."""
    if kind is not None:
        text, valid = KINDS[kind]
        if not valid(value):
            raise error(f"{name} must be {text}, got {_shown(value)}")
        domains = ("within the float range",) * (kind is float) + domains
    for domain in domains:
        if not DOMAINS[domain](value):
            raise error(f"{name} must be {domain}, got {_shown(value)}")
    return value


def _knob(default, help: str, *, domain: str | None = None, flag: str | None = None, objective=False, sweep=False):
    """A config field: its CLI help, its flag (None: `--` and the name with `-` for `_`), whether it can be swept,
    and its `check_value` rules: its default's kind, finite if it defines the loss (`objective`: a non-finite
    weight leaves it undefined at step 0, an input error), then its domain in DOMAINS (None: any)."""
    rules = (int if isinstance(default, int) else float,) + ("finite",) * objective + ((domain,) if domain else ())
    return field(default=default, metadata={"help": help, "flag": flag, "sweep": sweep, "rules": rules})


@dataclass(frozen=True)
class GuidanceConfig:
    """Every tunable of the guidance engine.

    `eta0` is None until set: each surrogate mode owns its default step
    (`default_eta0`), which `surrogate.with_default_step` fills in.
    """

    lambda0: float = _knob(0.5, "base repulsion weight", domain="> 0", objective=True, sweep=True)
    alpha: float = _knob(1.0, "depth-modulation sharpness", objective=True, sweep=True)
    tau: float = _knob(1.0, "depth-modulation temperature", domain="> 0", objective=True, sweep=True)
    # 0 switches a term off (the ablations); a negative weight rewards it
    lambda_ortho: float = _knob(0.5, "orthogonality term weight", domain=">= 0", objective=True, sweep=True)
    lambda_compact: float = _knob(0.2, "compactness term weight", domain=">= 0", objective=True, sweep=True)
    epsilon: float = _knob(1e-8, "stability constant", domain="> 0", objective=True)
    eta0: float | None = _knob(
        None, "base step size eta0 (default: the mode's own)", domain=">= 0", flag="--eta", sweep=True
    )
    eta_decay: float = _knob(1.0, "per-step multiplicative step-size decay", domain="in (0, 1]")
    stage1_fraction: float = _knob(
        0.5, "fraction of steps in stage 1", domain="within [0, 1]", flag="--stage1-frac", sweep=True
    )
    total_steps: int = _knob(200, "total optimization steps", domain=">= 0", flag="--steps")

    def __post_init__(self) -> None:
        for knob in fields(self):
            value = getattr(self, knob.name)
            if not (value is None and knob.default is None):  # unset: eta0 is then the latent's mode's own step
                check_value(knob.name, value, *knob.metadata["rules"])

    @classmethod
    def preset(cls, name: str) -> "GuidanceConfig":
        """The config of a named weight preset in PRESETS."""
        if not isinstance(name, str) or name not in PRESETS:
            expected = " or ".join(repr(known) for known in PRESETS)
            raise ConfigError(f"unknown preset {_shown(name)} (expected {expected})")
        return cls(**PRESETS[name])

    def updated(self, **overrides) -> "GuidanceConfig":
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        return asdict(self)


# each weight preset's overrides of the defaults: main text 0.5/0.2, appendix 0.2/0.5
PRESETS = {"main": {}, "appendix": {"lambda_ortho": 0.2, "lambda_compact": 0.5}}
GUIDANCE_CONFIG_KEYS = tuple(f.name for f in fields(GuidanceConfig))
MAX_GRID_PIXELS = 1 << 24  # 4096x4096; one float64 map is then 128 MiB
ID_LIMIT = 1 << 63  # ids are held in int64 arrays (the winners map of scoring)


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
        # every type and value rule of an object lives here; a message opens with its field
        if not (_is_integer(self.id) and 0 <= self.id < ID_LIMIT):
            raise SceneError(f"id: expected an integer in [0, 2^63), got {_shown(self.id)}")
        if not isinstance(self.label, str):
            raise SceneError(f"label: expected a string, got {_shown(self.label)}")
        try:
            self.label.encode("utf-8")  # reports and summaries write labels as UTF-8
        except UnicodeEncodeError:
            raise SceneError(f"label: expected text that encodes as UTF-8, got {_shown(self.label)}") from None
        if not (isinstance(self.bbox, tuple) and len(self.bbox) == 4 and all(map(_is_real, self.bbox))):
            raise SceneError(f"bbox: expected a tuple (x_min, y_min, x_max, y_max) of numbers, got {_shown(self.bbox)}")
        if not _is_real(self.depth):
            raise SceneError(f"depth: expected a number, got {_shown(self.depth)}")
        x0, y0, x1, y1 = self.bbox
        for coord in self.bbox:
            if not 0.0 <= coord <= 1.0:
                raise SceneError(f"bbox: coordinate {_shown(coord)} outside [0, 1]")
        if not x0 < x1:
            raise SceneError(f"bbox: x_min {x0} must be < x_max {x1}")
        if not y0 < y1:
            raise SceneError(f"bbox: y_min {y0} must be < y_max {y1}")
        if not 0.0 <= self.depth <= 1.0:
            raise SceneError(f"depth: {_shown(self.depth)} outside [0, 1]")


@dataclass(frozen=True)
class SceneSpec:
    """Validated scene: grid dimensions plus objects in file order.

    `spans` holds each object's `box_span`, in object order, as validation
    took it: scoring, the loss plan and the oracle's box masks all read
    their rectangles from it, and nothing downstream rasterizes a box again.
    """

    grid_height: int
    grid_width: int
    objects: tuple[SceneObject, ...]
    spans: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (_is_integer(self.grid_height) and _is_integer(self.grid_width)):
            raise SceneError(f"grid: expected integer sides, got {_shown(self.grid_height)}x{_shown(self.grid_width)}")
        if not (isinstance(self.objects, tuple) and all(isinstance(obj, SceneObject) for obj in self.objects)):
            raise SceneError(f"objects: expected a tuple of SceneObject, got {self.objects!r}")
        if self.grid_height < 2 or self.grid_width < 2:
            raise SceneError(
                f"grid: must be at least 2x2, got {_shown(self.grid_height)}x{_shown(self.grid_width)}"
            )
        # Python integers: a product of numpy ones can wrap
        if int(self.grid_height) * int(self.grid_width) > MAX_GRID_PIXELS:
            raise SceneError(
                f"grid: {_shown(self.grid_height)}x{_shown(self.grid_width)} exceeds {MAX_GRID_PIXELS} pixels"
            )
        if not self.objects:
            raise SceneError("objects: need at least one object")
        seen: set[int] = set()
        spans = []
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
            spans.append((r0, r1, c0, c1))
        object.__setattr__(self, "spans", tuple(spans))

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


def _parse_object(raw: Any, index: int) -> SceneObject:
    """JSON shape of one object; `SceneObject` judges its types and values."""
    where = f"objects[{index}]"
    _require(isinstance(raw, dict), where, "expected an object")
    for key in ("id", "bbox", "depth"):
        _require(key in raw, f"{where}.{key}", "missing")
    bbox = raw["bbox"]
    _require(isinstance(bbox, list) and len(bbox) == 4, f"{where}.bbox", "expected [x_min, y_min, x_max, y_max]")
    try:
        return SceneObject(id=raw["id"], label=raw.get("label", ""), bbox=tuple(bbox), depth=raw["depth"])
    except SceneError as exc:
        raise SceneError(f"{where}.{exc}") from None


def parse_scene_with_config(text: str) -> tuple[SceneSpec, dict[str, float]]:
    """Parse a scene file, returning the scene and any config overrides it carries.

    The parser checks JSON shape; `SceneObject` and `SceneSpec` judge every
    type and value, and their messages name the field.
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

    _require("objects" in doc, "objects", "missing")
    raw_objects = doc["objects"]
    _require(isinstance(raw_objects, list), "objects", "expected a list")
    objects = tuple(_parse_object(raw, i) for i, raw in enumerate(raw_objects))
    scene = SceneSpec(grid_height=grid["height"], grid_width=grid["width"], objects=objects)

    overrides: dict[str, float] = {}
    if "config" in doc:
        raw_cfg = doc["config"]
        _require(isinstance(raw_cfg, dict), "config", "expected an object")
        knobs = {knob.name: knob for knob in fields(GuidanceConfig)}
        for key, value in raw_cfg.items():
            _require(key in knobs, f"config.{key}", "unknown config key")
            if knobs[key].metadata["rules"][0] is int:
                _require(_is_integer(value), f"config.{key}", f"expected an integer, got {_shown(value)}")
                overrides[key] = value
            else:
                # a number, not null: an unset eta0 is the mode's own step, which a file cannot ask for;
                # GuidanceConfig refuses an integer no float holds
                _require(_is_real(value), f"config.{key}", f"expected a number, got {_shown(value)}")
                overrides[key] = float(value) if DOMAINS["within the float range"](value) else value

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
