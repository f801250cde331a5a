"""Seeded scene generator owned by the benchmark.

The benchmark writes every scene file the program reads, so a change to the
program (its own random scene helper, or the repository's scene files)
cannot change a workload.  Generation uses `random.Random`, whose integer
seeding is stable across Python versions, and no numpy, so the same seed
gives the same scene whatever numpy is installed.
"""

from __future__ import annotations

import json
import random

# Copy of the repository's canonical two-object scene (64x64, K=2).
CANONICAL = {
    "grid": {"height": 64, "width": 64},
    "objects": [
        {"id": 0, "label": "foreground", "bbox": [0.15, 0.25, 0.65, 0.85], "depth": 0.2},
        {"id": 1, "label": "background", "bbox": [0.35, 0.15, 0.90, 0.80], "depth": 0.8},
    ],
}

MAX_TRIES = 100_000


def _overlap(a: list[float], b: list[float]) -> bool:
    # strict positive-area overlap, as the program pairs objects
    return min(a[2], b[2]) - max(a[0], b[0]) > 0.0 and min(a[3], b[3]) - max(a[1], b[1]) > 0.0


def occlusion_pairs(scene: dict) -> int:
    """Count object pairs whose boxes overlap and whose depths differ."""
    objs = scene["objects"]
    return sum(
        1
        for i in range(len(objs))
        for j in range(i + 1, len(objs))
        if objs[i]["depth"] != objs[j]["depth"] and _overlap(objs[i]["bbox"], objs[j]["bbox"])
    )


def _box(rng: random.Random, lo: float, hi: float) -> list[float]:
    w = rng.uniform(lo, hi)
    h = rng.uniform(lo, hi)
    x0 = round(rng.uniform(0.0, 1.0 - w), 4)
    y0 = round(rng.uniform(0.0, 1.0 - h), 4)
    return [x0, y0, min(1.0, round(x0 + w, 4)), min(1.0, round(y0 + h, 4))]


def generate(seed: int, size: int, count: int, pairs: int, extent: tuple[float, float]) -> dict:
    """A size x size scene of `count` boxes with exactly `pairs` occlusion pairs.

    Box sides are drawn from `extent` (fractions of the canvas) and depths
    are distinct, so every overlap is an occlusion pair.  Candidates are
    drawn until one has the requested pair count; the result depends only
    on the arguments.
    """
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        depths = [round(rng.uniform(0.05, 0.95), 4) for _ in range(count)]
        if len(set(depths)) != count:
            continue
        scene = {
            "grid": {"height": size, "width": size},
            "objects": [
                {"id": i, "label": f"obj{i}", "bbox": _box(rng, *extent), "depth": depths[i]}
                for i in range(count)
            ],
        }
        if occlusion_pairs(scene) == pairs:
            return scene
    raise ValueError(f"no {count}-object scene with {pairs} pairs after {MAX_TRIES} draws")


def large_scene(seed: int) -> dict:
    """256x256, K=8, 16 occlusion pairs: full-field passes dominate a step."""
    return generate(seed, size=256, count=8, pairs=16, extent=(0.22, 0.44))


def small_scene(seed: int) -> dict:
    """32x32, K=3, 2 occlusion pairs: the gradient-check scenes."""
    return generate(seed, size=32, count=3, pairs=2, extent=(0.25, 0.6))


def write_scene(path: str, scene: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene, fh)
