from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from deptharb import AttentionField, LatentState, SceneObject, SceneSpec, canonical_scene

# every property test is deterministic and keeps no example database;
# a test's own @settings sets only its example count
settings.register_profile("deptharb", deadline=None, derandomize=True, database=None)
settings.load_profile("deptharb")


@pytest.fixture
def canonical() -> SceneSpec:
    return canonical_scene()


@pytest.fixture
def two_object_scene() -> SceneSpec:
    return SceneSpec(
        grid_height=16,
        grid_width=16,
        objects=(
            SceneObject(id=0, label="near", bbox=(0.1, 0.1, 0.6, 0.6), depth=0.2),
            SceneObject(id=1, label="far", bbox=(0.4, 0.4, 0.9, 0.9), depth=0.8),
        ),
    )


def dyadic_field(shape: tuple[int, ...], seed: int) -> AttentionField:
    """Random field whose entries are exact binary fractions.

    Multiplying such entries by small integers and summing stays exact in
    float64, which lets scale-invariance tests assert bitwise equality.
    """
    rng = np.random.default_rng(seed)
    ints = rng.integers(1, 2**30, size=shape)
    return AttentionField(maps=ints.astype(np.float64) * 2.0**-29)


def scene_file_text(grid: int = 64) -> str:
    return (
        '{"grid": {"height": %d, "width": %d}, "objects": ['
        '{"id": 0, "label": "a", "bbox": [0.1, 0.1, 0.6, 0.6], "depth": 0.2},'
        '{"id": 1, "label": "b", "bbox": [0.4, 0.4, 0.9, 0.9], "depth": 0.8}]}'
    ) % (grid, grid)


def random_scene(seed: int, size: int = 32, min_objects: int = 2, max_objects: int = 4) -> SceneSpec:
    """Seeded random scene for gradient-check sweeps."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(min_objects, max_objects + 1))
    objects = []
    for i in range(count):
        w = float(rng.uniform(0.25, 0.6))
        hgt = float(rng.uniform(0.25, 0.6))
        x0 = float(rng.uniform(0.0, 1.0 - w))
        y0 = float(rng.uniform(0.0, 1.0 - hgt))
        objects.append(
            SceneObject(
                id=i,
                label=f"obj{i}",
                bbox=(x0, y0, x0 + w, y0 + hgt),
                depth=float(rng.uniform(0.0, 1.0)),
            )
        )
    return SceneSpec(grid_height=size, grid_width=size, objects=tuple(objects))


def random_field_latent(scene: SceneSpec, seed: int) -> LatentState:
    """Raster latent whose rendered maps have entries spread across [0, 2]."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(1e-3, 2.0, size=(len(scene.objects), scene.grid_height, scene.grid_width))
    return LatentState(mode="raster", values=np.log(uniform))
