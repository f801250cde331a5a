from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from deptharb import AttentionField, SceneObject, SceneSpec, canonical_scene

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
