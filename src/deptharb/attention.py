"""Attention-map containers and primitive transforms.

An attention map is a non-negative float64 grid; a field is one map per
scene object, all sharing the same dimensions.  The two rules here, the
per-pixel winner assignment and relative thresholding, are what the
metrics read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .scene import SceneSpec

NONE_ID = -1  # _winners value for pixels where every map is zero


class AttentionError(ValueError):
    """Raised for invalid attention-map inputs."""


def _checked(values, ndim: int, what: str) -> np.ndarray:
    """`values` as float64, rejected unless `ndim`-D, finite and non-negative."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise AttentionError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise AttentionError(f"{what} contains non-finite entries")
    if (arr < 0).any():
        raise AttentionError(f"{what} contains negative entries")
    return arr


@dataclass(frozen=True)
class AttentionField:
    """Per-object attention maps stacked as a (K, H, W) float64 array."""

    maps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", _checked(self.maps, 3, "field"))

    @property
    def count(self) -> int:
        return self.maps.shape[0]

    @property
    def height(self) -> int:
        return self.maps.shape[1]

    @property
    def width(self) -> int:
        return self.maps.shape[2]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.maps[k]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.maps)

    def scaled(self, factor: float) -> "AttentionField":
        return AttentionField(maps=self.maps * factor)


def check_alignment(field: AttentionField, scene: SceneSpec) -> None:
    """Ensure a field is index-aligned with a scene's objects and grid."""
    if field.count != len(scene.objects):
        raise AttentionError(
            f"field has {field.count} maps for {len(scene.objects)} scene objects"
        )
    if (field.height, field.width) != (scene.grid_height, scene.grid_width):
        raise AttentionError(
            f"field is {field.height}x{field.width}, scene grid is "
            f"{scene.grid_height}x{scene.grid_width}"
        )


def _winners(maps: np.ndarray, scene: SceneSpec) -> np.ndarray:
    """Per-pixel winner of any (K, h, w) stack of the scene's maps: ties go to
    smaller depth, then smaller id; pixels where every map is zero get NONE_ID."""
    peak = maps.max(axis=0)
    winners = np.full(peak.shape, NONE_ID, dtype=np.int64)
    # worst tie rank first, so the best map reaching the peak writes last
    for k, obj in sorted(enumerate(scene.objects), key=lambda ko: (ko[1].depth, ko[1].id), reverse=True):
        winners[maps[k] == peak] = obj.id
    winners[peak == 0.0] = NONE_ID
    return winners


def _above_threshold(arr: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Boolean mask of a valid map's entries >= rel_threshold times its maximum (none if all zero)."""
    if not 0.0 < rel_threshold <= 1.0:
        raise AttentionError(f"rel_threshold must be in (0, 1], got {rel_threshold}")
    peak = arr.max()
    if peak == 0.0:
        return np.zeros(arr.shape, dtype=bool)
    return arr >= rel_threshold * peak
