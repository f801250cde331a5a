"""Attention-map containers and their validation.

An attention map is a non-negative float64 grid; a field is one map per
scene object, all sharing the same dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import SceneSpec


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

    def __getitem__(self, k: int) -> np.ndarray:
        return self.maps[k]


def check_alignment(field: AttentionField, scene: SceneSpec) -> None:
    """Ensure a field is index-aligned with a scene's objects and grid."""
    count, height, width = field.maps.shape
    if count != len(scene.objects):
        raise AttentionError(
            f"field has {count} maps for {len(scene.objects)} scene objects"
        )
    if (height, width) != (scene.grid_height, scene.grid_width):
        raise AttentionError(
            f"field is {height}x{width}, scene grid is "
            f"{scene.grid_height}x{scene.grid_width}"
        )
