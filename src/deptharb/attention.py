"""Attention-map containers and primitive transforms.

An attention map is a non-negative float64 grid; a field is one map per
scene object, all sharing the same dimensions.  The transforms here are the
building blocks the losses and metrics read: probability normalization,
per-pixel winner assignment, and relative thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .scene import SceneSpec

NONE_ID = -1  # pseudo_segment winner value for pixels where every map is zero


class AttentionError(ValueError):
    """Raised for invalid attention-map inputs."""


def _validate_map(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise AttentionError(f"attention map must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise AttentionError("attention map contains non-finite entries")
    if (arr < 0).any():
        raise AttentionError("attention map contains negative entries")
    return arr


@dataclass(frozen=True)
class AttentionField:
    """Per-object attention maps stacked as a (K, H, W) float64 array."""

    maps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.maps, dtype=np.float64)
        if arr.ndim != 3:
            raise AttentionError(f"field must have shape (K, H, W), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise AttentionError("field contains non-finite entries")
        if (arr < 0).any():
            raise AttentionError("field contains negative entries")
        object.__setattr__(self, "maps", arr)

    @classmethod
    def from_maps(cls, maps: Sequence[np.ndarray]) -> "AttentionField":
        if len(maps) == 0:
            raise AttentionError("field needs at least one map")
        arrs = [_validate_map(m) for m in maps]
        shape = arrs[0].shape
        for k, arr in enumerate(arrs):
            if arr.shape != shape:
                raise AttentionError(
                    f"map {k} has shape {arr.shape}, expected {shape}"
                )
        return cls(maps=np.stack(arrs))

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


@dataclass(frozen=True)
class CoordGrid:
    """Normalized pixel-center coordinates: x[r, c] = (c+0.5)/W, y[r, c] = (r+0.5)/H."""

    x: np.ndarray
    y: np.ndarray


def coord_grid(height: int, width: int, dtype=np.float64) -> CoordGrid:
    cx = (np.arange(width, dtype=dtype) + dtype(0.5)) / dtype(width)
    cy = (np.arange(height, dtype=dtype) + dtype(0.5)) / dtype(height)
    x = np.broadcast_to(cx[None, :], (height, width)).copy()
    y = np.broadcast_to(cy[:, None], (height, width)).copy()
    return CoordGrid(x=x, y=y)


def normalize_map(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Divide a map by (its total mass + epsilon) so it acts as a spatial distribution.

    An all-zero map stays all-zero; entries sum to total/(total + epsilon) <= 1.
    """
    if epsilon <= 0:
        raise AttentionError(f"epsilon must be > 0, got {epsilon}")
    arr = _validate_map(values)
    return arr / (arr.sum() + epsilon)


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


def pseudo_segment(field: AttentionField, scene: SceneSpec) -> np.ndarray:
    """Per-pixel winning object id; ties go to smaller depth, then smaller id.

    Pixels where every map is zero get NONE_ID.  Stands in for detector
    instance masks when attributing overlap regions to objects.
    """
    check_alignment(field, scene)
    return _winners(field.maps, scene)


def _above_threshold(arr: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Boolean mask of a valid map's entries >= rel_threshold times its maximum (none if all zero)."""
    if not 0.0 < rel_threshold <= 1.0:
        raise AttentionError(f"rel_threshold must be in (0, 1], got {rel_threshold}")
    peak = arr.max()
    if peak == 0.0:
        return np.zeros(arr.shape, dtype=bool)
    return arr >= rel_threshold * peak


def threshold_mask(values: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Binary mask of pixels at or above rel_threshold times the map maximum.

    An all-zero map yields an all-zero mask.
    """
    return _above_threshold(_validate_map(values), rel_threshold).astype(np.float64)
