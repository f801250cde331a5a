"""Full-mask reference definitions the tests compare the production paths against.

Scoring reads box rectangles (`scene.box_span`) and the private rules
`metrics._winners` and `metrics._above_threshold`; these helpers spell
the same quantities out over whole (H, W) masks and fields, so a test can
check that the sliced production values equal the full-mask definitions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from deptharb import AttentionError, AttentionField, SceneSpec
from deptharb.attention import _checked, check_alignment
from deptharb.metrics import _above_threshold, _winners
from deptharb.scene import box_indicators


def from_maps(maps: Sequence[np.ndarray]) -> AttentionField:
    """A field stacked from equally shaped 2-D maps."""
    if len(maps) == 0:
        raise AttentionError("field needs at least one map")
    arrs = [np.asarray(m, dtype=np.float64) for m in maps]
    for k, arr in enumerate(arrs):
        if arr.shape != arrs[0].shape:
            raise AttentionError(f"map {k} has shape {arr.shape}, expected {arrs[0].shape}")
    # the field checks every entry, and that the maps are 2-D
    return AttentionField(maps=np.stack(arrs))


def normalize_map(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Divide a map by (its total mass + epsilon) so it acts as a spatial distribution.

    An all-zero map stays all-zero; entries sum to total/(total + epsilon) <= 1.
    """
    if epsilon <= 0:
        raise AttentionError(f"epsilon must be > 0, got {epsilon}")
    arr = _checked(values, 2, "attention map")
    return arr / (arr.sum() + epsilon)


def pseudo_segment(field: AttentionField, scene: SceneSpec) -> np.ndarray:
    """Per-pixel winning object id; ties go to smaller depth, then smaller id.

    Pixels where every map is zero get NONE_ID.
    """
    check_alignment(field, scene)
    return _winners(field.maps, scene)


def threshold_mask(values: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Binary mask of pixels at or above rel_threshold times the map maximum.

    An all-zero map yields an all-zero mask.
    """
    return _above_threshold(_checked(values, 2, "attention map"), rel_threshold).astype(np.float64)


def rasterize_mask(bbox: tuple[float, float, float, float], height: int, width: int) -> np.ndarray:
    """Rasterize a normalized box to a binary (height, width) float64 mask."""
    rows, cols = box_indicators(bbox, height, width)
    return np.outer(rows, cols)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks (0.0 when both are empty)."""
    a = np.asarray(a)
    b = np.asarray(b)
    inter = float(np.sum((a > 0) & (b > 0)))
    union = float(np.sum((a > 0) | (b > 0)))
    if union == 0.0:
        return 0.0
    return inter / union
