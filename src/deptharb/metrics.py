"""Attention-based layout and occlusion metrics.

The attention field itself acts as the segmentation oracle: thresholded maps
stand in for detected boxes (layout mIoU) and the per-pixel argmax winner
stands in for instance masks (foreground occlusion coverage).  Absolute
values are therefore not comparable to detector-based evaluations; orderings
are.

Both read only box rectangles, the slices [r0:r1, c0:c1] of `box_span`:
mIoU counts over each box, FOCR takes winners over each pair's intersection
rectangle.  The values are those of the full-mask definitions.  The two
pixel rules they apply, relative thresholding (`_above_threshold`) and the
per-pixel winner (`_winners`), live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import AttentionError, AttentionField, check_alignment
from .losses import LossBreakdown, staged_loss
from .scene import GuidanceConfig, OcclusionPair, SceneSpec, box_span, derive_occlusion_pairs

DEFAULT_REL_THRESHOLD = 0.5
NONE_ID = -1  # _winners value for pixels where every map is zero


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


@dataclass(frozen=True)
class LayoutMiou:
    per_object: dict[int, float]  # object id -> IoU
    fg: float | None              # mean over objects foreground in some pair
    bg: float | None              # mean over the rest
    all: float


@dataclass(frozen=True)
class FocrResult:
    per_pair: tuple[float | None, ...]  # in pair order; None when the box intersection is empty
    mean: float | None


def layout_miou(
    field: AttentionField,
    scene: SceneSpec,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> LayoutMiou:
    """IoU of each thresholded map against its rasterized box, with aggregates.

    The intersection is the predicted count inside the box slice, the union
    the predicted count plus the box area minus the intersection.
    Objects are grouped as foreground if they lead any occlusion pair
    (foreground membership wins for objects playing both roles), background
    otherwise.
    """
    check_alignment(field, scene)
    fg_ids = {p.foreground_id for p in derive_occlusion_pairs(scene)}
    per_object: dict[int, float] = {}
    fg_vals: list[float] = []
    bg_vals: list[float] = []
    for k, obj in enumerate(scene.objects):
        predicted = _above_threshold(field[k], rel_threshold)
        r0, r1, c0, c1 = box_span(obj.bbox, scene.grid_height, scene.grid_width)
        inter = int(np.count_nonzero(predicted[r0:r1, c0:c1]))
        # a valid scene's boxes hold pixels, so the union is never empty
        iou = inter / (int(np.count_nonzero(predicted)) + (r1 - r0) * (c1 - c0) - inter)
        per_object[obj.id] = iou
        (fg_vals if obj.id in fg_ids else bg_vals).append(iou)
    return LayoutMiou(
        per_object=per_object,
        fg=float(np.mean(fg_vals)) if fg_vals else None,
        bg=float(np.mean(bg_vals)) if bg_vals else None,
        all=float(np.mean(list(per_object.values()))),
    )


def focr(
    field: AttentionField,
    scene: SceneSpec,
    pairs: Sequence[OcclusionPair],
) -> FocrResult:
    """Fraction of each pair's box-intersection pixels won by the foreground.

    Winners (ties to smaller depth, then smaller id) are taken only over the
    overlap of the two boxes' `box_span` rectangles.  Pairs whose overlap holds
    no pixels report None and are excluded from the mean; an empty pair list
    yields an absent mean.  A pair naming an id the scene lacks raises SceneError.
    """
    check_alignment(field, scene)
    spans = [box_span(obj.bbox, scene.grid_height, scene.grid_width) for obj in scene.objects]
    per_pair: list[float | None] = []
    for pair in pairs:
        fg, bg = spans[scene.index_of(pair.foreground_id)], spans[scene.index_of(pair.background_id)]
        r0, r1, c0, c1 = max(fg[0], bg[0]), min(fg[1], bg[1]), max(fg[2], bg[2]), min(fg[3], bg[3])
        if r1 <= r0 or c1 <= c0:
            per_pair.append(None)
            continue
        winners = _winners(field.maps[:, r0:r1, c0:c1], scene)
        per_pair.append(int(np.count_nonzero(winners == pair.foreground_id)) / ((r1 - r0) * (c1 - c0)))
    values = [v for v in per_pair if v is not None]
    return FocrResult(per_pair=tuple(per_pair), mean=float(np.mean(values)) if values else None)


@dataclass(frozen=True)
class MetricReport:
    """What scoring a field computes: stage losses, layout mIoU and occlusion coverage.

    bor and fbs slots stay absent (None): those scores would need CLIP and a
    vision-language judge, which this engine deliberately does not carry.
    """

    scene: SceneSpec
    breakdown: LossBreakdown
    miou: LayoutMiou
    focr: FocrResult

    def to_json_dict(self) -> dict:
        per_object = []
        for k, obj in enumerate(self.scene.objects):
            per_object.append(
                {
                    "id": obj.id,
                    "label": obj.label,
                    "f": float(self.breakdown.f[k]),
                    "e_in": float(self.breakdown.e_in[k]),
                    "e_out": float(self.breakdown.e_out[k]),
                    "mu": [float(self.breakdown.mu[k, 0]), float(self.breakdown.mu[k, 1])],
                    "var": float(self.breakdown.var[k]),
                    "iou": self.miou.per_object[obj.id],
                }
            )
        per_pair = []
        # build_metric_report hands the loss and focr the same pairs, in the same order
        scored = zip(self.breakdown.pairs, self.focr.per_pair, strict=True)
        for p_idx, (pair, pair_focr) in enumerate(scored):
            per_pair.append(
                {
                    "foreground_id": pair.foreground_id,
                    "background_id": pair.background_id,
                    "interference": float(self.breakdown.pair_interference[p_idx]),
                    "weight": float(self.breakdown.pair_weights[p_idx]),
                    "focr": pair_focr,
                }
            )
        return {
            "losses": {
                "stage": self.breakdown.stage,
                "align": self.breakdown.align,
                "ortho": self.breakdown.ortho,
                "compact": self.breakdown.compact,
                "total": self.breakdown.total,
            },
            "per_object": per_object,
            "per_pair": per_pair,
            "metrics": {
                "miou_fg": self.miou.fg,
                "miou_bg": self.miou.bg,
                "miou_all": self.miou.all,
                "focr_mean": self.focr.mean,
                "bor": None,
                "fbs": None,
            },
        }


def build_metric_report(
    field: AttentionField,
    scene: SceneSpec,
    cfg: GuidanceConfig,
    stage: int,
    rel_threshold: float,
) -> MetricReport:
    """Evaluate a field end to end: stage losses, layout mIoU, and occlusion coverage."""
    pairs = derive_occlusion_pairs(scene)
    return MetricReport(
        scene=scene,
        breakdown=staged_loss(field, scene, pairs, cfg, stage),
        miou=layout_miou(field, scene, rel_threshold),
        focr=focr(field, scene, pairs),
    )
