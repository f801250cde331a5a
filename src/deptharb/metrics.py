"""Attention-based layout and occlusion metrics.

The attention field itself acts as the segmentation oracle: thresholded maps
stand in for detected boxes (layout mIoU) and the per-pixel argmax winner
stands in for instance masks (foreground occlusion coverage).  Absolute
values are therefore not comparable to detector-based evaluations; orderings
are.

Both read only box rectangles, the slices [r0:r1, c0:c1] of `box_span`:
mIoU counts over each box, FOCR counts winners over each pair's
intersection rectangle, taken in one pass over the rectangle bounding them
all.  The values are those of the full-mask definitions.  The two pixel
rules they apply, relative thresholding (`_above_threshold`) and the
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

    Winners (ties to smaller depth, then smaller id) are taken once, over the
    rectangle bounding every pair's overlap of its two boxes' `box_span`
    rectangles, and each pair counts its own overlap.  Pairs whose overlap holds
    no pixels report None and are excluded from the mean; an empty pair list
    yields an absent mean.  A pair naming an id the scene lacks raises SceneError.
    """
    check_alignment(field, scene)
    spans = [box_span(obj.bbox, scene.grid_height, scene.grid_width) for obj in scene.objects]
    overlaps: list[tuple[int, int, int, int] | None] = []
    for pair in pairs:
        fg, bg = spans[scene.index_of(pair.foreground_id)], spans[scene.index_of(pair.background_id)]
        r0, r1, c0, c1 = max(fg[0], bg[0]), min(fg[1], bg[1]), max(fg[2], bg[2]), min(fg[3], bg[3])
        overlaps.append((r0, r1, c0, c1) if r1 > r0 and c1 > c0 else None)
    per_pair: list[float | None] = [None] * len(overlaps)
    spanned = [span for span in overlaps if span is not None]
    if spanned:
        # a pixel's winner depends on that pixel alone: one pass over the
        # rectangle bounding every overlap, sliced per pair
        r0s, r1s, c0s, c1s = zip(*spanned)
        top, left = min(r0s), min(c0s)
        winners = _winners(field.maps[:, top : max(r1s), left : max(c1s)], scene)
        for n, (pair, span) in enumerate(zip(pairs, overlaps)):
            if span is not None:
                r0, r1, c0, c1 = span
                won = np.count_nonzero(winners[r0 - top : r1 - top, c0 - left : c1 - left] == pair.foreground_id)
                per_pair[n] = int(won) / ((r1 - r0) * (c1 - c0))
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
        b = self.breakdown
        f, e_in, e_out, mu, var = (values.tolist() for values in (b.f, b.e_in, b.e_out, b.mu, b.var))
        per_object = [
            {"id": obj.id, "label": obj.label, "f": f[k], "e_in": e_in[k], "e_out": e_out[k], "mu": mu[k],
             "var": var[k], "iou": self.miou.per_object[obj.id]}
            for k, obj in enumerate(self.scene.objects)
        ]
        # build_metric_report hands the loss and focr the same pairs, in the same order
        scored = zip(b.pairs, b.pair_interference.tolist(), b.pair_weights.tolist(), self.focr.per_pair, strict=True)
        per_pair = [
            {"foreground_id": pair.foreground_id, "background_id": pair.background_id, "interference": inter,
             "weight": weight, "focr": pair_focr}
            for pair, inter, weight, pair_focr in scored
        ]
        return {
            "losses": {"stage": b.stage, "align": b.align, "ortho": b.ortho, "compact": b.compact, "total": b.total},
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
