"""Attention-based layout and occlusion metrics.

The attention field itself acts as the segmentation oracle: thresholded maps
stand in for detected boxes (layout mIoU) and the per-pixel argmax winner
stands in for instance masks (foreground occlusion coverage).  Absolute
values are therefore not comparable to detector-based evaluations; orderings
are.

Both read only box rectangles, the slices [r0:r1, c0:c1] of the scene's
`spans`:
mIoU counts over each box, FOCR counts winners over each pair's
intersection rectangle, taken in one pass over the rectangle bounding them
all.  The values are those of the full-mask definitions.  The two pixel
rules they apply, relative thresholding (`_above_threshold`) and the
per-pixel winner (`_winners`), live here and nowhere else.

Scoring has a leading row axis: `_score_rows` scores a (B, K, H, W) stack of
fields, one row per config, as a sweep's rows are, with one value-only
kernel call on one loss plan (the plan of the run that made the fields,
when the caller has it) and one winners pass for all rows; the pairs are
derived once.  Every reduction stays within one row, so row b's
report is bit for bit the one of its field alone.  It has no one-row
form: `run`, `eval` and `sweep` all score through it, and a lone field
is a stack of one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import AttentionError
from .losses import LossBreakdown, _evaluate, _Plan, _plan
from .scene import GuidanceConfig, OcclusionPair, SceneSpec, derive_occlusion_pairs

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


def _miou_rows(maps: np.ndarray, scene: SceneSpec, fg_ids: set[int], rel_threshold: float) -> list[LayoutMiou]:
    """IoU of each thresholded map against its box, with aggregates, for each row of a (B, K, H, W) stack.

    The intersection is the predicted count inside the box slice, the union
    the predicted count plus the box area minus the intersection.  Objects
    whose id is in `fg_ids` (the pairs' foregrounds, so foreground wins for
    an object in both roles) are grouped as foreground, the rest as
    background.  Each map is thresholded and counted on its own, while it
    is still in cache: on a 256x256 scene of 8 maps, one threshold pass
    over the whole stack took about 1.5 times as long.
    """
    areas = [(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in scene.spans]
    ious = []
    for row in maps:
        for values, (r0, r1, c0, c1), area in zip(row, scene.spans, areas):
            predicted = _above_threshold(values, rel_threshold)
            inter = np.count_nonzero(predicted[r0:r1, c0:c1])
            # a valid scene's boxes hold pixels, so the union is never empty
            ious.append(inter / (np.count_nonzero(predicted) + area - inter))
    iou = np.array(ious).reshape(len(maps), len(scene.spans))
    ids = [obj.id for obj in scene.objects]
    fg = [k for k, obj_id in enumerate(ids) if obj_id in fg_ids]
    bg = [k for k, obj_id in enumerate(ids) if obj_id not in fg_ids]
    # each row's mean over its own contiguous line, as over the list alone
    fg_mean = np.mean(iou[:, fg], axis=1).tolist() if fg else [None] * len(iou)
    bg_mean = np.mean(iou[:, bg], axis=1).tolist() if bg else [None] * len(iou)
    return [
        LayoutMiou(per_object=dict(zip(ids, row)), fg=fg_b, bg=bg_b, all=all_b)
        for row, fg_b, bg_b, all_b in zip(iou.tolist(), fg_mean, bg_mean, np.mean(iou, axis=1).tolist())
    ]


def _focr_rows(maps: np.ndarray, scene: SceneSpec, pairs: Sequence[OcclusionPair]) -> list[FocrResult]:
    """Fraction of each pair's box-intersection pixels won by the foreground, for each row of a (B, K, H, W) stack.

    Winners (ties to smaller depth, then smaller id) are taken once, over the
    rectangle bounding every pair's overlap of its two boxes' span
    rectangles, and each pair counts its own overlap.  Pairs whose overlap holds
    no pixels report None and are excluded from the mean; an empty pair list
    yields an absent mean.  A pair naming an id the scene lacks raises SceneError.
    """
    overlaps: list[tuple[int, int, int, int] | None] = []
    for pair in pairs:
        fg, bg = scene.spans[scene.index_of(pair.foreground_id)], scene.spans[scene.index_of(pair.background_id)]
        r0, r1, c0, c1 = max(fg[0], bg[0]), min(fg[1], bg[1]), max(fg[2], bg[2]), min(fg[3], bg[3])
        overlaps.append((r0, r1, c0, c1) if r1 > r0 and c1 > c0 else None)
    batch = len(maps)
    per_pair: list[list[float | None]] = [[None] * len(pairs) for _ in range(batch)]
    means: list[float | None] = [None] * batch
    spanned = [(n, span) for n, span in enumerate(overlaps) if span is not None]
    if spanned:
        # a pixel's winner depends on that pixel alone: one pass over the
        # rectangle bounding every overlap, the rows' rectangles stacked
        # along their pixel rows, sliced per row and pair
        r0s, r1s, c0s, c1s = zip(*(span for _, span in spanned))
        top, left = min(r0s), min(c0s)
        rect = maps[:, :, top : max(r1s), left : max(c1s)]
        k, height, width = rect.shape[1:]
        winners = _winners(np.moveaxis(rect, 1, 0).reshape(k, batch * height, width), scene)
        # per pair: its foreground, its overlap within the rectangle, the overlap's area
        counted = [
            (pairs[n].foreground_id, np.s_[r0 - top : r1 - top, c0 - left : c1 - left], (r1 - r0) * (c1 - c0))
            for n, (r0, r1, c0, c1) in spanned
        ]
        won = np.array([
            [np.count_nonzero(row[window] == fg_id) for fg_id, window, _ in counted]
            for row in winners.reshape(batch, height, width)
        ])
        fractions = won / np.array([area for _, _, area in counted])
        for row, values in zip(per_pair, fractions.tolist()):
            for (n, _), value in zip(spanned, values):
                row[n] = value
        means = np.mean(fractions, axis=1).tolist()
    return [FocrResult(per_pair=tuple(row), mean=mean) for row, mean in zip(per_pair, means)]


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
        # _score_rows hands the loss and the FOCR rows the same pairs, in the same order
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


def _score_rows(
    maps: np.ndarray,
    scene: SceneSpec,
    cfgs: Sequence[GuidanceConfig],
    stages: Sequence[int],
    rel_threshold: float,
    plan: _Plan | None = None,
) -> list[MetricReport]:
    """Score each row of a (B, K, H, W) stack of the scene's fields: row b under cfgs[b], at stages[b].

    The caller has checked the stack against the scene.  The losses of every
    row come from one kernel call on `plan`, a loss plan of the scene with
    one row per config, such as the one that ran the rows, or, by default,
    one built here.
    """
    pairs = derive_occlusion_pairs(scene)
    breakdown = _evaluate(maps, _plan(scene, pairs, cfgs) if plan is None else plan, stages)
    mious = _miou_rows(maps, scene, {p.foreground_id for p in pairs}, rel_threshold)
    focrs = _focr_rows(maps, scene, pairs)
    return [
        MetricReport(scene=scene, breakdown=breakdown.take(b), miou=miou, focr=result)
        for b, (miou, result) in enumerate(zip(mious, focrs, strict=True))
    ]
