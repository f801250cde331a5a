"""Attention-based layout and occlusion metrics.

The attention field itself acts as the segmentation oracle: thresholded maps
stand in for detected boxes (layout mIoU) and the per-pixel argmax winner
stands in for instance masks (foreground occlusion coverage).  Absolute
values are therefore not comparable to detector-based evaluations; orderings
are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import AttentionField, check_alignment, pseudo_segment, threshold_mask
from .losses import LossBreakdown, staged_loss
from .scene import GuidanceConfig, OcclusionPair, SceneSpec, derive_occlusion_pairs, rasterize_mask

DEFAULT_REL_THRESHOLD = 0.5


@dataclass(frozen=True)
class LayoutMiou:
    per_object: dict[int, float]  # object id -> IoU
    fg: float | None              # mean over objects foreground in some pair
    bg: float | None              # mean over the rest
    all: float


@dataclass(frozen=True)
class PairFocr:
    foreground_id: int
    background_id: int
    focr: float | None  # None when the rasterized box intersection is empty


@dataclass(frozen=True)
class FocrResult:
    per_pair: tuple[PairFocr, ...]
    mean: float | None


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks (0.0 when both are empty)."""
    a = np.asarray(a)
    b = np.asarray(b)
    inter = float(np.sum((a > 0) & (b > 0)))
    union = float(np.sum((a > 0) | (b > 0)))
    if union == 0.0:
        return 0.0
    return inter / union


def layout_miou(
    field: AttentionField,
    scene: SceneSpec,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> LayoutMiou:
    """IoU of each thresholded map against its rasterized box, with aggregates.

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
        predicted = threshold_mask(field[k], rel_threshold)
        box = rasterize_mask(obj.bbox, scene.grid_height, scene.grid_width)
        iou = mask_iou(predicted, box)
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

    Winners come from pseudo_segment (ties already resolved toward smaller
    depth).  Pairs whose rasterized intersection holds no pixels report None
    and are excluded from the mean; an empty pair list yields an absent mean.
    """
    check_alignment(field, scene)
    winners = pseudo_segment(field, scene)
    per_pair: list[PairFocr] = []
    values: list[float] = []
    for pair in pairs:
        fg = scene.objects[scene.index_of(pair.foreground_id)]
        bg = scene.objects[scene.index_of(pair.background_id)]
        m_fg = rasterize_mask(fg.bbox, scene.grid_height, scene.grid_width)
        m_bg = rasterize_mask(bg.bbox, scene.grid_height, scene.grid_width)
        inter = (m_fg > 0) & (m_bg > 0)
        n = int(inter.sum())
        if n == 0:
            per_pair.append(PairFocr(pair.foreground_id, pair.background_id, None))
            continue
        won = int(np.sum(winners[inter] == pair.foreground_id))
        value = won / n
        per_pair.append(PairFocr(pair.foreground_id, pair.background_id, value))
        values.append(value)
    mean = float(np.mean(values)) if values else None
    return FocrResult(per_pair=tuple(per_pair), mean=mean)


@dataclass(frozen=True)
class MetricReport:
    """Everything a run or evaluation reports: metrics, loss echoes, config, seed.

    bor and fbs slots stay absent (None): those scores would need CLIP and a
    vision-language judge, which this engine deliberately does not carry.
    """

    scene: SceneSpec
    breakdown: LossBreakdown
    miou: LayoutMiou
    focr: FocrResult
    config: dict
    seed: int

    def to_json_dict(self) -> dict:
        focr_by_pair = {
            (p.foreground_id, p.background_id): p.focr for p in self.focr.per_pair
        }
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
        for p_idx, pair in enumerate(self.breakdown.pairs):
            per_pair.append(
                {
                    "foreground_id": pair.foreground_id,
                    "background_id": pair.background_id,
                    "interference": float(self.breakdown.pair_interference[p_idx]),
                    "weight": float(self.breakdown.pair_weights[p_idx]),
                    "focr": focr_by_pair[(pair.foreground_id, pair.background_id)],
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
            "config": self.config,
            "seed": self.seed,
        }


def build_metric_report(
    field: AttentionField,
    scene: SceneSpec,
    cfg: GuidanceConfig,
    stage: int,
    rel_threshold: float,
    config_echo: dict,
    seed: int,
) -> MetricReport:
    """Evaluate a field end to end: stage losses, layout mIoU, and occlusion coverage."""
    pairs = derive_occlusion_pairs(scene)
    return MetricReport(
        scene=scene,
        breakdown=staged_loss(field, scene, pairs, cfg, stage),
        miou=layout_miou(field, scene, rel_threshold),
        focr=focr(field, scene, pairs),
        config=config_echo,
        seed=seed,
    )
