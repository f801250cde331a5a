"""Reference definitions the tests compare the production paths against.

Scoring reads box rectangles (`scene.box_span`) and the private rules
`metrics._winners` and `metrics._above_threshold`; these helpers spell
the same quantities out over whole (H, W) masks and fields, so a test can
check that the sliced production values equal the full-mask definitions.

`scalar_check_gradients` is the oracle's per-coordinate sampler: scalar
k, y, x draws, one scalar central difference and one judgement per
coordinate.  `gradcheck.check_gradients` draws and evaluates the same
coordinates as arrays and must return the same result, field for field.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from deptharb import AttentionError, AttentionField, GuidanceConfig, LatentState, SceneSpec
from deptharb import gradcheck
from deptharb.attention import _checked, check_alignment
from deptharb.gradcheck import CoordReport, GradCheckResult, OracleError
from deptharb.losses import _plan, value_and_grad
from deptharb.metrics import _above_threshold, _winners
from deptharb.scene import box_indicators, derive_occlusion_pairs
from deptharb.surrogate import _check_match, _surrogate


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


def judge(
    space: str, k: int, coordinate: tuple[int, ...], analytic: float, fd: float, rel_tol: float
) -> tuple[CoordReport, bool]:
    """One coordinate's report and verdict.

    The error is relative where the reference exceeds 1e-10; it passes under an absolute floor rel_tol * 1e-4.
    """
    abs_err = abs(analytic - fd)
    ref = max(abs(analytic), abs(fd))
    rel_err = abs_err / ref if ref > 1e-10 else 0.0
    ok = abs_err <= max(rel_tol * 1e-4, rel_tol * ref)
    return CoordReport(space, k, coordinate, analytic, fd, abs_err, rel_err), ok


def _absorb(result: GradCheckResult, judged: tuple[CoordReport, bool]) -> None:
    report, ok = judged
    result.checked += 1
    result.worst_rel = max(result.worst_rel, report.rel_err)
    result.worst_abs = max(result.worst_abs, report.abs_err)
    if not ok:
        result.failures.append(report)


def scalar_fd(sums, y: int, x: int, up, down, h) -> float:
    """The central difference of one entry, from two scalar `_PixelSums.loss` calls."""
    return float((sums.loss(up, y, x) - sums.loss(down, y, x)) / (2 * h))


def scalar_check_gradients(
    scene: SceneSpec,
    cfg: GuidanceConfig,
    latent: LatentState,
    stage: int,
    seed: int,
    samples: int = 1000,
    rel_tol: float = gradcheck.DEFAULT_REL_TOL,
) -> GradCheckResult:
    """`check_gradients` one coordinate at a time: draw k, y, x, difference, judge."""
    long = gradcheck.LONG
    result = GradCheckResult()
    rng = np.random.default_rng(seed)
    _check_match(latent, scene)
    surrogate = _surrogate(scene, latent.mode)
    maps = surrogate.render(latent.values)
    terms = gradcheck._object_terms(scene, cfg)
    coords = gradcheck.coord_grid(scene.grid_height, scene.grid_width, dtype=long)
    h = long(gradcheck.FD_STEP)
    grad_att = value_and_grad(maps, _plan(scene, derive_occlusion_pairs(scene), cfg), stage)[1]
    grad_lat = surrogate.chain(grad_att.copy())
    k_count, height, width = maps.shape

    def draw() -> tuple[int, int, int]:
        return int(rng.integers(k_count)), int(rng.integers(height)), int(rng.integers(width))

    def anchored(bases):
        return [gradcheck._anchored_sums(bases[k], terms[k], coords, cfg, stage) for k in range(k_count)]

    sums = anchored(maps.astype(long))
    for k, object_sums in enumerate(sums):
        if not object_sums.total >= 1e3 * gradcheck.FD_STEP:
            raise OracleError(
                f"object {k}'s map mass {float(object_sums.total):.3g} is below "
                f"1e3 x the finite-difference step {gradcheck.FD_STEP:g}"
            )
    for _ in range(samples):
        k, y, x = draw()
        a = sums[k].base[y, x]
        fd = scalar_fd(sums[k], y, x, (a + h) - a, (a - h) - a, h)
        _absorb(result, judge("attention", k, (y, x), float(grad_att[k, y, x]), fd, rel_tol))

    if latent.mode == "raster":
        logits = latent.values.astype(long)
        sums = anchored(np.exp(logits))
        for _ in range(samples):
            k, y, x = draw()
            z, a = logits[k, y, x], sums[k].base[y, x]
            fd = scalar_fd(sums[k], y, x, np.exp(z + h) - a, np.exp(z - h) - a, h)
            _absorb(result, judge("latent", k, (y, x), float(grad_lat[k, y, x]), fd, rel_tol))
    else:
        params = latent.values.astype(long)
        for k in range(k_count):
            for p in range(5):
                vals = []
                for sign in (+1, -1):
                    pert = params[k].copy()
                    pert[p] += sign * h
                    map_k = gradcheck._blob_map(pert, coords.x, coords.y)
                    vals.append(gradcheck._restricted_loss(map_k, *terms[k], coords, cfg, stage))
                fd = float((vals[0] - vals[1]) / (2 * h))
                _absorb(result, judge("latent", k, (p,), float(grad_lat[k, p]), fd, rel_tol))
    return result
