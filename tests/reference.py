"""Reference definitions the tests compare the production paths against.

Scoring reads box rectangles (`scene.box_span`) and the private rules
`metrics._winners` and `metrics._above_threshold`; these helpers spell
the same quantities out over whole (H, W) masks and fields, so a test can
check that the sliced production values equal the full-mask definitions.

`scalar_check_gradients` is the oracle's per-coordinate sampler: scalar
k, y, x draws, one scalar central difference and one judgement per
coordinate.  `gradcheck.check_gradients` draws and evaluates the same
coordinates as arrays and must return the same result, field for field.

`reference_values` and `reference_value_and_grad` are the loss kernel
with nothing hoisted into the plan: three fancy gathers for the in-box and
interference sums, and every depth and epsilon product formed on each
call.  The production kernel runs the same floating-point operations in
the same order, so it must match them bit for bit; `reference_run` is the
run loop's step sequence on that kernel, with the stage and step size
derived on every step, and `columns` stacks its per-pass breakdowns as a
trajectory holds them.
"""

from __future__ import annotations

import math
from dataclasses import fields
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from deptharb import AttentionError, AttentionField, GuidanceConfig, LatentState, SceneSpec
from deptharb import gradcheck
from deptharb.attention import _checked, check_alignment
from deptharb.gradcheck import CoordReport, GradCheckResult, OracleError
from deptharb.losses import LossBreakdown, _plan, staged_total, value_and_grad
from deptharb.metrics import _above_threshold, _winners
from deptharb.optimizer import _final_stage, stage_of, step_size
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
    A coordinate whose analytic or FD value is not finite fails.
    """
    abs_err = abs(analytic - fd)
    ref = max(abs(analytic), abs(fd))
    rel_err = abs_err / ref if ref > 1e-10 else 0.0
    ok = math.isfinite(analytic) and math.isfinite(fd) and abs_err <= max(rel_tol * 1e-4, rel_tol * ref)
    return CoordReport(space, k, coordinate, analytic, fd, abs_err, rel_err), ok


def _absorb(result: GradCheckResult, judged: tuple[CoordReport, bool]) -> None:
    report, ok = judged
    result.checked += 1
    # np.max, not max: a NaN error wins it
    result.worst_rel = float(np.max([result.worst_rel, report.rel_err]))
    result.worst_abs = float(np.max([result.worst_abs, report.abs_err]))
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
    surrogate = _surrogate(scene, latent.mode, 1)
    maps = surrogate.render(latent.values[None])
    terms = gradcheck._object_terms(scene, cfg)
    coords = gradcheck.coord_grid(scene.grid_height, scene.grid_width, dtype=long)
    h = long(gradcheck.FD_STEP)
    grad_att = value_and_grad(maps, _plan(scene, derive_occlusion_pairs(scene), [cfg]), [stage])[1]
    grad_lat = surrogate.chain(grad_att.copy())[0]
    maps, grad_att = maps[0], grad_att[0]
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


def same_bits(got, want) -> bool:
    """Equal to the bit: arrays by dtype, shape and bytes, floats by their hex form, the rest under ==."""
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    if isinstance(want, float):
        return isinstance(got, float) and got.hex() == want.hex()
    return got == want


def assert_same_breakdown(got: LossBreakdown, want: LossBreakdown) -> None:
    """Every field equal to the bit."""
    for field in fields(LossBreakdown):
        assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name


def columns(breakdowns: Sequence[LossBreakdown]) -> LossBreakdown:
    """One-pass breakdowns as a trajectory holds them: every field but `pairs` stacked, pass after pass."""
    return LossBreakdown(**{
        f.name: breakdowns[0].pairs if f.name == "pairs" else np.stack([getattr(b, f.name) for b in breakdowns])
        for f in fields(LossBreakdown)
    })


def reference_plan(scene: SceneSpec, pairs, cfg: GuidanceConfig) -> SimpleNamespace:
    """A fresh one-row `_plan` with the members the reference kernel reads besides it.

    A one-row plan's per-map and per-pair members are the (K, ...) and
    (P,) arrays of its row; `cfg` is its config, `rows` its (K, H) box row
    indicators and `grad` its (K, H, W) gradient buffer.  `fg`, `bg` and
    `fg_area` are the pair indices and foreground-box pixel counts, built as
    the plan built them.  The factors and gradient buffer are this plan's
    own, so the reference kernel writes no production plan.
    """
    plan = _plan(scene, pairs, [cfg])
    rows, cols = plan.box_rows, plan.colmat[:, 1:].T
    fg = np.array([scene.index_of(p.foreground_id) for p in pairs], dtype=np.intp)
    bg = np.array([scene.index_of(p.background_id) for p in pairs], dtype=np.intp)
    fg_area = rows[fg].sum(axis=1) * cols[fg].sum(axis=1)
    return SimpleNamespace(
        **{**vars(plan), "grad": plan.grad_stack}, cfg=cfg, rows=rows, fg=fg, bg=bg, fg_area=fg_area
    )


def reference_values(
    maps: np.ndarray, plan: SimpleNamespace, stage: int
) -> tuple[LossBreakdown, tuple]:
    """Forward half of `reference_value_and_grad`: the breakdown and the gradient's inputs (D, x - mu_x, y - mu_y)."""
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    cfg = plan.cfg
    eps = cfg.epsilon
    k, height, width = maps.shape
    r, d = plan.rows, plan.depths
    objs = np.arange(k)

    # row_dots[k, y, 0] = R[k, y]; row_dots[k, y, 1 + j] = A_k[y] . c_j
    row_dots = (maps.reshape(k * height, width) @ plan.colmat).reshape(k, height, k + 1)
    row_sum = row_dots[:, :, 0]
    col_sum = maps.sum(axis=1)
    total = col_sum.sum(axis=1)
    denom = total + eps

    # the literal sum can round past S when the box covers the whole grid
    e_in = np.minimum((r * row_dots[objs, :, 1 + objs]).sum(axis=1), total)
    e_out = total - e_in
    e_in = total - e_out
    f = e_in / denom
    align = (d * (1.0 - f) ** 2).sum()

    inter = (r[plan.fg] * row_dots[plan.bg, :, 1 + plan.fg]).sum(axis=1) / (plan.fg_area + eps)
    ortho = (plan.weights * inter).sum()

    mu = np.stack([col_sum @ plan.cx, row_sum @ plan.cy], axis=1) / denom[:, None]
    dx = plan.cx - mu[:, :1]
    dy = plan.cy - mu[:, 1:]
    var = ((col_sum * dx**2).sum(axis=1) + (row_sum * dy**2).sum(axis=1)) / denom
    compact = (d * var).sum()

    breakdown = LossBreakdown(
        stage=stage,
        align=float(align),
        ortho=float(ortho),
        compact=float(compact),
        total=float(staged_total(align, ortho, compact, cfg, stage)),
        f=f,
        e_in=e_in,
        e_out=e_out,
        mu=mu,
        var=var,
        pairs=plan.pairs,
        pair_interference=inter,
        pair_weights=plan.weights.copy(),
    )
    return breakdown, (denom, dx, dy)


def reference_value_and_grad(
    maps: np.ndarray, plan: SimpleNamespace, stage: int
) -> tuple[LossBreakdown, np.ndarray]:
    """The stage objective of a (K, H, W) field and its gradient d(total)/dA.

    With S = sum(A_k), D = S + eps, row sums R (K, H) and column sums C (K, W),
    and box k's mask M_k = r_k (outer) c_k, every term reads the same few
    reductions:
        e_in = r_k . (A_k c_k),     I_{i<-j} = r_i . (A_j c_i) / (|M_i| + eps),
        mu = (C_k . cx, R_k . cy) / D,
        Var = (C_k . (cx - mu_x)^2 + R_k . (cy - mu_y)^2) / D   (centred form).
    e_in is the literal in-box sum; then e_out = S - e_in and e_in = S - e_out.
    Whichever side holds at least half of S makes the other subtraction exact
    (Sterbenz), so e_in + e_out == S bit-exactly and a dominant e_in keeps its
    literal value.

    Gradients, per map:
    * alignment, by the quotient rule (df/dA(v) = (M(v) - f) / D):
          d[d (1 - f)^2]/dA(v) = a (M(v) - f),  a = -2 d (1 - f) / D;
    * orthogonality: I is linear in the background map,
          dI/dA_bg(v) = M_fg(v) / (|M_fg| + eps), and nothing for the foreground;
    * compactness: for a fixed per-pixel g, G = sum(A g) / D has
      dG/dA(v) = (g(v) - G) / D; chaining through mu gives
          dVar/dA(v) = (|p(v) - mu|^2 - Var) / D - 2 (p(v) - mu) . mu eps / D^2,
      the last part an eps-order residual of the normalization
      (sum(A / D) = S / D), kept so the gradient matches finite differences at
      full precision.
    Each map's gradient is thus a_k r_k (outer) c_k + row_k(y) + col_k(x),
    plus one outer product per stage-1 pair: one product of the plan's
    low-rank factors (`_grad_factors`), of which only the three step-dependent
    columns are written here.  Stage 2, which has no pair terms, multiplies
    contiguous copies of those three columns.

    The returned gradient is the plan's own buffer: the next call on the
    same plan overwrites it.
    """
    breakdown, (denom, dx, dy) = reference_values(maps, plan, stage)
    cfg, d, f, mu = plan.cfg, plan.depths, breakdown.f, breakdown.mu
    a = -2.0 * d * (1.0 - f) / denom
    q = (cfg.lambda_compact * d / denom)[:, None]
    res = (2.0 * cfg.epsilon / denom)[:, None]
    u, v = plan.factors
    np.multiply(a[:, None], plan.rows, out=u[:, :, 0])
    u[:, :, 1] = q * (dy * (dy - res * mu[:, 1:]) - breakdown.var[:, None]) - (a * f)[:, None]
    v[:, 2] = q * dx * (dx - res * mu[:, :1])
    if stage == 2:
        u, v = u[:, :, :3].copy(), v[:, :3].copy()
    return breakdown, np.matmul(u, v, out=plan.grad)


def reference_run(scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState) -> tuple[np.ndarray, LossBreakdown]:
    """(eta, terms) of a run on the reference kernel, as a trajectory holds them.

    The run loop's sequence without its finiteness guards: render, the
    values and gradient, chain to the latent, z - eta * g; the last pass
    evaluates values only.
    """
    plan = reference_plan(scene, derive_occlusion_pairs(scene), cfg)
    surrogate = _surrogate(scene, latent0.mode, 1)
    z = latent0.values.copy()
    etas, passes = [], []
    for t in range(cfg.total_steps + 1):
        last = t == cfg.total_steps
        stage = _final_stage(cfg) if last else stage_of(t, cfg)
        etas.append(step_size(t, cfg))
        maps = surrogate.render(z[None])[0]
        if last:
            passes.append(reference_values(maps, plan, stage)[0])
            break
        breakdown, grad = reference_value_and_grad(maps, plan, stage)
        passes.append(breakdown)
        z = z - etas[-1] * surrogate.chain(grad[None])[0]
    return np.array(etas), columns(passes)
