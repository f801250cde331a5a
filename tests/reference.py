"""Reference definitions the tests compare the production paths against.

Scoring reads box rectangles (`scene.box_span`) and the private rules
`metrics._winners` and `metrics._above_threshold`; these helpers spell
the same quantities out over whole (H, W) masks and fields, so a test can
check that the sliced production values equal the full-mask definitions.

`scalar_check_gradients` is the oracle's per-coordinate sampler: scalar
k, y, x draws, one scalar central difference of each summand, staged
(`per_term_fd`), and one judgement per coordinate.  `gradcheck.check_gradients` draws and evaluates the same
coordinates as arrays and must return the same result, field for field.

`reference_values` and `reference_value_and_grad` are the loss kernel
with nothing hoisted into the plan: three fancy gathers for the in-box and
interference sums, and every depth and epsilon product formed on each
call.  They read a dense field's reductions (`dense_reductions`);
`reduced_values` and `reduced_factors` are the same kernel from any
reductions, the latter ending in the gradient's low-rank factors (U, V).
The production kernel runs the same floating-point operations in the same
order, so it must match them bit for bit; `reference_run` is the run loop's
step sequence on that kernel, with the stage and step size derived on
every step, and `columns` stacks its per-pass breakdowns as a trajectory
holds them.  `stage_of`, `final_stage` and `step_size` are the stage and
step-size rules written per step, which `optimizer._schedule` builds as
columns.

`reference_blob_render`, `reference_blob_reduce` and `reference_blob_chain`
are the blob surrogate's render, reductions and chain rule, which read its
rank-one maps through their 1-D factors, with a fresh array for every
intermediate.  `surrogate._Blob` writes the same floating-point operations,
in the same order, into buffers it allocates once, so it must match them
bit for bit.  `dense_reductions` of the rendered field and
`dense_blob_chain` of a dense dL/dA = U @ V are the definitions they
rewrite, which they match to rounding.
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
from deptharb.losses import LossBreakdown, _plan, _product_views, staged_total, value_and_grad
from deptharb.metrics import _above_threshold, _winners
from deptharb.scene import derive_occlusion_pairs, pixel_centers
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
    """Rasterize a normalized box to a binary (height, width) float64 mask.

    A pixel is inside iff its centre lies in [x_min, x_max) x [y_min, y_max).
    """
    x0, y0, x1, y1 = bbox
    cx, cy = pixel_centers(width), pixel_centers(height)
    return np.outer((cy >= y0) & (cy < y1), (cx >= x0) & (cx < x1)).astype(np.float64)


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
) -> tuple[CoordReport, bool, bool]:
    """One coordinate's report, verdict, and whether the absolute floor judged it.

    The error is relative where the reference exceeds 1e-10 or is NaN; it passes under an absolute floor rel_tol * 1e-4,
    which judges the coordinate when both values are finite and the reference is at most 1e-4.
    A coordinate whose analytic or FD value is not finite fails.
    """
    abs_err = abs(analytic - fd)
    ref = max(abs(analytic), abs(fd))
    rel_err = abs_err / ref if not ref <= 1e-10 else 0.0
    finite = math.isfinite(analytic) and math.isfinite(fd)
    ok = finite and abs_err <= max(rel_tol * 1e-4, rel_tol * ref)
    return CoordReport(space, k, coordinate, analytic, fd, abs_err, rel_err), ok, finite and ref <= 1e-4


def _absorb(result: GradCheckResult, judged: tuple[CoordReport, bool, bool]) -> None:
    report, ok, floored = judged
    result.checked += 1
    # np.max, not max: a NaN error wins it; the worst relative error skips what the floor judges
    if floored:
        result.floored += 1
    else:
        result.worst_rel = float(np.max([result.worst_rel, report.rel_err]))
    result.worst_abs = float(np.max([result.worst_abs, report.abs_err]))
    if not ok:
        result.failures.append(report)


def per_term_fd(up_terms, down_terms, h, stage: int) -> float:
    """The central difference at `stage` of two (align, [ortho per pair], compact) triples.

    Each summand is differenced on its own, then the differences are staged.
    """
    (align_up, ortho_up, compact_up), (align_down, ortho_down, compact_down) = up_terms, down_terms
    diffs = (align_up - align_down, [u - d for u, d in zip(ortho_up, ortho_down)], compact_up - compact_down)
    return float(gradcheck._staged(diffs, stage) / (2 * h))


def scalar_fd(sums, y: int, x: int, up, down, h, stage: int) -> float:
    """The central difference of one entry at `stage`, from two scalar `_PixelSums.terms` calls."""
    return per_term_fd(sums.terms(up, y, x), sums.terms(down, y, x), h, stage)


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
    surrogate.render(latent.values[None])
    maps = surrogate.field()
    terms = gradcheck._object_terms(scene, cfg)
    coords = gradcheck.coord_grid(scene.grid_height, scene.grid_width, dtype=long)
    h = long(gradcheck.FD_STEP)
    plan = _plan(scene, derive_occlusion_pairs(scene), [cfg])
    grad_att = value_and_grad(maps, plan, [stage])[1]
    buffer = np.empty_like(grad_att[0])
    grad_lat = surrogate.chain(_product_views(plan, [stage], 0, len(buffer), buffer), buffer)
    grad_lat = grad_lat.reshape(latent.values.shape)
    maps, grad_att = maps[0], grad_att[0]
    k_count, height, width = maps.shape

    def draw() -> tuple[int, int, int]:
        return int(rng.integers(k_count)), int(rng.integers(height)), int(rng.integers(width))

    def anchored(bases):
        sums = [gradcheck._PixelSums(bases[k], *terms[k], coords, cfg) for k in range(k_count)]
        literals = [gradcheck._restricted_terms(bases[k], *terms[k], coords, cfg) for k in range(k_count)]
        gradcheck._check_anchors(sums, literals, stage)
        return sums

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
        fd = scalar_fd(sums[k], y, x, (a + h) - a, (a - h) - a, h, stage)
        _absorb(result, judge("attention", k, (y, x), float(grad_att[k, y, x]), fd, rel_tol))

    if latent.mode == "raster":
        logits = latent.values.astype(long)
        sums = anchored(np.exp(logits))
        for _ in range(samples):
            k, y, x = draw()
            z, a = logits[k, y, x], sums[k].base[y, x]
            fd = scalar_fd(sums[k], y, x, np.exp(z + h) - a, np.exp(z - h) - a, h, stage)
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
                    vals.append(gradcheck._restricted_terms(map_k, *terms[k], coords, cfg))
                fd = per_term_fd(*vals, h, stage)
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
    the plan built them.  The plan is a fresh one and the gradient buffer
    is allocated here, so the reference kernel writes no other plan's
    factors.
    """
    plan = _plan(scene, pairs, [cfg])
    rows, cols = plan.box_rows, plan.colmat[:, 1:].T
    fg = np.array([scene.index_of(p.foreground_id) for p in pairs], dtype=np.intp)
    bg = np.array([scene.index_of(p.background_id) for p in pairs], dtype=np.intp)
    fg_area = rows[fg].sum(axis=1) * cols[fg].sum(axis=1)
    return SimpleNamespace(
        **vars(plan), cfg=cfg, rows=rows, fg=fg, bg=bg, fg_area=fg_area,
        grad=np.empty((len(rows), scene.grid_height, scene.grid_width)),
    )


def dense_reductions(maps: np.ndarray, colmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row_dots, col_sum) of a (K, H, W) field: row_dots[k, y, 0] = R[k, y], row_dots[k, y, 1 + j] = A_k[y] . c_j."""
    return maps @ colmat, maps.sum(axis=1)


def reference_values(
    maps: np.ndarray, plan: SimpleNamespace, stage: int
) -> tuple[LossBreakdown, tuple]:
    """Forward half of `reference_value_and_grad`: the breakdown and the gradient's inputs (D, x - mu_x, y - mu_y)."""
    return reduced_values(dense_reductions(maps, plan.colmat), plan, stage)


def reduced_values(reductions: tuple, plan: SimpleNamespace, stage: int) -> tuple[LossBreakdown, tuple]:
    """`reference_values` of the field whose (row_dots, col_sum) are `reductions`."""
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    cfg = plan.cfg
    eps = cfg.epsilon
    row_dots, col_sum = reductions
    r, d = plan.rows, plan.depths
    objs = np.arange(len(row_dots))

    row_sum = row_dots[:, :, 0]
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
    breakdown, (u, v) = reduced_factors(dense_reductions(maps, plan.colmat), plan, stage)
    return breakdown, np.matmul(u, v, out=plan.grad)


def reduced_factors(reductions: tuple, plan: SimpleNamespace, stage: int) -> tuple[LossBreakdown, tuple]:
    """The breakdown of the field whose (row_dots, col_sum) are `reductions`, and the factors (U, V) of its gradient.

    U and V are the plan's own, with their three step-dependent columns
    written: all their columns at stage 1, contiguous copies of the first
    three at stage 2.
    """
    breakdown, (denom, dx, dy) = reduced_values(reductions, plan, stage)
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
    return breakdown, (u, v)


def stage_of(step: int, cfg: GuidanceConfig) -> int:
    """Stage 1 iff step < floor(stage1_fraction * total_steps), else stage 2."""
    return 1 if step < math.floor(cfg.stage1_fraction * cfg.total_steps) else 2


def final_stage(cfg: GuidanceConfig) -> int:
    """The end state's stage: the last step's, or with no step, stage 1 iff stage1_fraction > 0."""
    if cfg.total_steps >= 1:
        return stage_of(cfg.total_steps - 1, cfg)
    return 1 if cfg.stage1_fraction > 0 else 2


def step_size(step: int, cfg: GuidanceConfig) -> float:
    """The geometric schedule eta0 * eta_decay^step."""
    return cfg.eta0 * cfg.eta_decay**step


def reference_run(
    scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState
) -> tuple[np.ndarray, LossBreakdown, np.ndarray, np.ndarray]:
    """(eta, terms, final latent, final field) of a run on the reference kernel, as a trajectory holds them.

    The run loop's sequence without its finiteness guards or its tiles:
    render, the reductions, the values and the gradient's factors (U, V),
    chain to the latent, z - eta * g; the last pass evaluates values only.
    A raster field is reduced densely and chained as (U @ V) * A; a blob
    latent is rendered, reduced and chained through its factors.
    """
    plan = reference_plan(scene, derive_occlusion_pairs(scene), cfg)
    z = latent0.values.copy()
    etas, passes = [], []
    for t in range(cfg.total_steps + 1):
        last = t == cfg.total_steps
        stage = final_stage(cfg) if last else stage_of(t, cfg)
        etas.append(step_size(t, cfg))
        maps, reductions, chain = reference_render(latent0.mode, z, plan)
        if last:
            passes.append(reduced_values(reductions, plan, stage)[0])
            break
        breakdown, factors = reduced_factors(reductions, plan, stage)
        passes.append(breakdown)
        z = z - etas[-1] * chain(*factors)
    return np.array(etas), columns(passes), z, maps


def reference_render(mode: str, z: np.ndarray, plan: SimpleNamespace) -> tuple:
    """(field, reductions, chain) of one row's latent z of `mode` on a `reference_plan`'s scene.

    `chain(u, v)` is the latent gradient whose dL/dA is u @ v: (u @ v) * A
    for a raster latent, `reference_blob_chain` for a blob one, whose field
    is also reduced through its factors.
    """
    if mode == "raster":
        maps = np.exp(z)
        return maps, dense_reductions(maps, plan.colmat), lambda u, v: np.matmul(u, v) * maps
    maps, factors = reference_blob_render(z, *plan.grad.shape[1:])
    chain = lambda u, v: reference_blob_chain(factors, [(u, v)])  # noqa: E731
    return maps, reference_blob_reduce(factors, plan.colmat), chain


def reference_blob_render(values: np.ndarray, height: int, width: int) -> tuple[np.ndarray, SimpleNamespace]:
    """The (..., H, W) field of a blob latent (..., 5), g_y (x) g_x map by map, and its factors.

    The factors, one line per map of the stack: g_y (amplitude included)
    and g_x, `left` = [g_y, g_y v, g_y v^2] (n, 3, H), `right` =
    [g_x, g_x u, g_x u^2] (n, W, 3), and the sigmas sx and sy.
    """
    # (n, 1) columns against the (W,) and (H,) centres give (n, W) and (n, H)
    cx, cy, lsx, lsy, la = values.reshape(-1, 5).T[:, :, None]
    dx, dy = pixel_centers(width) - cx, pixel_centers(height) - cy
    sx, sy = np.exp(lsx), np.exp(lsy)
    gx = np.exp(-(dx**2 / (2 * sx**2)))
    gy = np.exp(la) * np.exp(-(dy**2 / (2 * sy**2)))
    maps = (gy[:, :, None] * gx[:, None, :]).reshape(*values.shape[:-1], height, width)
    u, v = dx / sx, dy / sy
    factors = SimpleNamespace(
        gy=gy, gx=gx, left=np.stack((gy, gy * v, gy * v**2), axis=1), right=np.stack((gx, gx * u, gx * u**2), axis=2),
        sx=sx[:, 0], sy=sy[:, 0],
    )
    return maps, factors


def reference_blob_reduce(factors: SimpleNamespace, colmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`dense_reductions` of a `reference_blob_render`'s maps, from their factors.

    row_dots = g_y (x) (g_x @ colmat), one (1, W) @ (W, 1 + K) product per
    map, and col_sum = (sum g_y) g_x.
    """
    gy, gx = factors.gy, factors.gx
    return gy[:, :, None] * (gx[:, None, :] @ colmat), gy.sum(axis=1)[:, None] * gx


def _partials(r: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """The five partials of each map's r = left @ dL/dA @ right (see `surrogate._Blob.chain`)."""
    return np.stack((r[:, 0, 1] / sx, r[:, 1, 0] / sy, r[:, 0, 2], r[:, 2, 0], r[:, 0, 0]), axis=1)


def reference_blob_chain(factors: SimpleNamespace, products, lo: int = 0) -> np.ndarray:
    """dL/d(cx, cy, lsx, lsy, la) (n, 5) of maps lo, lo + 1, ... of a `reference_blob_render`.

    products holds the (U, V) factors of their dL/dA = U @ V, one pair per
    run of consecutive maps, in order: r = (left @ U) @ (V @ right).
    """
    rs, start = [], lo
    for u, v in products:
        end = start + len(u)
        rs.append((factors.left[start:end] @ u) @ (v @ factors.right[start:end]))
        start = end
    return _partials(np.concatenate(rs), factors.sx[lo:start], factors.sy[lo:start])


def dense_blob_chain(factors: SimpleNamespace, grad: np.ndarray, lo: int = 0) -> np.ndarray:
    """The partials of `reference_blob_chain` from the dense dL/dA (n, H, W): r = (left @ dL/dA) @ right."""
    end = lo + len(grad)
    r = (factors.left[lo:end] @ grad) @ factors.right[lo:end]
    return _partials(r, factors.sx[lo:end], factors.sy[lo:end])
