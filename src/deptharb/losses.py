"""Guidance losses, the staged objective, and closed-form gradients.

Three terms drive the guidance:

* alignment: sum_i d_i * (1 - f_i)^2, where f_i = e_in / (e_in + e_out + eps)
  is the fraction of object i's attention energy inside its box mask;
* orthogonality: sum over occlusion pairs (i fg, j bg) of
  lambda_ij * I_{i<-j}, with interference I = sum(A_j * M_i) / (sum(M_i) + eps)
  and depth-aware weight lambda_ij = lambda0 * exp(alpha * (d_j - d_i) / tau);
* compactness: sum_i d_i * Var_i, the second spatial moment of the
  probability-normalized map around its attention-weighted mean.

Stage 1 optimizes all three (orthogonality and compactness scaled by their
config weights); stage 2 drops the orthogonality term from the total and the
gradient but still reports it diagnostically.

This module holds the one production definition of the objective: one
kernel, `value_and_grad`, produces the values and the gradient together
from a per-run `_Plan`; the derivations live in its docstring.  One
gathered pass gives every in-box sum and every pair's interference sum,
and every per-run constant the kernel reads (gather indices, depth and
epsilon products, scratch) lives in the plan, so a step does only
step-dependent arithmetic.  The run loop and `gradcheck` call it
directly; `staged_loss` is its values-only view for scoring and for
callers outside the package.  Gradients are hand-derived closed forms
rather than autodiff, and the literal term definitions they are checked
against live apart, in `gradcheck`, so the finite-difference oracle is a
genuinely independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import AttentionField, check_alignment
from .scene import (
    ConfigError,
    GuidanceConfig,
    OcclusionPair,
    SceneSpec,
    box_indicators,
    box_span,
    pixel_centers,
)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term loss values with the diagnostics every term is built from."""

    stage: int
    align: float
    ortho: float
    compact: float
    total: float
    f: np.ndarray          # (K,) alignment ratios
    e_in: np.ndarray       # (K,) in-box energies
    e_out: np.ndarray      # (K,) out-of-box energies
    mu: np.ndarray         # (K, 2) spatial means (x, y)
    var: np.ndarray        # (K,) spatial second moments
    pairs: tuple[OcclusionPair, ...]
    pair_interference: np.ndarray  # (P,) I values
    pair_weights: np.ndarray       # (P,) lambda_ij values

    def mean_interference(self) -> float | None:
        if len(self.pair_interference) == 0:
            return None
        return float(np.mean(self.pair_interference))

    def mean_var(self) -> float:
        return float(np.mean(self.var))


# ---------------------------------------------------------------------------
# pair weights and the stage total
# ---------------------------------------------------------------------------

def arbitration_weight(d_fg: float, d_bg: float, cfg: GuidanceConfig) -> float:
    """Depth-aware pair weight lambda0 * exp(alpha * (d_bg - d_fg) / tau).

    Raises ConfigError when the weight is not a finite number.
    """
    try:
        weight = cfg.lambda0 * math.exp(cfg.alpha * (d_bg - d_fg) / cfg.tau)
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight):
        raise ConfigError(
            f"lambda_ij = lambda0 * exp(alpha * (d_bg - d_fg) / tau) is not finite for "
            f"d_fg {d_fg:g}, d_bg {d_bg:g}, lambda0 {cfg.lambda0:g}, alpha {cfg.alpha:g}, "
            f"tau {cfg.tau:g}"
        )
    return weight


def _pair_coefficients(
    scene: SceneSpec, pairs: Sequence[OcclusionPair], cfg: GuidanceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_ij, |M_fg|, lambda_ortho * lambda_ij / (|M_fg| + eps)) of every pair, in pair order.

    Raises a ConfigError naming the pair when either coefficient is not
    finite, so a config can be checked before any field is rendered.
    """
    depths = scene.depths()
    grid = (scene.grid_height, scene.grid_width)
    weights, fg_area = np.empty(len(pairs)), np.empty(len(pairs))
    for n, pair in enumerate(pairs):
        fg, bg = scene.index_of(pair.foreground_id), scene.index_of(pair.background_id)
        try:
            weights[n] = arbitration_weight(depths[fg], depths[bg], cfg)
        except ConfigError as exc:
            raise ConfigError(
                f"occlusion pair (foreground {pair.foreground_id}, background "
                f"{pair.background_id}): {exc}"
            ) from None
        r0, r1, c0, c1 = box_span(scene.objects[fg].bbox, *grid)
        fg_area[n] = (r1 - r0) * (c1 - c0)
    with np.errstate(over="ignore"):
        coef = cfg.lambda_ortho * weights / (fg_area + cfg.epsilon)
    for pair, w, area, c in zip(pairs, weights, fg_area, coef):
        if not math.isfinite(c):
            raise ConfigError(
                f"occlusion pair (foreground {pair.foreground_id}, background "
                f"{pair.background_id}): lambda_ortho * lambda_ij / (|M_fg| + eps) is not "
                f"finite for lambda_ortho {cfg.lambda_ortho:g}, lambda_ij {w:g}, "
                f"|M_fg| {area:g}, eps {cfg.epsilon:g}"
            )
    return weights, fg_area, coef


def staged_total(align, ortho, compact, cfg: GuidanceConfig, stage: int):
    """Combine term values into the stage objective; stage 2 drops ortho."""
    if stage == 1:
        return align + cfg.lambda_ortho * ortho + cfg.lambda_compact * compact
    if stage == 2:
        return align + cfg.lambda_compact * compact
    raise ValueError(f"stage must be 1 or 2, got {stage}")


# ---------------------------------------------------------------------------
# the production objective: a per-run plan and one value-and-gradient kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """Step-invariant geometry of one (scene, pairs, cfg), built once per run.

    Box k's mask is exactly rows[k] (outer) colmat[:, 1 + k], so every masked
    sum the objective needs is a contraction of the field with these indicators.
    Every per-run constant the kernel reads is built here, and each member
    names the kernel line that reads it:

    * `gather`, `gather_rows`: `_values`' one gathered pass,
      `sums = add.reduce(gather_rows * row_dots.take(gather))`; rows 0..K-1
      pick A_k[y] . c_k (in-box sums), rows K.. pick A_bg[y] . c_fg of each
      pair (interference sums), in pair order;
    * `area_eps`: `inter = sums[K:] / area_eps`;
    * `neg2_depths`, `compact_depths`, `two_eps`: the gradient coefficients
      `a = neg2_depths * (1 - f) / D`, `q = compact_depths / D` and
      `res = two_eps / D` in `value_and_grad`; each is the first product of
      its left-to-right expression, so forming it once changes no rounding;
    * `row_dots`, `row_sum`, `col_sum`: scratch that `_values` overwrites on
      every call, the GEMM `maps @ colmat`, its column 0 (the row sums R) and
      the column sums C;
    * `columns`: per stage, views of the factors' step-dependent columns
      (U[:, :, 0], U[:, :, 1], V[:, 2]) that `value_and_grad` writes;
    * `grad`: the buffer `value_and_grad` returns, U @ V.

    No array of the breakdown `_values` returns is a view of this scratch.
    """

    cfg: GuidanceConfig
    rows: np.ndarray      # (K, H) box row indicators
    colmat: np.ndarray    # (W, 1 + K): a column of ones, then each box's column indicators
    cx: np.ndarray        # (W,) pixel-center x
    cy: np.ndarray        # (H,) pixel-center y
    depths: np.ndarray    # (K,)
    pairs: tuple[OcclusionPair, ...]
    weights: np.ndarray   # (P,) lambda_ij
    gather: np.ndarray    # (K + P, H) flat indices into row_dots
    gather_rows: np.ndarray  # (K + P, H): rows, then each pair's foreground rows
    area_eps: np.ndarray  # (P,) foreground-box pixel counts + eps
    neg2_depths: np.ndarray     # (K,) -2.0 * depths
    compact_depths: np.ndarray  # (K,) lambda_compact * depths
    two_eps: float              # 2.0 * epsilon
    row_dots: np.ndarray  # (K * H, 1 + K) scratch: row_dots[k * H + y, 1 + j] = A_k[y] . c_j
    row_sum: np.ndarray   # (K, H) view of row_dots' column 0
    col_sum: np.ndarray   # (K, W) scratch
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]  # per stage: (U, V), see _grad_factors
    columns: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # per stage
    grad: np.ndarray      # (K, H, W), the buffer value_and_grad returns


def _grad_factors(rows, cols, pair_terms) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank factors U (K, H, m) and V (K, m, W) with gradient = U @ V.

    Column 0 pairs a_k r_k with c_k, column 1 the row term with ones and
    column 2 ones with the column term: `value_and_grad` writes those three
    step-dependent entries (U[:, :, 0], U[:, :, 1], V[:, 2]) on every step.
    The remaining columns are fixed: for each (background j, foreground i,
    coef) of `pair_terms`, in order, background map j gets coef r_i (outer)
    c_i, zero-padded to the largest count per map.  Every product is exact
    (the indicators are 0/1), so the sum runs in the same order as the
    term-by-term assembly.
    """
    k, height = rows.shape
    width = cols.shape[1]
    slots: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    for j, i, coef in pair_terms:
        slots[j].append((i, coef))
    m = 3 + max(len(s) for s in slots)
    u = np.zeros((k, height, m))
    v = np.zeros((k, m, width))
    v[:, 0] = cols
    v[:, 1] = 1.0
    u[:, :, 2] = 1.0
    for j, backed in enumerate(slots):
        for n, (i, coef) in enumerate(backed):
            u[j, :, 3 + n] = coef * rows[i]
            v[j, 3 + n] = cols[i]
    return u, v


def _plan(scene: SceneSpec, pairs: Sequence[OcclusionPair], cfg: GuidanceConfig) -> _Plan:
    height, width = scene.grid_height, scene.grid_width
    k = len(scene.objects)
    boxes = [box_indicators(obj.bbox, height, width) for obj in scene.objects]
    rows = np.stack([r for r, _ in boxes])
    cols = np.stack([c for _, c in boxes])
    fg = np.array([scene.index_of(p.foreground_id) for p in pairs], dtype=np.intp)
    bg = np.array([scene.index_of(p.background_id) for p in pairs], dtype=np.intp)
    weights, fg_area, coef = _pair_coefficients(scene, pairs, cfg)
    # the gathered sum n reads map gather_maps[n] against box gather_boxes[n]:
    # every object against its own box, then each pair's background against
    # its foreground's box
    objs = np.arange(k)
    gather_maps = np.concatenate([objs, bg])
    gather_boxes = np.concatenate([objs, fg])
    gather = (gather_maps[:, None] * height + np.arange(height)) * (k + 1) + 1 + gather_boxes[:, None]
    depths = scene.depths()
    row_dots = np.empty((k * height, k + 1))
    # stage 2 drops the orthogonality gradient, so it has no pair columns
    factors = (_grad_factors(rows, cols, list(zip(bg, fg, coef))), _grad_factors(rows, cols, []))
    return _Plan(
        cfg=cfg,
        rows=rows,
        colmat=np.vstack([np.ones(width), cols]).T.copy(),
        cx=pixel_centers(width),
        cy=pixel_centers(height),
        depths=depths,
        pairs=tuple(pairs),
        weights=weights,
        gather=gather,
        gather_rows=rows[gather_boxes],
        area_eps=fg_area + cfg.epsilon,
        neg2_depths=-2.0 * depths,
        compact_depths=cfg.lambda_compact * depths,
        two_eps=2.0 * cfg.epsilon,
        row_dots=row_dots,
        row_sum=row_dots.reshape(k, height, k + 1)[:, :, 0],
        col_sum=np.empty((k, width)),
        factors=factors,
        columns=tuple((u[:, :, 0], u[:, :, 1], v[:, 2]) for u, v in factors),
        grad=np.empty((k, height, width)),
    )


def _values(maps: np.ndarray, plan: _Plan, stage: int) -> tuple[LossBreakdown, tuple]:
    """Forward half of `value_and_grad`: the breakdown and the gradient's inputs (D, x - mu_x, y - mu_y)."""
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    k, height, width = maps.shape
    d, row_sum = plan.depths, plan.row_sum

    # row_dots[k * H + y, 0] = R[k, y]; row_dots[k * H + y, 1 + j] = A_k[y] . c_j
    row_dots = np.matmul(maps.reshape(k * height, width), plan.colmat, out=plan.row_dots)
    col_sum = np.add.reduce(maps, axis=1, out=plan.col_sum)
    total = np.add.reduce(col_sum, axis=1)
    denom = total + plan.cfg.epsilon

    # one pass gives every in-box sum r_k . (A_k c_k), then every pair's
    # r_fg . (A_bg c_fg)
    sums = np.add.reduce(plan.gather_rows * row_dots.take(plan.gather), axis=1)

    # the literal sum can round past S when the box covers the whole grid
    e_in = np.minimum(sums[:k], total)
    e_out = total - e_in
    e_in = total - e_out
    f = e_in / denom
    align = np.add.reduce(d * (1.0 - f) ** 2)

    inter = sums[k:] / plan.area_eps
    ortho = np.add.reduce(plan.weights * inter)

    mu = np.empty((k, 2))
    np.divide(col_sum @ plan.cx, denom, out=mu[:, 0])
    np.divide(row_sum @ plan.cy, denom, out=mu[:, 1])
    dx = plan.cx - mu[:, :1]
    dy = plan.cy - mu[:, 1:]
    var = (np.add.reduce(col_sum * dx**2, axis=1) + np.add.reduce(row_sum * dy**2, axis=1)) / denom
    compact = np.add.reduce(d * var)

    breakdown = LossBreakdown(
        stage=stage,
        align=float(align),
        ortho=float(ortho),
        compact=float(compact),
        total=float(staged_total(align, ortho, compact, plan.cfg, stage)),
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


def value_and_grad(maps: np.ndarray, plan: _Plan, stage: int) -> tuple[LossBreakdown, np.ndarray]:
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
    columns are written here.

    The returned gradient is the plan's own buffer: the next call on the
    same plan overwrites it.
    """
    breakdown, (denom, dx, dy) = _values(maps, plan, stage)
    f, mu = breakdown.f, breakdown.mu
    a = plan.neg2_depths * (1.0 - f) / denom
    q = (plan.compact_depths / denom)[:, None]
    res = (plan.two_eps / denom)[:, None]
    u0, u1, v2 = plan.columns[stage - 1]
    np.multiply(a[:, None], plan.rows, out=u0)
    u1[...] = q * (dy * (dy - res * mu[:, 1:]) - breakdown.var[:, None]) - (a * f)[:, None]
    v2[...] = q * dx * (dx - res * mu[:, :1])
    return breakdown, np.matmul(*plan.factors[stage - 1], out=plan.grad)


def staged_loss(
    field: AttentionField,
    scene: SceneSpec,
    pairs: Sequence[OcclusionPair],
    cfg: GuidanceConfig,
    stage: int,
) -> LossBreakdown:
    """Full stage objective with diagnostics.

    The ortho term is always evaluated and reported; in stage 2 it is simply
    excluded from the total (and from the gradient).
    """
    check_alignment(field, scene)
    return _values(field.maps, _plan(scene, pairs, cfg), stage)[0]

