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
from a per-run `_Plan`; the derivations live in its docstring.  The run
loop and `gradcheck` call it directly; `staged_loss` is its values-only
view for scoring and for callers outside the package.  Gradients
are hand-derived closed forms rather than autodiff, and the literal term
definitions they are checked against live apart, in `gradcheck`, so the
finite-difference oracle is a genuinely independent check.
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


def _pair_weights(scene: SceneSpec, pairs: Sequence[OcclusionPair], cfg: GuidanceConfig) -> list[float]:
    """lambda_ij of every pair, in pair order; a ConfigError names the pair it is for."""
    depths = scene.depths()
    weights = []
    for pair in pairs:
        try:
            weights.append(
                arbitration_weight(
                    depths[scene.index_of(pair.foreground_id)],
                    depths[scene.index_of(pair.background_id)],
                    cfg,
                )
            )
        except ConfigError as exc:
            raise ConfigError(
                f"occlusion pair (foreground {pair.foreground_id}, background "
                f"{pair.background_id}): {exc}"
            ) from None
    return weights


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

    Box k's mask is exactly rows[k] (outer) cols[k], so every masked sum the
    objective needs is a contraction of the field with these indicators.
    The gradient scratch is part of the plan: `value_and_grad` overwrites
    the factors' step-dependent columns and the buffer on every call.
    """

    cfg: GuidanceConfig
    rows: np.ndarray      # (K, H) box row indicators
    cols: np.ndarray      # (K, W) box column indicators
    colmat: np.ndarray    # (W, 1 + K): a column of ones, then every box's cols
    cx: np.ndarray        # (W,) pixel-center x
    cy: np.ndarray        # (H,) pixel-center y
    depths: np.ndarray    # (K,)
    pairs: tuple[OcclusionPair, ...]
    fg: np.ndarray        # (P,) foreground object indices
    bg: np.ndarray        # (P,) background object indices
    weights: np.ndarray   # (P,) lambda_ij
    fg_area: np.ndarray   # (P,) foreground-box pixel counts
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]  # per stage: (U, V), see _grad_factors
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
    boxes = [box_indicators(obj.bbox, height, width) for obj in scene.objects]
    rows = np.stack([r for r, _ in boxes])
    cols = np.stack([c for _, c in boxes])
    fg = np.array([scene.index_of(p.foreground_id) for p in pairs], dtype=np.intp)
    bg = np.array([scene.index_of(p.background_id) for p in pairs], dtype=np.intp)
    weights = np.array(_pair_weights(scene, pairs, cfg), dtype=np.float64)
    fg_area = rows[fg].sum(axis=1) * cols[fg].sum(axis=1)
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
    return _Plan(
        cfg=cfg,
        rows=rows,
        cols=cols,
        colmat=np.vstack([np.ones(width), cols]).T.copy(),
        cx=pixel_centers(width),
        cy=pixel_centers(height),
        depths=scene.depths(),
        pairs=tuple(pairs),
        fg=fg,
        bg=bg,
        weights=weights,
        fg_area=fg_area,
        # stage 2 drops the orthogonality gradient, so it has no pair columns
        factors=(_grad_factors(rows, cols, list(zip(bg, fg, coef))), _grad_factors(rows, cols, [])),
        grad=np.empty((len(scene.objects), height, width)),
    )


def _values(maps: np.ndarray, plan: _Plan, stage: int) -> tuple[LossBreakdown, tuple]:
    """Forward half of `value_and_grad`: the breakdown and the gradient's inputs (D, x - mu_x, y - mu_y)."""
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
    cfg, d, f, mu = plan.cfg, plan.depths, breakdown.f, breakdown.mu
    a = -2.0 * d * (1.0 - f) / denom
    q = (cfg.lambda_compact * d / denom)[:, None]
    res = (2.0 * cfg.epsilon / denom)[:, None]
    u, v = plan.factors[stage - 1]
    np.multiply(a[:, None], plan.rows, out=u[:, :, 0])
    u[:, :, 1] = q * (dy * (dy - res * mu[:, 1:]) - breakdown.var[:, None]) - (a * f)[:, None]
    v[:, 2] = q * dx * (dx - res * mu[:, :1])
    return breakdown, np.matmul(u, v, out=plan.grad)


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

