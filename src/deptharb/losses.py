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
from a per-run `_Plan`; the derivations live in its docstring.  The kernel
has a leading row axis: it evaluates B configs at once on a (B, K, H, W)
field, one row per config (the values of a sweep), and a single run is
B = 1.  One gathered pass gives every in-box sum and every pair's
interference sum of every row, and every per-run constant the kernel reads
(gather indices, depth and epsilon products, scratch) lives in the plan,
so a step does only step-dependent arithmetic.  The run loop and
`gradcheck` call it directly; `staged_loss` is its one-row, values-only
view for scoring and for callers outside the package.  Gradients are
hand-derived closed forms rather than autodiff, and the literal term
definitions they are checked against live apart, in `gradcheck`, so the
finite-difference oracle is a genuinely independent check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
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
    """Per-term loss values with the diagnostics every term is built from.

    The shapes below are `staged_loss`'s: one evaluation, scalar terms.  A
    kernel call's fields but `pairs` carry a leading row axis (`stage` is the
    tuple of row stages), a trajectory's a leading pass axis; `take` indexes them.
    """

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

    def take(self, index) -> LossBreakdown:
        """Every field but `pairs` indexed by `index`; a field that becomes one number is a Python scalar."""
        def pick(values):
            picked = np.asarray(values)[index]
            return picked.item() if picked.ndim == 0 else picked

        return replace(self, **{name: pick(getattr(self, name)) for name in _INDEXED})


# the fields that carry a kernel call's row axis or a trajectory's pass axis
_INDEXED = tuple(f.name for f in fields(LossBreakdown) if f.name != "pairs")


def _stacked(breakdowns: Sequence[LossBreakdown]) -> LossBreakdown:
    """One breakdown whose every field but `pairs` stacks the given ones' along a new leading axis."""
    return replace(breakdowns[0], **{name: np.array([getattr(b, name) for b in breakdowns]) for name in _INDEXED})


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
    # Python floats: their division overflows to inf silently, as numpy scalars' does not
    depths = scene.depths().tolist()
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
    """Step-invariant geometry of one (scene, pairs) and B row configs, built once per run.

    The kernel reads a (B, K, H, W) field as one stack of B * K maps, row
    after row (map m = b * K + k), so it runs a single row's operations on
    arrays B times as long; only the per-row sums (align, ortho, compact)
    reduce a (B, K) or (B, P) view.  The geometry is shared by every row;
    what a config sets (pair coefficients, epsilon, compactness weight) is
    laid out per map or per pair, row after row.  Every reduction and BLAS
    product runs within one map or one row, as a lone row's would, so row
    b's numbers are bit for bit those of a B = 1 plan of `cfgs[b]`.

    Box k's mask is exactly box_rows[k] (outer) colmat[:, 1 + k], so every
    masked sum the objective needs is a contraction of the field with these
    indicators.
    Every per-run constant the kernel reads is built here, and each member
    names the kernel line that reads it:

    * `gather`, `gather_rows`: `_values`' one gathered pass,
      `sums = add.reduce(gather_rows * row_dots.take(gather), axis=1)`;
      entries 0..B*K-1 pick A_m[y] . c_k of every map (in-box sums), the
      rest A_bg[y] . c_fg of every row's pairs (interference sums), in pair
      order;
    * `eps`: `denom = total + eps`;
    * `area_eps`: `inter = sums[B * K:] / area_eps`;
    * `depths`, `weights`: the terms' weights d_k and lambda_ij;
    * `neg2_depths`, `compact_depths`, `two_eps`: the gradient coefficients
      `a = neg2_depths * (1 - f) / D`, `q = compact_depths / D` and
      `res = two_eps / D` in `value_and_grad`; each is the first product of
      its left-to-right expression, so forming it once changes no rounding;
    * `box_rows`: `U[:, :, 0] = a * box_rows`, each map's box row
      indicators, the first B * K rows of `gather_rows`;
    * `row_dots`, `row_sum`, `col_sum`: scratch that `_values` overwrites on
      every call, one GEMM `(K * H, W) @ colmat` per row, its column 0 (the
      row sums R) and the column sums C;
    * `factors`, `columns`: the gradient's low-rank factors over all B * K
      maps and views of their step-dependent columns (U[:, :, 0],
      U[:, :, 1], V[:, 2]), that `value_and_grad` writes;
    * `grad`, `grad_stack`: the buffer `value_and_grad` returns, U @ V, and
      its (B * K, H, W) view;
    * `products`: per tuple of row stages, what `_products` returns for it.

    No array of the breakdown `_values` returns is a view of this scratch;
    its `pair_weights` is a view of `weights`, which no call writes.
    """

    cfgs: tuple[GuidanceConfig, ...]  # (B,) one config per row
    colmat: np.ndarray    # (W, 1 + K): a column of ones, then each box's column indicators
    cx: np.ndarray        # (W,) pixel-center x
    cy: np.ndarray        # (H,) pixel-center y
    depths: np.ndarray    # (B * K,) each map's depth
    pairs: tuple[OcclusionPair, ...]
    weights: np.ndarray   # (B * P,) lambda_ij
    gather: np.ndarray    # (B * (K + P), H) flat indices into row_dots
    gather_rows: np.ndarray  # (B * (K + P), H): each map's box rows, then each pair's foreground rows
    box_rows: np.ndarray  # (B * K, H) view of gather_rows
    eps: np.ndarray       # (B * K,) epsilon
    area_eps: np.ndarray  # (B * P,) foreground-box pixel counts + eps
    neg2_depths: np.ndarray     # (B * K,) -2.0 * depths
    compact_depths: np.ndarray  # (B * K,) lambda_compact * depths
    two_eps: np.ndarray         # (B * K,) 2.0 * epsilon
    row_dots: np.ndarray  # (B, K * H, 1 + K) scratch: row_dots[b, k * H + y, 1 + j] = A_bk[y] . c_j
    row_sum: np.ndarray   # (B * K, H) view of row_dots' column 0
    col_sum: np.ndarray   # (B * K, W) scratch
    factors: tuple[np.ndarray, np.ndarray]  # (U, V), see _grad_factors
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]  # (U[:, :, 0], U[:, :, 1], V[:, 2])
    grad: np.ndarray      # (B, K, H, W), the buffer value_and_grad returns
    grad_stack: np.ndarray  # (B * K, H, W) view of grad
    products: dict        # stages tuple -> _products(plan, stages), filled on first use


def _grad_factors(rows, cols, pair_terms, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank factors U (B * K, H, m) and V (B * K, m, W) with gradient = U @ V, map after map.

    Column 0 pairs a_k r_k with c_k, column 1 the row term with ones and
    column 2 ones with the column term: `value_and_grad` writes those three
    step-dependent entries (U[:, :, 0], U[:, :, 1], V[:, 2]) on every step.
    The remaining columns are fixed: for each (background j, foreground i,
    coef) of `pair_terms`, in order, background map j gets coef r_i (outer)
    c_i, zero-padded to the largest count per map; coef holds one value per
    row.  Every product is exact (the indicators are 0/1), so the sum runs
    in the same order as the term-by-term assembly; stage 2, which has no
    pair terms, multiplies U[..., :3] @ V[:, :3].
    """
    k, height = rows.shape
    width = cols.shape[1]
    slots: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(k)]
    for j, i, coef in pair_terms:
        slots[j].append((i, coef))
    m = 3 + max(len(s) for s in slots)
    u = np.zeros((batch, k, height, m))
    v = np.zeros((batch, k, m, width))
    v[:, :, 0] = cols
    v[:, :, 1] = 1.0
    u[..., 2] = 1.0
    for j, backed in enumerate(slots):
        for n, (i, coef) in enumerate(backed):
            u[:, j, :, 3 + n] = coef[:, None] * rows[i]
            v[:, j, 3 + n] = cols[i]
    return u.reshape(batch * k, height, m), v.reshape(batch * k, m, width)


def _plan(scene: SceneSpec, pairs: Sequence[OcclusionPair], cfgs: Sequence[GuidanceConfig]) -> _Plan:
    """The plan of B = len(cfgs) rows, one per config."""
    if not cfgs:
        raise ValueError("a plan needs at least one row config")
    height, width = scene.grid_height, scene.grid_width
    k, batch = len(scene.objects), len(cfgs)
    boxes = [box_indicators(obj.bbox, height, width) for obj in scene.objects]
    rows = np.stack([r for r, _ in boxes])
    cols = np.stack([c for _, c in boxes])
    fg = np.array([scene.index_of(p.foreground_id) for p in pairs], dtype=np.intp)
    bg = np.array([scene.index_of(p.background_id) for p in pairs], dtype=np.intp)
    # rows are checked in order: the first whose pair coefficients are not
    # finite raises, naming its pair
    coefficients = [_pair_coefficients(scene, pairs, cfg) for cfg in cfgs]
    fg_area = coefficients[0][1]  # geometry: the same in every row
    coef = np.array([c for _, _, c in coefficients])
    # the gathered sum n reads map gather_maps[n] against box gather_boxes[n]:
    # every map against its own box, then each pair's background against
    # its foreground's box, row after row
    first = np.arange(batch)[:, None] * k  # each row's first map
    objs = np.arange(batch * k) % k  # each map's object
    gather_maps = np.concatenate([np.arange(batch * k), (first + bg).ravel()])
    gather_boxes = np.concatenate([objs, *[fg] * batch])
    gather = (gather_maps[:, None] * height + np.arange(height)) * (k + 1) + 1 + gather_boxes[:, None]
    gather_rows = rows[gather_boxes]
    depths = scene.depths()[objs]
    row_eps = np.array([cfg.epsilon for cfg in cfgs])
    eps = np.repeat(row_eps, k)
    # 2 * eps is inf above half the float range: a non-finite gradient, which the run loop reports
    with np.errstate(over="ignore"):
        two_eps = 2.0 * eps
    row_dots = np.empty((batch, k * height, k + 1))
    grad = np.empty((batch, k, height, width))
    u, v = _grad_factors(rows, cols, list(zip(bg, fg, coef.T)), batch)
    return _Plan(
        cfgs=tuple(cfgs),
        colmat=np.vstack([np.ones(width), cols]).T.copy(),
        cx=pixel_centers(width),
        cy=pixel_centers(height),
        depths=depths,
        pairs=tuple(pairs),
        weights=np.concatenate([weights for weights, _, _ in coefficients]),
        gather=gather,
        gather_rows=gather_rows,
        box_rows=gather_rows[: batch * k],
        eps=eps,
        area_eps=(fg_area + row_eps[:, None]).ravel(),
        neg2_depths=-2.0 * depths,
        compact_depths=np.repeat([cfg.lambda_compact for cfg in cfgs], k) * depths,
        two_eps=two_eps,
        row_dots=row_dots,
        row_sum=row_dots.reshape(batch * k, height, k + 1)[:, :, 0],
        col_sum=np.empty((batch * k, width)),
        factors=(u, v),
        columns=(u[:, :, 0], u[:, :, 1], v[:, 2]),
        grad=grad,
        grad_stack=grad.reshape(batch * k, height, width),
        products={},
    )


def _values(maps: np.ndarray, plan: _Plan, stages: Sequence[int]) -> tuple[LossBreakdown, tuple]:
    """Forward half of `value_and_grad`: the rows' breakdown, row b at stages[b], and the gradient's inputs.

    The inputs are (D, f, mu, Var, x - mu_x, y - mu_y), one entry per map.
    """
    batch, k, height, width = maps.shape
    n_maps, n_pairs = batch * k, len(plan.pairs)
    d, row_sum = plan.depths, plan.row_sum

    # row_dots[b, k * H + y, 0] = R[b * K + k, y]; row_dots[b, k * H + y, 1 + j] = A_bk[y] . c_j.
    # One GEMM per row: one over all B * K * H rows can round a row's dot
    # products differently, by where the BLAS kernel's row blocks fall.
    row_dots = np.matmul(maps.reshape(batch, k * height, width), plan.colmat, out=plan.row_dots)
    col_sum = np.add.reduce(maps.reshape(n_maps, height, width), axis=1, out=plan.col_sum)
    total = np.add.reduce(col_sum, axis=1)
    denom = total + plan.eps

    # one pass gives every in-box sum r_k . (A_m c_k), then every pair's
    # r_fg . (A_bg c_fg)
    sums = np.add.reduce(plan.gather_rows * row_dots.take(plan.gather), axis=1)

    # the literal sum can round past S when the box covers the whole grid
    e_in = np.minimum(sums[:n_maps], total)
    e_out = total - e_in
    e_in = total - e_out
    f = e_in / denom
    align = np.add.reduce((d * (1.0 - f) ** 2).reshape(batch, k), axis=1)

    inter = sums[n_maps:] / plan.area_eps
    ortho = np.add.reduce((plan.weights * inter).reshape(batch, n_pairs), axis=1)

    # one matrix-vector product per row, as for the GEMM
    mu = np.empty((n_maps, 2))
    np.divide((col_sum.reshape(batch, k, width) @ plan.cx).reshape(n_maps), denom, out=mu[:, 0])
    np.divide((row_sum.reshape(batch, k, height) @ plan.cy).reshape(n_maps), denom, out=mu[:, 1])
    dx = plan.cx - mu[:, :1]
    dy = plan.cy - mu[:, 1:]
    var = (np.add.reduce(col_sum * dx**2, axis=1) + np.add.reduce(row_sum * dy**2, axis=1)) / denom
    compact = np.add.reduce((d * var).reshape(batch, k), axis=1)

    # Python floats: the same doubles, and the same IEEE sums in staged_total
    terms = zip(align.tolist(), ortho.tolist(), compact.tolist(), plan.cfgs, stages, strict=True)
    breakdown = LossBreakdown(
        stage=tuple(stages), align=align, ortho=ortho, compact=compact,
        total=np.array([staged_total(*row) for row in terms]),
        f=f.reshape(batch, k), e_in=e_in.reshape(batch, k), e_out=e_out.reshape(batch, k),
        mu=mu.reshape(batch, k, 2), var=var.reshape(batch, k), pairs=plan.pairs,
        pair_interference=inter.reshape(batch, n_pairs), pair_weights=plan.weights.reshape(batch, n_pairs),
    )
    return breakdown, (denom, f, mu, var, dx, dy)


def _products(plan: _Plan, stages: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """The (U, V, grad) views of each product of the gradient, one per run of consecutive rows in one stage.

    A stage-2 run reads only the first three columns of the factors.  Built
    on a stages tuple's first use and kept in the plan; a run meets at most
    one new tuple per step.
    """
    key = tuple(stages)
    if key not in plan.products:
        k = len(plan.depths) // len(key)
        u, v = plan.factors
        views, lo = [], 0
        for stage, rows in itertools.groupby(key):
            hi = lo + k * len(list(rows))
            m = 3 if stage == 2 else None
            views.append((u[lo:hi, :, :m], v[lo:hi, :m], plan.grad_stack[lo:hi]))
            lo = hi
        plan.products[key] = views
    return plan.products[key]


def value_and_grad(
    maps: np.ndarray, plan: _Plan, stages: Sequence[int]
) -> tuple[LossBreakdown, np.ndarray]:
    """Each row's stage objective on a (B, K, H, W) field and its gradient d(total)/dA.

    Row b is evaluated at stages[b] under plan.cfgs[b].  With S = sum(A_k),
    D = S + eps, row sums R (K, H) and column sums C (K, W),
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
    columns are written here.  A stage-2 row, which has no pair terms,
    multiplies only those three columns.

    The returned gradient is the plan's own buffer: the next call on the
    same plan overwrites it.
    """
    breakdown, (denom, f, mu, var, dx, dy) = _values(maps, plan, stages)
    a = plan.neg2_depths * (1.0 - f) / denom
    q = (plan.compact_depths / denom)[:, None]
    res = (plan.two_eps / denom)[:, None]
    u0, u1, v2 = plan.columns
    np.multiply(a[:, None], plan.box_rows, out=u0)
    np.subtract(q * (dy * (dy - res * mu[:, 1:]) - var[:, None]), (a * f)[:, None], out=u1)
    np.multiply(q * dx, dx - res * mu[:, :1], out=v2)
    for u, v, out in _products(plan, stages):
        np.matmul(u, v, out=out)
    return breakdown, plan.grad


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
    return _values(field.maps[None], _plan(scene, pairs, [cfg]), [stage])[0].take(0)

