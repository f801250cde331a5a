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
kernel produces the values and the gradient together from a per-run
`_Plan`; the derivations live in `value_and_grad`'s docstring.  The kernel
has a leading row axis: it evaluates B configs at once on a (B, K, H, W)
field, one row per config (the values of a sweep), and a single run is
B = 1.  One gathered pass gives every in-box sum and every pair's
interference sum of every row.  Every per-run constant the kernel reads
(gather indices, depth and epsilon products) and every intermediate it
writes lives in the plan, so a step does only step-dependent arithmetic,
written in place, and the kernel allocates no array.  The kernel writes
each evaluation's breakdown into pass columns (`_columns`), one
(passes, B, ...) array per field: a run allocates them once and its
trajectory is written in place, pass after pass, and a value-only call
runs into a one-pass column set of its own (`_evaluate`).  The kernel
comes in halves.  The field half, `_reduce`, reads a dense field: it
writes the reductions every term is built from (`_Scratch.row_dots` and
`col_sum`), one GEMM against the box columns and the column sums per map,
for any range of maps.  From the reductions of every map, `_values` writes
the values and `_step_factors` the values and the gradient's
step-dependent low-rank factors; `_grad_product` multiplies the factors
out for any range of maps.  `value_and_grad` runs them all for all maps,
into a gradient it allocates and returns, for `gradcheck` and the tests,
and `_evaluate` the first two (scoring, and `staged_loss`, the one-row
view for callers outside the package).  In the run loop each surrogate
mode writes the reductions and reads the factors its own way, a tile of
maps at a time, while the tile is in cache (the reductions right after the
tile's maps are rendered): the raster mode through `_reduce` and
`_grad_product`, the blob mode from its rank-one maps' 1-D factors, so
that it reads no dense field and forms no dL/dA (see `surrogate`).  No run
writes a whole-field gradient.
Gradients are hand-derived closed forms rather than autodiff, and
the literal term definitions they are checked against live apart, in
`gradcheck`, so the finite-difference oracle is a genuinely independent
check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .attention import AttentionField, check_alignment
from .scene import (
    ConfigError,
    GuidanceConfig,
    OcclusionPair,
    SceneSpec,
    pixel_centers,
)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term loss values with the diagnostics every term is built from.

    The shapes below are `staged_loss`'s: one evaluation, scalar terms.  The
    kernel's pass columns (`_columns`) carry every field but `pairs` with a
    leading (pass, row) axis pair, a kernel call's breakdown a leading row
    axis and a trajectory's a leading pass axis; `take` indexes them.
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


# the fields that carry the pass and row axes
_INDEXED = tuple(f.name for f in fields(LossBreakdown) if f.name != "pairs")


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


def _box_geometry(scene: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every box's 0/1 row (K, H) and column (K, W) indicators, from the scene's spans."""
    k = len(scene.spans)
    rows, cols = np.zeros((k, scene.grid_height)), np.zeros((k, scene.grid_width))
    for k, (r0, r1, c0, c1) in enumerate(scene.spans):
        rows[k, r0:r1] = cols[k, c0:c1] = 1.0
    return rows, cols


def _box_areas(scene: SceneSpec) -> np.ndarray:
    """Every box's pixel count (K,), from the scene's spans."""
    return np.array([(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in scene.spans], dtype=np.float64)


def _pair_coefficients(
    scene: SceneSpec, pairs: Sequence[OcclusionPair], cfg: GuidanceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_ij, lambda_ortho * lambda_ij / (|M_fg| + eps)) of every pair, in pair order.

    Raises a ConfigError naming the pair when either coefficient is not
    finite, so a config can be checked before any field is rendered.
    """
    # Python floats: their division overflows to inf silently, as numpy scalars' does not
    depths = scene.depths().tolist()
    areas = _box_areas(scene)
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
        fg_area[n] = areas[fg]
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
    return weights, coef


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

class _Scratch(NamedTuple):
    """Every intermediate the kernel writes, overwritten on each call; shapes for B rows of K maps and P pairs.

    Each array is its intermediate's one home, so a call allocates none.
    The views among them (each `_col` a (B * K, 1) view of the array
    before it, each `_rows` a (B, ...) view of one) are the shapes the
    kernel's broadcasts and per-row reductions read.  `x_terms` and
    `y_terms` hold one intermediate in `_values` and another in
    `_step_factors`, which reads them only after `_values` is done with them.
    `row_dots` and `col_sum`, which `_reduce` writes, are the only ones a
    call of `_values` does not write first.
    """

    row_dots: np.ndarray   # (B * K, H, 1 + K): row_dots[m, y, 1 + j] = A_m[y] . c_j, one GEMM per map
    row_sum: np.ndarray    # (B * K, H) view of row_dots' column 0: the row sums R
    row_sum_rows: np.ndarray  # (B, K, H) view of row_sum
    col_sum: np.ndarray    # (B * K, W) the column sums C
    col_sum_rows: np.ndarray  # (B, K, W) view of col_sum
    total: np.ndarray      # (B * K,) S
    denom: np.ndarray      # (B * K,) D = S + eps
    denom_col: np.ndarray  # (B * K, 1)
    gathered: np.ndarray   # (B * (K + P), H) the gathered dot products, then their products with gather_rows
    sums: np.ndarray       # (B * (K + P),) the gathered sums
    in_box: np.ndarray     # (B * K,) view of sums: each map's in-box sum
    pair_sums: np.ndarray  # (B * P,) view of sums: each pair's interference sum
    one_f: np.ndarray      # (B * K,) 1 - f
    one_f_col: np.ndarray  # (B * K, 1)
    per_map: np.ndarray    # (B * K,) d (1 - f)^2, then d Var: the summands of align and compact
    per_map_rows: np.ndarray  # (B, K)
    weighted: np.ndarray   # (B * P,) lambda_ij I, the summands of ortho
    weighted_rows: np.ndarray  # (B, P)
    moments: np.ndarray    # (2, B, K) the GEMV per row C . cx, then R . cy
    moments_t: np.ndarray  # (B * K, 2) view of moments, map by map
    dx: np.ndarray         # (B * K, W) x - mu_x
    dy: np.ndarray         # (B * K, H) y - mu_y
    x_terms: np.ndarray    # (B * K, W) C (x - mu_x)^2; then x - mu_x - res mu_x
    y_terms: np.ndarray    # (B * K, H) R (y - mu_y)^2; then q ((y - mu_y) (y - mu_y - res mu_y) - Var)
    var_x: np.ndarray      # (B * K,) sum C (x - mu_x)^2
    a: np.ndarray          # (B * K, 1) -2 d (1 - f) / D
    q_res: np.ndarray      # (B * K, 2) q = lambda_compact d / D and res = 2 eps / D
    q: np.ndarray          # (B * K, 1) view of q_res
    res: np.ndarray        # (B * K, 1) view of q_res
    res_mu: np.ndarray     # (B * K, 2) res mu_x and res mu_y
    res_mu_x: np.ndarray   # (B * K, 1) view of res_mu
    res_mu_y: np.ndarray   # (B * K, 1) view of res_mu
    af: np.ndarray         # (B * K, 1) a f


def _scratch(batch: int, k: int, n_pairs: int, height: int, width: int) -> _Scratch:
    """The kernel's scratch for B = batch rows of k maps and n_pairs pairs on an (height, width) grid."""
    n_maps = batch * k
    row_dots = np.empty((n_maps, height, k + 1))
    col_sum = np.empty((n_maps, width))
    denom, one_f, per_map = np.empty(n_maps), np.empty(n_maps), np.empty(n_maps)
    sums = np.empty(n_maps + batch * n_pairs)
    weighted = np.empty(batch * n_pairs)
    moments = np.empty((2, batch, k))
    q_res, res_mu = np.empty((n_maps, 2)), np.empty((n_maps, 2))
    return _Scratch(
        row_dots=row_dots,
        row_sum=row_dots[:, :, 0],
        row_sum_rows=row_dots.reshape(batch, k, height, k + 1)[..., 0],
        col_sum=col_sum, col_sum_rows=col_sum.reshape(batch, k, width),
        total=np.empty(n_maps), denom=denom, denom_col=denom[:, None],
        gathered=np.empty((len(sums), height)), sums=sums, in_box=sums[:n_maps], pair_sums=sums[n_maps:],
        one_f=one_f, one_f_col=one_f[:, None], per_map=per_map, per_map_rows=per_map.reshape(batch, k),
        weighted=weighted, weighted_rows=weighted.reshape(batch, n_pairs),
        moments=moments, moments_t=moments.reshape(2, n_maps).T,
        dx=np.empty((n_maps, width)), dy=np.empty((n_maps, height)),
        x_terms=np.empty((n_maps, width)), y_terms=np.empty((n_maps, height)), var_x=np.empty(n_maps),
        a=np.empty((n_maps, 1)), q_res=q_res, q=q_res[:, :1], res=q_res[:, 1:],
        res_mu=res_mu, res_mu_x=res_mu[:, :1], res_mu_y=res_mu[:, 1:], af=np.empty((n_maps, 1)),
    )


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

    * `colmat`: `_reduce`'s GEMM of each map against the box columns;
    * `gather`, `gather_rows`: `_values`' one gathered pass, the sums over
      y of gather_rows times row_dots.take(gather); entries 0..B*K-1 pick
      A_m[y] . c_k of every map (in-box sums), the rest A_bg[y] . c_fg of
      every row's pairs (interference sums), in pair order;
    * `eps`: D = S + eps;
    * `area_eps`: I = (interference sum) / area_eps;
    * `depths`, `weights`: the terms' weights d_k and lambda_ij;
    * `neg2_depths`, `q_res_numerators`: the gradient coefficients
      a = neg2_depths * (1 - f) / D and (q, res) = q_res_numerators / D in
      `_step_factors`, the numerators being -2 d, lambda_compact d and
      2 eps; each is the first product of its left-to-right expression, so
      forming it once changes no rounding;
    * `box_rows`: U[:, :, 0] = a * box_rows, each map's box row
      indicators, the first B * K rows of `gather_rows`;
    * `scratch`: every intermediate of `_reduce`, `_values` and
      `_step_factors`, from the GEMM per map to the factors' coefficients
      (`_Scratch`);
    * `factors`, `columns`: the gradient's low-rank factors over all B * K
      maps and views of their step-dependent columns (U[:, :, 0],
      U[:, :, 1], V[:, 2]), that `_step_factors` writes.

    The breakdown a call writes goes to the caller's pass columns
    (`_columns`), none of which is a view of the plan.
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
    neg2_depths: np.ndarray       # (B * K, 1) -2.0 * depths
    q_res_numerators: np.ndarray  # (B * K, 2) lambda_compact * depths and 2.0 * epsilon
    scratch: _Scratch
    factors: tuple[np.ndarray, np.ndarray]  # (U, V), see _grad_factors
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]  # (U[:, :, 0], U[:, :, 1], V[:, 2])


def _grad_factors(rows, cols, terms, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank factors U (B * K, H, m) and V (B * K, m, W) with gradient = U @ V, map after map.

    Column 0 pairs a_k r_k with c_k, column 1 the row term with ones and
    column 2 ones with the column term: `_step_factors` writes those three
    step-dependent entries (U[:, :, 0], U[:, :, 1], V[:, 2]) on every step.
    The remaining columns are fixed: for each (background j, foreground i,
    coef) of `terms`, in order, background map j gets coef r_i (outer)
    c_i, zero-padded to the largest count per map; coef holds one value per
    row.  Every product is exact (the indicators are 0/1), so the sum runs
    in the same order as the term-by-term assembly; stage 2, which has no
    pair terms, multiplies U[..., :3] @ V[:, :3].
    """
    k, height = rows.shape
    width = cols.shape[1]
    slots: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(k)]
    for j, i, coef in terms:
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
    """The plan of B = len(cfgs) rows, one per config, on the scene's `_box_geometry`."""
    if not cfgs:
        raise ValueError("a plan needs at least one row config")
    height, width = scene.grid_height, scene.grid_width
    k, batch = len(scene.objects), len(cfgs)
    rows, cols = _box_geometry(scene)
    fg = np.array([scene.index_of(p.foreground_id) for p in pairs], dtype=np.intp)
    bg = np.array([scene.index_of(p.background_id) for p in pairs], dtype=np.intp)
    # rows are checked in order: the first whose pair coefficients are not
    # finite raises, naming its pair
    coefficients = [_pair_coefficients(scene, pairs, cfg) for cfg in cfgs]
    coef = np.array([c for _, c in coefficients])
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
    u, v = _grad_factors(rows, cols, tuple(zip(bg.tolist(), fg.tolist(), coef.T)), batch)
    return _Plan(
        cfgs=tuple(cfgs),
        colmat=np.vstack([np.ones(width), cols]).T.copy(),
        cx=pixel_centers(width),
        cy=pixel_centers(height),
        depths=depths,
        pairs=tuple(pairs),
        weights=np.concatenate([weights for weights, _ in coefficients]),
        gather=gather,
        gather_rows=gather_rows,
        box_rows=gather_rows[: batch * k],
        eps=eps,
        area_eps=(_box_areas(scene)[fg] + row_eps[:, None]).ravel(),
        neg2_depths=(-2.0 * depths)[:, None],
        q_res_numerators=np.column_stack([np.repeat([cfg.lambda_compact for cfg in cfgs], k) * depths, two_eps]),
        scratch=_scratch(batch, k, len(pairs), height, width),
        factors=(u, v),
        columns=(u[:, :, 0], u[:, :, 1], v[:, 2]),
    )


def _columns(plan: _Plan, schedule: Sequence[Sequence[int]]) -> LossBreakdown:
    """Pass columns for len(schedule) evaluations of the plan's rows, pass t's row b at stage schedule[t][b].

    Every field but `pairs` is one (passes, B, ...) array of its own: the
    stages come from the schedule and the pair weights from the plan, and
    the kernel writes the rest, a pass at a time.
    """
    passes, batch = len(schedule), len(plan.cfgs)
    k, n_pairs = len(plan.depths) // batch, len(plan.pairs)

    def empty(*shape: int) -> np.ndarray:
        return np.empty((passes, batch, *shape))

    return LossBreakdown(
        stage=np.array(schedule), align=empty(), ortho=empty(), compact=empty(), total=empty(),
        f=empty(k), e_in=empty(k), e_out=empty(k), mu=empty(k, 2), var=empty(k), pairs=plan.pairs,
        pair_interference=empty(n_pairs),
        pair_weights=np.repeat(plan.weights.reshape(1, batch, n_pairs), passes, axis=0),
    )


def _reduce_views(maps: np.ndarray, plan: _Plan, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The views whose `_reduce` writes the reductions of maps lo..hi-1 of a (B, K, H, W) field into the plan's scratch.

    The maps are those of the plan's stack (map m = b * K + k), and their
    reductions are their blocks of `row_dots` and their column sums.
    """
    batch, k, height, width = maps.shape
    stack = maps.reshape(batch * k, height, width)[lo:hi]
    return stack, plan.colmat, plan.scratch.row_dots[lo:hi], plan.scratch.col_sum[lo:hi]


def _reduce(views: tuple[np.ndarray, ...]) -> None:
    """Field half of the kernel: write the GEMM and column sums of each of `_reduce_views`' maps.

    row_dots[m, y, 0] = R[m, y] and row_dots[m, y, 1 + j] = A_m[y] . c_j
    come from one GEMM per map, and a column sum adds a map's pixel rows in
    order, so a map's reductions are the same whatever maps they are taken
    with.  A GEMM over several maps would not be: the BLAS picks its kernel
    by the product's size, and its kernels round some dot products
    differently.
    """
    stack, colmat, dots, col_sum = views
    np.matmul(stack, colmat, out=dots)
    np.add.reduce(stack, axis=1, out=col_sum)


def _values(plan: _Plan, out: LossBreakdown, t: int) -> tuple[np.ndarray, ...]:
    """Value half of the kernel: write pass t of the columns `out`, each row's breakdown, from the reductions.

    The reductions are those `_reduce` last wrote of each map.  Row b is
    evaluated at stage out.stage[t, b].  Returns the pass's f, mu and Var,
    map by map, as views of `out`; the gradient's other inputs (D, 1 - f,
    x - mu_x, y - mu_y) stay in the plan's scratch for `_step_factors`.
    """
    n_maps = len(plan.depths)
    s = plan.scratch
    e_in, e_out, f, var = (column[t].reshape(n_maps) for column in (out.e_in, out.e_out, out.f, out.var))
    mu, inter = out.mu[t].reshape(n_maps, 2), out.pair_interference[t].reshape(-1)
    align, ortho, compact = out.align[t], out.ortho[t], out.compact[t]

    np.add.reduce(s.col_sum, axis=1, out=s.total)
    np.add(s.total, plan.eps, out=s.denom)

    # one pass gives every in-box sum r_k . (A_m c_k), then every pair's
    # r_fg . (A_bg c_fg); the indices are in range, and "clip" lets take write
    # into its scratch directly rather than through a buffer
    s.row_dots.take(plan.gather, out=s.gathered, mode="clip")
    np.multiply(plan.gather_rows, s.gathered, out=s.gathered)
    np.add.reduce(s.gathered, axis=1, out=s.sums)

    # the literal sum can round past S when the box covers the whole grid
    np.minimum(s.in_box, s.total, out=e_in)
    np.subtract(s.total, e_in, out=e_out)
    np.subtract(s.total, e_out, out=e_in)
    np.divide(e_in, s.denom, out=f)
    np.subtract(1.0, f, out=s.one_f)
    np.multiply(plan.depths, np.square(s.one_f, out=s.per_map), out=s.per_map)
    np.add.reduce(s.per_map_rows, axis=1, out=align)

    np.divide(s.pair_sums, plan.area_eps, out=inter)
    np.multiply(plan.weights, inter, out=s.weighted)
    np.add.reduce(s.weighted_rows, axis=1, out=ortho)

    # one matrix-vector product per row: one over every row's maps can round a row's products differently
    np.matmul(s.col_sum_rows, plan.cx, out=s.moments[0])
    np.matmul(s.row_sum_rows, plan.cy, out=s.moments[1])
    np.divide(s.moments_t, s.denom_col, out=mu)
    np.subtract(plan.cx, mu[:, :1], out=s.dx)
    np.subtract(plan.cy, mu[:, 1:], out=s.dy)
    np.multiply(s.col_sum, np.square(s.dx, out=s.x_terms), out=s.x_terms)
    np.multiply(s.row_sum, np.square(s.dy, out=s.y_terms), out=s.y_terms)
    np.add.reduce(s.x_terms, axis=1, out=s.var_x)
    np.add(s.var_x, np.add.reduce(s.y_terms, axis=1, out=var), out=var)
    np.divide(var, s.denom, out=var)
    np.multiply(plan.depths, var, out=s.per_map)
    np.add.reduce(s.per_map_rows, axis=1, out=compact)

    # Python floats: the same doubles, and the same IEEE sums in staged_total
    terms = zip(align.tolist(), ortho.tolist(), compact.tolist(), plan.cfgs, out.stage[t].tolist(), strict=True)
    total = out.total[t]
    for b, row in enumerate(terms):
        total[b] = staged_total(*row)
    return f, mu, var


def _product_views(
    plan: _Plan, stages: Sequence[int], lo: int, hi: int, out: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (U, V, out) views whose products write the gradient of maps lo..hi-1 into `out` (hi - lo, H, W).

    The maps are those of the plan's stack (map m = b * K + k), and there is
    one product per run of consecutive maps whose rows are in one stage: a
    stage-2 run reads only the first three columns of the factors.  Every
    product multiplies map by map, so a map's gradient is the same whatever
    range it is written in.
    """
    k = len(plan.depths) // len(stages)
    u, v = plan.factors
    views, start = [], lo
    for stage, run in itertools.groupby(range(lo, hi), key=lambda m: stages[m // k]):
        end = start + len(list(run))
        m = 3 if stage == 2 else None
        views.append((u[start:end, :, :m], v[start:end, :m], out[start - lo : end - lo]))
        start = end
    return views


def _grad_product(views: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
    """Write the gradient U @ V into each `out` of `_product_views`' (U, V, out) views."""
    for u, v, out in views:
        np.matmul(u, v, out=out)


def _step_factors(plan: _Plan, out: LossBreakdown, t: int) -> None:
    """Factor half of the kernel: `_values`, then the factors' three step-dependent columns.

    After it, `_grad_product` writes the gradient of any range of maps.
    """
    f, mu, var = _values(plan, out, t)
    s = plan.scratch
    u0, u1, v2 = plan.columns

    # a = neg2_depths * (1 - f) / D, and q and res side by side
    np.divide(np.multiply(plan.neg2_depths, s.one_f_col, out=s.a), s.denom_col, out=s.a)
    np.divide(plan.q_res_numerators, s.denom_col, out=s.q_res)
    np.multiply(s.a, plan.box_rows, out=u0)
    np.multiply(s.res, mu, out=s.res_mu)

    # u1 = q * (dy * (dy - res * mu_y) - Var) - a * f
    np.subtract(s.dy, s.res_mu_y, out=s.y_terms)
    np.multiply(s.dy, s.y_terms, out=s.y_terms)
    np.subtract(s.y_terms, var[:, None], out=s.y_terms)
    np.multiply(s.q, s.y_terms, out=s.y_terms)
    np.subtract(s.y_terms, np.multiply(s.a, f[:, None], out=s.af), out=u1)

    # v2 = (q * dx) * (dx - res * mu_x)
    np.subtract(s.dx, s.res_mu_x, out=s.x_terms)
    np.multiply(s.q, s.dx, out=v2)
    np.multiply(v2, s.x_terms, out=v2)


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
    columns are written on each call (`_step_factors`).  A stage-2 row, which
    has no pair terms, multiplies only those three columns.

    This is the call for all maps at once, into one-pass columns of its own;
    the run loop makes the same halves into its run's columns,
    `_step_factors` once for all maps and the surrogate's reductions and
    chain of the factors one tile of maps at a time.  The returned gradient
    is the caller's own.
    """
    out = _columns(plan, [stages])
    grad = np.empty(maps.shape)
    _reduce(_reduce_views(maps, plan, 0, len(plan.depths)))
    _step_factors(plan, out, 0)
    _grad_product(_product_views(plan, stages, 0, len(plan.depths), grad.reshape(-1, *maps.shape[2:])))
    return out.take(0), grad


def _evaluate(maps: np.ndarray, plan: _Plan, stages: Sequence[int]) -> LossBreakdown:
    """Each row's breakdown of a (B, K, H, W) field, row b at stages[b]: `_reduce` of every map, then `_values`
    into one-pass columns of its own."""
    out = _columns(plan, [stages])
    _reduce(_reduce_views(maps, plan, 0, len(plan.depths)))
    _values(plan, out, 0)
    return out.take(0)


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
    return _evaluate(field.maps[None], _plan(scene, pairs, [cfg]), [stage]).take(0)

