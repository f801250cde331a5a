"""Finite-difference verification of the analytic gradients.

The oracle owns the literal definition of every loss term, on the pixel
centres of `coord_grid`, the box masks of `scene_masks` and the blob map
of `_blob_map`.  From the rest of the package it reads only the scene's
boxes, pairs and pixel centres, lambda_ij, and the run loop's own sequence
on the latent it is handed: the surrogate of that latent's mode renders the
field and takes its own reductions (a blob's from its rank-one factors),
`losses._step_factors` writes a `_plan`'s low-rank factors of dL/dA,
`losses._grad_product` multiplies them out into dL/dA, and the surrogate's
`chain` of them gives dL/dz: the two gradients it checks.  The dense field
is only the oracle's base map.  `check_gradients` runs that sequence once,
on a field of one row per stage, row b bit for bit a lone stage's; each
coordinate is drawn and its terms taken once for every stage.

The oracle takes central differences of the forward loss with the perturbed
object's terms evaluated in extended precision (80-bit long double where the
platform provides it; `precision_note` says when it does not).  Terms not
involving the perturbed map are constants of the difference and are omitted.
Each remaining summand is differenced on its own, then staged: a summand the
coordinate leaves alone (a pair term of 1e8 outside its foreground box) adds
exactly 0, not its rounding noise, and the derivative measured is the same.

`_restricted_terms` is the literal forward definition of those terms: the
stage-free summands (alignment, each pair's orthogonality term, compactness),
which `_staged` adds in a stage's order, so one literal evaluation of a map
serves every stage.  Every quantity they read is a pixel sum of the map
against a fixed weight: the total, the in-box sum, the foreground-mask sum
of each pair the object backs, and the first and second coordinate moments.
`_PixelSums` takes these sums once per object, whatever the stage, so
raising pixel p by delta changes each by delta * w_p and a checked
coordinate costs a rank-one update of a few scalars instead of full-map
passes.  Its `terms` are the same summands as
`_restricted_terms`, and `_staged` adds them too: it is the one place that
decides what a stage adds.  The moments are taken about the base-point
mean, so Var is never a difference of O(1) numbers, and the algebra keeps
epsilon exact (the normalized map sums to S / (S + eps), not 1).  Before
any coordinate is judged, each object's sum-form value at the base point
must match its literal value, at every stage checked, to a small multiple
of the working precision's eps, or `check_gradients` raises `OracleError`.

Attention coordinates perturb the pixel by +-h and raster latent
coordinates by exp(z_p +- h) - exp(z_p), the one entry the literal
re-render changes.  Both spaces are sampled CHUNK coordinates at a time:
one `rng.integers` call draws a chunk's (k, y, x) rows, the same stream as
scalar k, y, x draws per sample, and each object's rows go through
`_PixelSums` as arrays, with the scalar form's elementwise arithmetic, so
every difference is the one a per-coordinate loop would take.  Blob latent
coordinates move every pixel, so they keep the literal re-render
`_blob_map` and evaluation of `_restricted_terms`: 2 * 5 * K of each per
call.  `_differences` differences either form's up and down terms.  A blob
coordinate changes every summand, the compactness term included, so its
difference carries the rounding of whole summands: `_noise` estimates it
from the coordinate's own summands as eps * staged(|up| + |down|) / 2h, and
where that exceeds the bound the judge would apply to that coordinate
(`_bounds`) the check is refused, not judged on noise.

A coordinate passes when both values are finite and
|analytic - fd| <= max(rel_tol * FLOOR_REF, rel_tol * ref) with
ref = max(|analytic|, |fd|) (`_bounds`): the relative criterion for significant
gradients, an absolute floor for near-zero ones.  An infinite value would
make that bound infinite too, so it fails on its own.  A result's worst
relative error is taken over the coordinates the relative criterion
judges; those the floor judges (both values finite and ref <= FLOOR_REF,
where the floor is the larger bound) are only counted, since a near-zero
gradient's relative error says nothing about the check.  A NaN or
infinite value is judged by neither and shows in the worst errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attention import AttentionField
from .losses import _columns, _grad_product, _pair_coefficients, _plan, _product_views, _step_factors
from .scene import GuidanceConfig, SceneSpec, _is_integer, check_value, derive_occlusion_pairs, pixel_centers
from .surrogate import LatentState, _check_match, _surrogate

LONG = np.longdouble
FD_STEP = 1e-6
DEFAULT_REL_TOL = 1e-5
FLOOR_REF = 1e-4  # at and below this reference, the absolute floor rel_tol * FLOOR_REF judges a coordinate
ANCHOR_EPS = 64  # sum-form vs literal objective, in units of the working eps
CHUNK = 256  # sampled coordinates evaluated per array pass: the temporaries' bound at any `samples`
BLOB_PARAMS = ("cx", "cy", "lsx", "lsy", "la")  # a blob latent's parameters per object, in order


class OracleError(RuntimeError):
    """Raised when the oracle cannot judge a state: sum form off its literal, a light map, a noisy blob FD."""


def precision_note() -> str | None:
    """A line stating the oracle's reduced precision, or None where long double is wider."""
    eps = np.finfo(LONG).eps
    if eps < np.finfo(np.float64).eps:
        return None
    return (
        f"note: long double is float64 here, so the finite-difference oracle runs "
        f"at eps {eps:.3g}, not in extended precision"
    )


@dataclass(frozen=True)
class CoordReport:
    space: str  # "attention" | "latent"
    object_index: int
    coordinate: tuple[int, ...]
    analytic: float
    fd: float
    abs_err: float
    rel_err: float


@dataclass
class GradCheckResult:
    checked: int = 0
    failures: list[CoordReport] = field(default_factory=list)
    worst_rel: float = 0.0  # over the coordinates the relative criterion judges
    worst_abs: float = 0.0
    floored: int = 0  # the coordinates the absolute floor judges

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class CoordGrid:
    """Normalized pixel centres as a (1, W) row x and an (H, 1) column y.

    x[0, c] = (c+0.5)/W and y[r, 0] = (r+0.5)/H broadcast against an (H, W)
    map with the per-pixel arithmetic of full (H, W) coordinate arrays.
    """

    x: np.ndarray
    y: np.ndarray


def coord_grid(height: int, width: int, dtype=np.float64) -> CoordGrid:
    return CoordGrid(x=pixel_centers(width, dtype)[None, :], y=pixel_centers(height, dtype)[:, None])


def scene_masks(scene: SceneSpec) -> np.ndarray:
    """Stack of per-object binary box masks, shape (K, H, W), from the scene's spans."""
    masks = np.zeros((len(scene.spans), scene.grid_height, scene.grid_width))
    for mask, (r0, r1, c0, c1) in zip(masks, scene.spans):
        mask[r0:r1, c0:c1] = 1.0
    return masks


def _blob_map(params: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Gaussian map exp(la) * exp(-((x-cx)^2/(2 sx^2) + (y-cy)^2/(2 sy^2))).

    The literal re-render: one joint exponent over the grid, not the
    production surrogate's product of 1-D factors.
    """
    cx, cy, lsx, lsy, la = params
    sx = np.exp(lsx)
    sy = np.exp(lsy)
    return np.exp(la) * np.exp(-((px - cx) ** 2 / (2 * sx**2) + (py - cy) ** 2 / (2 * sy**2)))


def attention_energies(values: np.ndarray, mask: np.ndarray):
    """In-box and out-of-box attention energies of one map.

    The dominant side keeps its literal sum; the other is derived from the
    total.  Whenever the dominant side holds at least half the mass the
    subtraction is exact (Sterbenz), so e_in + e_out equals the map's total
    bit-exactly instead of merely to rounding error.
    """
    a = np.asarray(values)
    m = np.asarray(mask)
    if a.shape != m.shape:
        raise ValueError(f"map shape {a.shape} != mask shape {m.shape}")
    total = a.sum()
    e_in = (a * m).sum()
    e_out = (a * (1.0 - m)).sum()
    if e_in >= e_out:
        if e_in >= total / 2:
            e_out = total - e_in
    elif e_out >= total / 2:
        e_in = total - e_out
    return e_in, e_out


def alignment_ratio(e_in, e_out, epsilon):
    """Concentration of attention inside the box: e_in / (e_in + e_out + eps)."""
    return e_in / (e_in + e_out + epsilon)


def interference(values_bg: np.ndarray, mask_fg: np.ndarray, epsilon):
    """Mean background attention per foreground-mask pixel."""
    a = np.asarray(values_bg)
    m = np.asarray(mask_fg)
    if a.shape != m.shape:
        raise ValueError(f"map shape {a.shape} != mask shape {m.shape}")
    return (a * m).sum() / (m.sum() + epsilon)


def spatial_mean(norm_map: np.ndarray, coords: CoordGrid) -> tuple[float, float]:
    """Attention-weighted expectation of the pixel-centre coordinates."""
    a = np.asarray(norm_map)
    return (a * coords.x).sum(), (a * coords.y).sum()


def spatial_variance(norm_map: np.ndarray, coords: CoordGrid, mu) -> float:
    """Attention-weighted second moment around the given mean."""
    a = np.asarray(norm_map)
    mu_x, mu_y = mu
    dist2 = (coords.x - mu_x) ** 2 + (coords.y - mu_y) ** 2
    return (a * dist2).sum()


def _restricted_terms(
    map_k: np.ndarray,
    mask_k: np.ndarray,
    depth_k: float,
    fg_terms: list[tuple[np.ndarray, float]],
    coords: CoordGrid,
    cfg: GuidanceConfig,
):
    """The literal summands that depend on one object's map: (alignment, [each pair's ortho term], compactness).

    None depends on the stage; `_staged` adds them into a stage's objective.
    """
    e_in, e_out = attention_energies(map_k, mask_k)
    f = alignment_ratio(e_in, e_out, cfg.epsilon)
    ortho = [cfg.lambda_ortho * lam * interference(map_k, mask_fg, cfg.epsilon) for mask_fg, lam in fg_terms]
    norm = map_k / (map_k.sum() + cfg.epsilon)
    var = spatial_variance(norm, coords, spatial_mean(norm, coords))
    return depth_k * (1 - f) ** 2, ortho, cfg.lambda_compact * depth_k * var


def _staged(terms, stage: int):
    """The stage objective of `_restricted_terms`' summands, added in pair order; stage 2 drops ortho."""
    align, ortho, compact = terms
    value = align
    if stage == 1:
        for term in ortho:
            value = value + term
    return value + compact


def _summandwise(op, up, down):
    """`op` of each summand of `_restricted_terms`' up and down terms, in their shape."""
    (align_up, ortho_up, compact_up), (align_down, ortho_down, compact_down) = up, down
    return op(align_up, align_down), [op(u, d) for u, d in zip(ortho_up, ortho_down)], op(compact_up, compact_down)


def _differences(up, down, stages, h) -> list:
    """Per stage, the central difference of its objective: each summand differenced on its own, then staged."""
    diff = _summandwise(lambda u, d: u - d, up, down)
    return [_staged(diff, stage) / (2 * h) for stage in stages]


def _noise(up, down, stages, h) -> list:
    """Per stage, an estimate of `_differences`' rounding noise: eps * staged(|up| + |down|) / 2h."""
    size = _summandwise(lambda u, d: abs(u) + abs(d), up, down)
    return [np.finfo(LONG).eps * _staged(size, stage) / (2 * h) for stage in stages]


class _PixelSums:
    """The pixel sums `_restricted_terms` reads, taken once at a base map.

    `terms(delta, y, x)` are the summands of `_restricted_terms` for the base
    map with entry (y, x) raised by delta.  Each keeps the literal's float64
    coefficient products, so at delta = 0 the two differ only by summation
    order.  None depends on the stage: `loss` adds a stage's through
    `_staged`, as the literal form does.
    """

    def __init__(self, base, mask_k, depth_k, fg_terms, coords, cfg: GuidanceConfig):
        self.base = base
        self.mask = mask_k
        self.depth = depth_k
        self.eps = cfg.epsilon
        self.compact = cfg.lambda_compact * depth_k
        self.total = base.sum()
        self.e_in = (base * mask_k).sum()
        # per pair the object backs: foreground-mask sum, the mask, lambda_ortho * lambda_ij, |M_fg| + eps
        self.fg = [
            ((base * mask_fg).sum(), mask_fg, cfg.lambda_ortho * lam, mask_fg.sum() + cfg.epsilon)
            for mask_fg, lam in fg_terms
        ]
        col = base.sum(axis=0)
        row = base.sum(axis=1)
        # moments about the base-point mean c = sum(A x) / (S + eps): u = x - c
        denom = self.total + self.eps
        self.centre = ((col * coords.x[0]).sum() / denom, (row * coords.y[:, 0]).sum() / denom)
        self.ux = coords.x[0] - self.centre[0]
        self.vy = coords.y[:, 0] - self.centre[1]
        self.m1 = ((col * self.ux).sum(), (row * self.vy).sum())
        self.m2 = ((col * self.ux**2).sum(), (row * self.vy**2).sum())

    def terms(self, delta, y: int, x: int):
        """(alignment, [each pair's ortho term], compactness), as `_restricted_terms` gives them."""
        s = self.total + delta
        denom = s + self.eps
        f = (self.e_in + delta * self.mask[y, x]) / denom
        ortho = [coef * ((fg_sum + delta * mask_fg[y, x]) / area) for fg_sum, mask_fg, coef, area in self.fg]
        var = 0
        for m1, m2, w, c in zip(self.m1, self.m2, (self.ux[x], self.vy[y]), self.centre):
            m1 = m1 + delta * w
            # the mean's offset from the centre: mu - c = (m1 - c * eps) / denom
            off = (m1 - c * self.eps) / denom
            var = var + (m2 + delta * w * w - off * (2 * m1 - off * s))
        return self.depth * (1 - f) ** 2, ortho, self.compact * (var / denom)

    def loss(self, delta, y: int, x: int, stage: int):
        return _staged(self.terms(delta, y, x), stage)


def _object_terms(scene: SceneSpec, cfg: GuidanceConfig) -> list:
    """Per object: its box mask, depth, and the (foreground mask, lambda_ij) of every pair it backs."""
    masks = scene_masks(scene)
    depths = scene.depths()
    fg_terms: list[list[tuple[np.ndarray, float]]] = [[] for _ in scene.objects]
    pairs = derive_occlusion_pairs(scene)
    for pair, weight in zip(pairs, _pair_coefficients(scene, pairs, cfg)[0]):
        fg, bg = scene.index_of(pair.foreground_id), scene.index_of(pair.background_id)
        fg_terms[bg].append((masks[fg], weight))
    return [(masks[k], depths[k], fg_terms[k]) for k in range(len(scene.objects))]


def _check_anchors(sums: list[_PixelSums], literals: list, stage: int) -> None:
    """Raise OracleError for the first object whose sum-form objective at `stage` misses its literal one.

    Both are taken at the base map; `literals` holds each object's
    `_restricted_terms` there.
    """
    for object_sums, terms in zip(sums, literals):
        summed, literal = object_sums.loss(LONG(0), 0, 0, stage), _staged(terms, stage)
        # the alignment term's scale d_k floors the reference, since (1 - f)^2
        # loses relative precision as f nears 1
        bound = ANCHOR_EPS * np.finfo(LONG).eps * (abs(literal) + object_sums.depth)
        if not abs(summed - literal) <= bound:
            raise OracleError(
                f"sum-form restricted loss {float(summed)!r} != literal {float(literal)!r} "
                f"(bound {float(bound):.3g})"
            )


def _check_mass(sums: list[_PixelSums]) -> None:
    """Raise OracleError for the first object whose map is too light for the finite-difference step."""
    # once S nears h, the central difference of f = e_in / (S + eps) leaves its linear regime
    for k, object_sums in enumerate(sums):
        if not object_sums.total >= 1e3 * FD_STEP:
            raise OracleError(
                f"object {k}'s map mass {float(object_sums.total):.3g} is below "
                f"1e3 x the finite-difference step {FD_STEP:g}"
            )


def _check_noise(noise: np.ndarray, bound: np.ndarray, rel_tol: float) -> None:
    """Raise OracleError, naming the bound, for the first blob coordinate (k, p) whose noise exceeds its bound."""
    for (k, p), estimate in np.ndenumerate(noise):
        if estimate > bound[k, p]:
            which = "floor" if bound[k, p] == rel_tol * FLOOR_REF else "relative bound"
            raise OracleError(
                f"object {k}'s blob parameter {BLOB_PARAMS[p]}: the finite difference's estimated "
                f"rounding noise {float(estimate):.3g} exceeds the judge's {which} {float(bound[k, p]):.3g}"
            )


def _bounds(analytic, fd, rel_tol: float):
    """(ref, bound) per coordinate: ref = max(|analytic|, |fd|) and the judge's bound max(floor, rel_tol * ref)."""
    with np.errstate(all="ignore"):  # a NaN or inf value is `_judge_all`'s to report
        ref = np.where(np.abs(fd) > np.abs(analytic), np.abs(fd), np.abs(analytic))
        floor, scaled = rel_tol * FLOOR_REF, rel_tol * ref
        return ref, np.where(scaled > floor, scaled, floor)


def _judge_all(result, space: str, ks, coordinates, analytic, fd, rel_tol: float) -> None:
    """Judge coordinates in sample order into `result`, with a report for each failure.

    A NaN error fails its coordinate and wins the worst-error max, so a
    result whose worst error reads NaN holds a non-finite failure.  The
    worst relative error skips the coordinates the absolute floor judges,
    which are counted instead.
    """
    # silent, as the same arithmetic on Python floats is: inf - inf is a NaN error, not a warning
    with np.errstate(all="ignore"):
        abs_err = np.abs(analytic - fd)
        ref, bound = _bounds(analytic, fd, rel_tol)
        # a NaN reference (a NaN analytic value) gives a NaN relative error, not 0
        rel_err = np.divide(abs_err, ref, out=np.zeros_like(ref), where=~(ref <= 1e-10))
        finite = np.isfinite(analytic) & np.isfinite(fd)
        ok = (abs_err <= bound) & finite
        floored = finite & (ref <= FLOOR_REF)
    result.checked += len(fd)
    result.floored += int(np.count_nonzero(floored))
    result.worst_rel = float(np.max(rel_err, initial=result.worst_rel, where=~floored))
    result.worst_abs = float(np.max(abs_err, initial=result.worst_abs))
    result.failures.extend(
        CoordReport(
            space, int(ks[i]), tuple(coordinates[i].tolist()), float(analytic[i]), float(fd[i]),
            float(abs_err[i]), float(rel_err[i]),
        )
        for i in np.flatnonzero(~ok)
    )


def _check_sampled(results, space: str, rng, samples: int, sums, stages, grad, deltas, rel_tol: float) -> None:
    """Judge `samples` coordinates (k, y, x) of one space at every stage, CHUNK at a time.

    One chunk's draw is one `rng.integers` call over (K, H, W), which yields
    the coordinates of per-sample k, y, x scalar draws.  Each object's
    coordinates go through its `_PixelSums` as arrays, up and down once;
    `deltas(k, y, x, a)` gives the up and down changes of the entries
    a = base[y, x].  Row b of `grad` and of the differences is judged into
    `results[b]`.
    """
    h = LONG(FD_STEP)
    bounds = np.array(grad.shape[1:])
    for start in range(0, samples, CHUNK):
        ks, ys, xs = rng.integers(0, bounds, size=(min(CHUNK, samples - start), 3)).T
        fd = np.empty((len(stages), len(ks)))
        for k, object_sums in enumerate(sums):
            at = np.flatnonzero(ks == k)
            y, x = ys[at], xs[at]
            up, down = deltas(k, y, x, object_sums.base[y, x])
            fd[:, at] = _differences(object_sums.terms(up, y, x), object_sums.terms(down, y, x), stages, h)
        for result, row_grad, row_fd in zip(results, grad, fd):
            _judge_all(result, space, ks, np.column_stack((ys, xs)), row_grad[ks, ys, xs], row_fd, rel_tol)


def _checked_stages(stages) -> tuple[int, ...]:
    """`stages` as a tuple, or a ValueError unless it names stage 1, stage 2 or both, each once."""
    try:
        stages = tuple(stages)
    except TypeError:
        raise ValueError(f"stages must be a sequence of stages 1 and 2, got {stages!r}") from None
    if not stages:
        raise ValueError("stages must name at least one stage, got ()")
    for stage in stages:
        if not _is_integer(stage) or stage not in (1, 2):
            raise ValueError(f"stages must hold only stages 1 and 2, got {stages!r}")
    if len(set(stages)) != len(stages):
        raise ValueError(f"stages must name each stage once, got {stages!r}")
    return tuple(int(stage) for stage in stages)


def check_gradients(
    scene: SceneSpec,
    cfg: GuidanceConfig,
    latent: LatentState,
    stages: Sequence[int],
    seed: int,
    samples: int = 1000,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[GradCheckResult]:
    """Compare analytic gradients at `latent` against the extended-precision FD oracle, one result per stage.

    Each stage of `stages` is checked as if alone, in order, on the same
    coordinates: one generator `default_rng(seed)` draws `samples` attention
    coordinates (k, y, x), with replacement.  The latent space follows the
    mode the latent carries: a raster latent draws `samples` more
    coordinates from the same generator, also with replacement, and a blob
    latent checks all 5 * K parameters whatever `samples` is.  The stages
    share every render and every literal evaluation: one row per stage on
    the analytic side, and on the literal side the stage-free terms of each
    base map and each coordinate, taken once, differenced, then staged.
    Raises OracleError, before judging any coordinate, when an object's
    sum-form objective misses its literal anchor, its map's mass is below
    1e3 * FD_STEP, or, for a blob latent, a parameter's estimated
    finite-difference noise (`_noise`) exceeds the bound the judge applies
    to that parameter at that stage (`_bounds`); the refusal is that of the
    first stage that would refuse alone.  A `rel_tol` of 0 asks for exact
    agreement, which no finite difference gives, so it refuses nothing for
    noise and judges (fails) every coordinate.  Raises ValueError, before
    any render, for `stages` not naming stage 1, stage 2 or both, each
    once, for `samples` not an integer (a bool included), for a check that
    would judge nothing (`samples` < 1) or decide every coordinate alike
    (`rel_tol` not finite and >= 0).
    """
    stages = _checked_stages(stages)
    check_value("samples", samples, int, ">= 1", error=ValueError)
    check_value("rel_tol", rel_tol, float, "finite and >= 0", error=ValueError)
    # the run loop's sequence, one row per stage: render, the surrogate's reductions, the factors, the chain
    _check_match(latent, scene)
    batch, k_count = len(stages), len(scene.objects)
    surrogate = _surrogate(scene, latent.mode, batch)
    terms = _object_terms(scene, cfg)
    plan = _plan(scene, derive_occlusion_pairs(scene), [cfg] * batch)
    # dL/dA, and the buffer the raster chain writes its product over
    grad_att, buffer = np.empty((2, batch * k_count, scene.grid_height, scene.grid_width))
    # as in the run loop: a non-finite gradient is judged below, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        surrogate.render(np.repeat(latent.values[None], batch, axis=0))
        surrogate.reduce(plan)
        _step_factors(plan, _columns(plan, [stages]), 0)
        _grad_product(_product_views(plan, stages, 0, len(grad_att), grad_att))
        grad_lat = surrogate.chain(_product_views(plan, stages, 0, len(buffer), buffer), buffer)
    grad_att = grad_att.reshape(batch, k_count, scene.grid_height, scene.grid_width)
    grad_lat = grad_lat.reshape(batch, *latent.values.shape)
    coords_ld = coord_grid(scene.grid_height, scene.grid_width, dtype=LONG)
    h = LONG(FD_STEP)
    raster = latent.mode == "raster"

    # the sampled spaces' base maps, their sums and their literal terms, once
    # for every stage: the dense field of the same render, and the literal
    # re-render exp(z) of a raster latent in LONG, which changes only the perturbed entry
    values = latent.values.astype(LONG)
    bases = [AttentionField(maps=surrogate.field()[0]).maps.astype(LONG)] + ([np.exp(values)] if raster else [])
    literals = [
        [_restricted_terms(base[k], *terms[k], coords_ld, cfg) for k in range(k_count)] for base in bases
    ]
    sums = [[_PixelSums(base[k], *terms[k], coords_ld, cfg) for k in range(k_count)] for base in bases]
    if not raster:
        # blob latent coordinates move every pixel: each perturbed map is
        # rendered and its terms taken once, before any coordinate is judged
        fd, noise = np.empty((2, batch, *values.shape))
        for (k, p), _ in np.ndenumerate(values):
            vals = []
            for sign in (+1, -1):
                pert = values[k].copy()
                pert[p] += sign * h
                vals.append(_restricted_terms(_blob_map(pert, coords_ld.x, coords_ld.y), *terms[k], coords_ld, cfg))
            fd[:, k, p] = _differences(*vals, stages, h)
            noise[:, k, p] = _noise(*vals, stages, h)
    # per stage, in the order a lone stage's check takes them: the attention
    # sums anchored and their masses checked, then the latent sums anchored
    # or the blob differences' noise checked
    for b, stage in enumerate(stages):
        _check_anchors(sums[0], literals[0], stage)
        _check_mass(sums[0])
        if raster:
            _check_anchors(sums[1], literals[1], stage)
        elif rel_tol > 0:
            _check_noise(noise[b], _bounds(grad_lat[b], fd[b], rel_tol)[1], rel_tol)

    results = [GradCheckResult() for _ in stages]
    rng = np.random.default_rng(seed)
    _check_sampled(
        results, "attention", rng, samples, sums[0], stages, grad_att,
        lambda k, y, x, a: ((a + h) - a, (a - h) - a), rel_tol,
    )
    if raster:
        _check_sampled(
            results, "latent", rng, samples, sums[1], stages, grad_lat,
            lambda k, y, x, a: (np.exp(values[k, y, x] + h) - a, np.exp(values[k, y, x] - h) - a), rel_tol,
        )
    else:
        ks, ps = np.indices(values.shape).reshape(2, -1)
        for result, row_grad, row_fd in zip(results, grad_lat, fd):
            _judge_all(result, "latent", ks, ps[:, None], row_grad.ravel(), row_fd.ravel(), rel_tol)
    return results
