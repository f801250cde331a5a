"""Finite-difference verification of the analytic gradients.

The oracle owns the literal definition of every loss term, on the pixel
centres of `coord_grid`, the box masks of `scene_masks` and the blob map
of `_blob_map`.  From the rest of the package it reads only the scene's
boxes, pairs and pixel centres, lambda_ij, and the run loop's own sequence
on the latent it is handed: the surrogate of that latent's mode renders the
field, `value_and_grad` on a `_plan` gives dL/dA and the same surrogate's
`chain` gives dL/dz, the two gradients it checks.

The oracle takes central differences of the forward loss with the perturbed
object's terms evaluated in extended precision (80-bit long double where the
platform provides it; `precision_note` says when it does not).  Terms not
involving the perturbed map are constants of the difference and are omitted,
which removes their rounding noise from the quotient without changing the
derivative being measured.

`_restricted_loss` is the literal forward definition of those terms.  Every
quantity it reads is a pixel sum of the map against a fixed weight: the
total, the in-box sum, the foreground-mask sum of each pair the object backs,
and the first and second coordinate moments.  `_PixelSums` takes these sums
once per object and stage, so raising pixel p by delta changes each by
delta * w_p and a checked coordinate costs a rank-one update of a few
scalars instead of full-map passes.  The moments are taken about the
base-point mean, so Var is never a difference of O(1) numbers, and the
algebra keeps epsilon exact (the normalized map sums to S / (S + eps), not 1).
Before any coordinate is judged, each object's sum-form value at the base
point must match the literal `_restricted_loss` to a small multiple of the
working precision's eps, or `check_gradients` raises `OracleError`.

Attention coordinates perturb the pixel by +-h and raster latent
coordinates by exp(z_p +- h) - exp(z_p), the one entry the literal
re-render changes.  Both spaces are sampled CHUNK coordinates at a time:
one `rng.integers` call draws a chunk's (k, y, x) rows, the same stream as
scalar k, y, x draws per sample, and each object's rows go through
`_PixelSums` as arrays, with the scalar form's elementwise arithmetic, so
every difference is the one a per-coordinate loop would take.  Blob latent
coordinates move every pixel, so they keep the literal re-render
`_blob_map` and evaluation of `_restricted_loss`.

A coordinate passes when both values are finite and
|analytic - fd| <= max(rel_tol * 1e-4, rel_tol * ref) with
ref = max(|analytic|, |fd|): the relative criterion for significant
gradients, an absolute floor for near-zero ones.  An infinite value would
make that bound infinite too, so it fails on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionField
from .losses import _pair_coefficients, _plan, value_and_grad
from .scene import GuidanceConfig, SceneSpec, box_indicators, derive_occlusion_pairs, pixel_centers
from .surrogate import LatentState, _check_match, _surrogate

LONG = np.longdouble
FD_STEP = 1e-6
DEFAULT_REL_TOL = 1e-5
ANCHOR_EPS = 64  # sum-form vs literal objective, in units of the working eps
CHUNK = 256  # sampled coordinates evaluated per array pass: the temporaries' bound at any `samples`


class OracleError(RuntimeError):
    """Raised when the oracle cannot judge a state: sum form off its literal, or too light a map."""


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
    worst_rel: float = 0.0
    worst_abs: float = 0.0

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
    """Stack of per-object binary box masks, shape (K, H, W)."""
    return np.stack(
        [np.outer(*box_indicators(obj.bbox, scene.grid_height, scene.grid_width)) for obj in scene.objects]
    )


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


def _restricted_loss(
    map_k: np.ndarray,
    mask_k: np.ndarray,
    depth_k: float,
    fg_terms: list[tuple[np.ndarray, float]],
    coords: CoordGrid,
    cfg: GuidanceConfig,
    stage: int,
):
    """Stage objective restricted to the terms that depend on one object's map."""
    e_in, e_out = attention_energies(map_k, mask_k)
    f = alignment_ratio(e_in, e_out, cfg.epsilon)
    value = depth_k * (1 - f) ** 2
    if stage == 1:
        for mask_fg, lam in fg_terms:
            value = value + cfg.lambda_ortho * lam * interference(map_k, mask_fg, cfg.epsilon)
    norm = map_k / (map_k.sum() + cfg.epsilon)
    var = spatial_variance(norm, coords, spatial_mean(norm, coords))
    return value + cfg.lambda_compact * depth_k * var


class _PixelSums:
    """The pixel sums `_restricted_loss` reads, taken once at a base map.

    `loss(delta, y, x)` is the restricted objective of the base map with entry
    (y, x) raised by delta.  Each term keeps the literal's float64 coefficient
    products, so at delta = 0 the two differ only by summation order.
    """

    def __init__(self, base, mask_k, depth_k, fg_terms, coords, cfg: GuidanceConfig, stage: int):
        self.base = base
        self.mask = mask_k
        self.depth = depth_k
        self.eps = cfg.epsilon
        self.compact = cfg.lambda_compact * depth_k
        self.total = base.sum()
        self.e_in = (base * mask_k).sum()
        # per pair: foreground-mask sum, the mask, lambda_ortho * lambda_ij, |M_fg| + eps
        self.fg = [
            ((base * mask_fg).sum(), mask_fg, cfg.lambda_ortho * lam, mask_fg.sum() + cfg.epsilon)
            for mask_fg, lam in (fg_terms if stage == 1 else ())
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

    def loss(self, delta, y: int, x: int):
        s = self.total + delta
        denom = s + self.eps
        f = (self.e_in + delta * self.mask[y, x]) / denom
        value = self.depth * (1 - f) ** 2
        for fg_sum, mask_fg, coef, area in self.fg:
            value = value + coef * ((fg_sum + delta * mask_fg[y, x]) / area)
        var = 0
        for m1, m2, w, c in zip(self.m1, self.m2, (self.ux[x], self.vy[y]), self.centre):
            m1 = m1 + delta * w
            # the mean's offset from the centre: mu - c = (m1 - c * eps) / denom
            off = (m1 - c * self.eps) / denom
            var = var + (m2 + delta * w * w - off * (2 * m1 - off * s))
        return value + self.compact * (var / denom)

    def fd(self, y, x, up, down, h):
        """Central differences, as float64, for the entries (y, x) moved up and down by the given deltas."""
        return ((self.loss(up, y, x) - self.loss(down, y, x)) / (2 * h)).astype(np.float64)


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


def _anchored_sums(base, terms, coords, cfg: GuidanceConfig, stage: int) -> _PixelSums:
    """One object's `_PixelSums`, checked against the literal objective at the base map."""
    sums = _PixelSums(base, *terms, coords, cfg, stage)
    literal = _restricted_loss(base, *terms, coords, cfg, stage)
    summed = sums.loss(LONG(0), 0, 0)
    # the alignment term's scale d_k floors the reference, since (1 - f)^2
    # loses relative precision as f nears 1
    bound = ANCHOR_EPS * np.finfo(LONG).eps * (abs(literal) + terms[1])
    if not abs(summed - literal) <= bound:
        raise OracleError(
            f"sum-form restricted loss {float(summed)!r} != literal {float(literal)!r} "
            f"(bound {float(bound):.3g})"
        )
    return sums


def _judge_all(result, space: str, ks, coordinates, analytic, fd, rel_tol: float) -> None:
    """Judge coordinates in sample order into `result`, with a report for each failure.

    A NaN error fails its coordinate and wins the worst-error max, so a
    result whose worst error reads NaN holds a non-finite failure.
    """
    # silent, as the same arithmetic on Python floats is: inf - inf is a NaN error, not a warning
    with np.errstate(all="ignore"):
        abs_err = np.abs(analytic - fd)
        ref = np.where(np.abs(fd) > np.abs(analytic), np.abs(fd), np.abs(analytic))
        rel_err = np.divide(abs_err, ref, out=np.zeros_like(ref), where=ref > 1e-10)
        floor, scaled = rel_tol * 1e-4, rel_tol * ref
        ok = (abs_err <= np.where(scaled > floor, scaled, floor)) & np.isfinite(analytic) & np.isfinite(fd)
    result.checked += len(fd)
    result.worst_rel = float(np.max(rel_err, initial=result.worst_rel))
    result.worst_abs = float(np.max(abs_err, initial=result.worst_abs))
    result.failures.extend(
        CoordReport(
            space, int(ks[i]), tuple(coordinates[i].tolist()), float(analytic[i]), float(fd[i]),
            float(abs_err[i]), float(rel_err[i]),
        )
        for i in np.flatnonzero(~ok)
    )


def _check_sampled(result, space: str, rng, samples: int, sums, grad, deltas, rel_tol: float) -> None:
    """Judge `samples` coordinates (k, y, x) of one space, CHUNK at a time.

    One chunk's draw is one `rng.integers` call over (K, H, W), which yields
    the coordinates of per-sample k, y, x scalar draws.  Each object's
    coordinates go through its `_PixelSums` as arrays; `deltas(k, y, x, a)`
    gives the up and down changes of the entries a = base[y, x].
    """
    h = LONG(FD_STEP)
    bounds = np.array(grad.shape)
    for start in range(0, samples, CHUNK):
        ks, ys, xs = rng.integers(0, bounds, size=(min(CHUNK, samples - start), 3)).T
        fd = np.empty(len(ks))
        for k, object_sums in enumerate(sums):
            at = np.flatnonzero(ks == k)
            y, x = ys[at], xs[at]
            fd[at] = object_sums.fd(y, x, *deltas(k, y, x, object_sums.base[y, x]), h)
        _judge_all(result, space, ks, np.column_stack((ys, xs)), grad[ks, ys, xs], fd, rel_tol)


def check_gradients(
    scene: SceneSpec,
    cfg: GuidanceConfig,
    latent: LatentState,
    stage: int,
    seed: int,
    samples: int = 1000,
    rel_tol: float = DEFAULT_REL_TOL,
) -> GradCheckResult:
    """Compare analytic gradients at `latent` against the extended-precision FD oracle.

    Draws `samples` attention coordinates (k, y, x) with `seed`, with
    replacement.  The latent space follows the mode the latent carries: a
    raster latent draws `samples` more coordinates from the same generator,
    also with replacement, and a blob latent checks all 5 * K parameters
    whatever `samples` is.
    Raises OracleError, before judging any coordinate, when an object's
    sum-form objective misses its literal anchor or its map's mass is below
    1e3 * FD_STEP.  Raises ValueError, before any render, for a check that
    would judge nothing (`samples` < 1) or decide every coordinate alike
    (`rel_tol` not finite and >= 0).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (np.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    result = GradCheckResult()
    rng = np.random.default_rng(seed)
    # the run loop's sequence: one surrogate renders and chains, one plan's kernel in between
    _check_match(latent, scene)
    surrogate = _surrogate(scene, latent.mode, 1)
    terms = _object_terms(scene, cfg)
    plan = _plan(scene, derive_occlusion_pairs(scene), [cfg])
    # as in the run loop: a non-finite gradient is judged below, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        maps = surrogate.render(latent.values[None])
        grad_att = value_and_grad(maps, plan, [stage])[1]
        # a copy: the raster chain writes over the gradient it is given
        grad_lat = surrogate.chain(grad_att.copy())[0]
    field_ = AttentionField(maps=maps[0])
    coords_ld = coord_grid(scene.grid_height, scene.grid_width, dtype=LONG)
    h = LONG(FD_STEP)
    grad_att = grad_att[0]
    k_count = len(scene.objects)

    sums = [
        _anchored_sums(field_.maps[k].astype(LONG), terms[k], coords_ld, cfg, stage)
        for k in range(k_count)
    ]
    # once S nears h, the central difference of f = e_in / (S + eps) leaves its linear regime
    for k, object_sums in enumerate(sums):
        if not object_sums.total >= 1e3 * FD_STEP:
            raise OracleError(
                f"object {k}'s map mass {float(object_sums.total):.3g} is below "
                f"1e3 x the finite-difference step {FD_STEP:g}"
            )
    _check_sampled(
        result, "attention", rng, samples, sums, grad_att,
        lambda k, y, x, a: ((a + h) - a, (a - h) - a), rel_tol,
    )

    if latent.mode == "raster":
        # the literal re-render exp(z) in LONG changes only the perturbed entry
        logits = latent.values.astype(LONG)
        sums = [
            _anchored_sums(np.exp(logits[k]), terms[k], coords_ld, cfg, stage) for k in range(k_count)
        ]
        _check_sampled(
            result, "latent", rng, samples, sums, grad_lat,
            lambda k, y, x, a: (np.exp(logits[k, y, x] + h) - a, np.exp(logits[k, y, x] - h) - a),
            rel_tol,
        )
    else:
        params = latent.values.astype(LONG)
        fd = np.empty(params.shape)
        for (k, p), _ in np.ndenumerate(params):
            vals = []
            for sign in (+1, -1):
                pert = params[k].copy()
                pert[p] += sign * h
                map_k = _blob_map(pert, coords_ld.x, coords_ld.y)
                vals.append(_restricted_loss(map_k, *terms[k], coords_ld, cfg, stage))
            fd[k, p] = (vals[0] - vals[1]) / (2 * h)
        ks, ps = np.indices(params.shape).reshape(2, -1)
        _judge_all(result, "latent", ks, ps[:, None], grad_lat.ravel(), fd.ravel(), rel_tol)
    return result
