"""Differentiable surrogate that renders attention fields from latent parameters.

Two parametrizations:

* raster: one logit grid per object, rendered as A = exp(logit) so maps stay
  strictly positive and the chain rule back to the logits is a single
  multiplication;
* blob: five parameters per object (center_x, center_y, log_sigma_x,
  log_sigma_y, log_amplitude) rendering an axis-aligned Gaussian at the pixel
  centers.  Log-parametrized scales keep positivity without constraints.
  Such a Gaussian is rank one, amp * g_y (x) g_x, so it renders from
  K * (H + W) one-dimensional exponentials, and the loss reads it through
  those 1-D factors alone (see `_Blob`).

Each mode is one class and owns every fact about it: `latent_shape(scene)`,
its step size `default_eta0`, the seeded start `init(scene, rng)`, then,
built once per run, the calls the run loop and `gradcheck` drive:
`render(values, lo, hi)`; `reduce(plan, lo, hi)`, one call that writes the
reductions the loss kernel reads of the same maps into the plan's scratch
(`losses._Scratch.row_dots` and `col_sum`); `chain(products, grad, lo, hi)`,
the latent gradient from the plan's low-rank factors (U, V) of dL/dA, as
`losses._product_views` hands them out; and `field()`, the dense
(B, K, H, W) field of the last render.  The raster mode reduces its field
with `losses._reduce` and chains through `losses._grad_product` and a
multiplication by A.  The blob mode takes both from its factors and never
forms dL/dA; it writes its dense field only when `field()` asks for it,
which a run does once, at its end (and on the rare abort that must tell a
non-finite field from a loss that overflows).  `_SURROGATES` is the only
list of modes.

A surrogate holds the field of B rows, read as one stack of B * K maps, row
after row (map m = b * K + k), and every call works on any range lo..hi-1
of that stack, all of it by default: the run loop renders, reduces and
chains one tile of maps at a time.  Every map is rendered, reduced and
chained exactly as it would be alone, since no arithmetic mixes maps: each
product runs map by map, so the BLAS kernel it picks depends only on the
map's shape.  `reduce` and `chain` read the factors of their maps' last
render.

Both classes allocate their buffers when a run sets them up, and write
every intermediate into them with `out=`, so no call allocates an array
(the blob chain's two product buffers are sized by the plan's factors, at
its first call).  `field()` returns the surrogate's own field, and `chain`
a view of the surrogate's scratch (the raster chain writes over the
gradient buffer it is given), which the next `chain` writes over, so a
caller reads each result before it chains again.

Rendered values are strictly positive for finite latents (down to double
underflow for extremely narrow blobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionField, _real_array
from .losses import _grad_product, _Plan, _reduce
from .scene import GuidanceConfig, SceneSpec, _shown, pixel_centers

JITTER = 0.05  # half-width of the uniform jitter on initial blob centres


class SurrogateError(ValueError):
    """Raised for invalid latent states or mismatched shapes."""


@dataclass(frozen=True)
class LatentState:
    """Finite latent parameters; their shape is checked where a scene uses them (`_check_match`)."""

    mode: str
    values: np.ndarray

    def __post_init__(self) -> None:
        _mode_class(self.mode)
        arr = _real_array(self.values, SurrogateError, "latent")
        if not np.isfinite(arr).all():
            raise SurrogateError("latent contains non-finite entries")
        object.__setattr__(self, "values", arr)


class _Raster:
    """Render, reductions and chain rule of the raster surrogate for `batch` rows, set up once per run.

    Like `_Blob`, it trusts its inputs (callers check shapes and finiteness)
    and renders into one (B, K, H, W) buffer that every `render` call reuses.
    Its reductions are the loss kernel's field half, `losses._reduce`, over
    that buffer.
    """

    default_eta0 = 800.0  # its gradient entries scale like 1/(total attention mass)

    @staticmethod
    def latent_shape(scene: SceneSpec) -> tuple[int, ...]:
        return (len(scene.objects), scene.grid_height, scene.grid_width)

    @staticmethod
    def init(scene: SceneSpec, rng: np.random.Generator) -> np.ndarray:
        """Logits i.i.d. uniform in [-1, 1]."""
        return rng.uniform(-1.0, 1.0, size=_Raster.latent_shape(scene))

    def __init__(self, scene: SceneSpec, batch: int):
        self.maps = np.empty((batch, len(scene.objects), scene.grid_height, scene.grid_width))
        # the B * K maps of the field as one stack, row after row
        self._stack = self.maps.reshape(-1, scene.grid_height, scene.grid_width)

    def render(self, values: np.ndarray, lo: int = 0, hi: int | None = None) -> None:
        """exp(logit) of maps lo..hi-1 of the field's stack, all of them by default, written into `maps`.

        values holds the maps' logits in any shape of the same size, as
        (B, K, H, W) for the whole field.
        """
        np.exp(values, out=self._stack[lo:hi].reshape(values.shape))

    def field(self) -> np.ndarray:
        """The (B, K, H, W) field of the last render: `maps`, which every `render` writes."""
        return self.maps

    def reduce(self, plan: _Plan, lo: int = 0, hi: int | None = None) -> None:
        """`losses._reduce` of maps lo..hi-1 of the last render, all of them by default, into the plan's scratch."""
        _reduce(self._stack, plan, lo, hi)

    def chain(self, products: list, grad: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """dL/dlogit = dL/dA * A (A = exp(logit)) of maps lo..hi-1 of the last render, written over grad.

        products are the maps' `losses._product_views`, whose products write
        their dL/dA into grad, which holds the maps' gradient in any shape
        ending in (H, W); the maps are those of the field's stack, all of
        them by default.
        """
        _grad_product(products)
        grad *= self._stack[lo:hi].reshape(grad.shape)
        return grad


class _Blob:
    """Render, reductions and chain rule of the blob surrogate for `batch` rows, set up once per run.

    A blob map is rank one, A_k = g_y,k (x) g_x,k: the 1-D Gaussians
    g_x = exp(-dx^2 / (2 sx^2)) and g_y = exp(la) * exp(-dy^2 / (2 sy^2)) at
    the pixel centres, the amplitude folded into g_y.  `render` writes only
    these factors and the factor stacks of `chain`; `reduce` and `chain`
    read the field through them, so no call but `field()` writes an (H, W)
    map, and none evaluates a 2-D exponential or loops over objects.

    Every intermediate has a buffer sized for all B * K maps, allocated
    here: the sigmas, the x and y offsets and 1-D Gaussians and both factor
    stacks for `render`; the box-column dots and sums of g_y for `reduce`;
    the products and the partials for `chain`, whose two factor products
    share one buffer sized at its first call by the plan's factor width.
    Each call slices them to the maps of the call.  The arithmetic is that
    of a fresh array per intermediate, in the same order and bit for bit
    (`tests/reference.py` keeps that form).
    """

    default_eta0 = 0.5  # each of its five parameters per object moves a whole map
    _entries = np.array([1, 3, 2, 6, 0], dtype=np.intp)  # those of a map's flattened r that `chain` returns

    @staticmethod
    def latent_shape(scene: SceneSpec) -> tuple[int, ...]:
        return (len(scene.objects), 5)

    @staticmethod
    def init(scene: SceneSpec, rng: np.random.Generator) -> np.ndarray:
        """Box-centred start with amplitude 1.

        Centres at the box centres plus uniform jitter of +/- JITTER, sigmas at
        a quarter of the box extent.
        """
        x0, y0, x1, y1 = np.array([obj.bbox for obj in scene.objects], dtype=np.float64).T
        centres = ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        log_sigmas = (np.log((x1 - x0) / 4.0), np.log((y1 - y0) / 4.0))
        values = np.stack((*centres, *log_sigmas, np.zeros_like(x0)), axis=1)
        values[:, 0:2] += rng.uniform(-1.0, 1.0, size=(len(values), 2)) * JITTER
        return values

    def __init__(self, scene: SceneSpec, batch: int):
        k, height, width = len(scene.objects), scene.grid_height, scene.grid_width
        n = batch * k
        self.maps = np.empty((batch, k, height, width))
        # the B * K maps of the field as one stack, row after row
        self._stack = self.maps.reshape(-1, height, width)
        self.px = pixel_centers(width)
        self.py = pixel_centers(height)
        # per map: (sx, sy, exp(la)), and the divisors -(2 sx^2), -(2 sy^2)
        self._scales = np.empty((n, 3))
        self._sigmas = self._scales[:, :2]
        self._divisors = np.empty((n, 2))
        # per map, x then y: dx | dy, then u | v, then u^2 | v^2 ...
        self._d = np.empty((n, width + height))
        self._dx, self._dy = self._d[:, :width], self._d[:, width:]
        # ... and dx^2 | dy^2, then g_x | exp(-v^2 / 2)
        self._g = np.empty((n, width + height))
        self._gx, self._ey = self._g[:, :width], self._g[:, width:]
        # the two sides of `chain`'s contractions, map by map
        self._left = np.empty((n, 3, height))  # g_y, g_y v, g_y v^2
        self._right = np.empty((n, width, 3))  # g_x, g_x u, g_x u^2
        # `reduce`'s g_x @ colmat (a column of ones, then the K box columns) and sum of g_y, per map
        self._box_dots = np.empty((n, 1, k + 1))
        self._gy_sums = np.empty(n)
        # `chain`'s products left @ U and V @ right, side by side, then r and the partials
        self._products = np.empty(0)
        self._r = np.empty((n, 3, 3))
        self._partials = np.empty((n, 5))

    def render(self, values: np.ndarray, lo: int = 0, hi: int | None = None) -> None:
        """The factors of maps lo..hi-1 of the field's stack, all of them by default, for `reduce`, `chain` and
        `field`.

        values holds the maps' latent in any shape ending in the five
        parameters, as (B, K, 5) for the whole field.
        """
        params = values.reshape(-1, 5)
        scales, sigmas, divisors = self._scales[lo:hi], self._sigmas[lo:hi], self._divisors[lo:hi]
        np.exp(params[:, 2:], out=scales)
        # -(dx^2 / (2 sx^2)) is dx^2 / -(2 sx^2) exactly, so the negation goes into the divisor
        np.multiply(sigmas, sigmas, out=divisors)
        np.multiply(divisors, -2.0, out=divisors)
        # the n maps' (n, 1) columns against the (W,) and (H,) centres give (n, W) and (n, H)
        d, dx, dy = self._d[lo:hi], self._dx[lo:hi], self._dy[lo:hi]
        g, gx, ey = self._g[lo:hi], self._gx[lo:hi], self._ey[lo:hi]
        np.subtract(self.px, params[:, 0:1], out=dx)
        np.subtract(self.py, params[:, 1:2], out=dy)
        np.multiply(d, d, out=g)
        np.divide(gx, divisors[:, 0:1], out=gx)
        np.divide(ey, divisors[:, 1:2], out=ey)
        np.exp(g, out=g)
        left, right = self._left[lo:hi], self._right[lo:hi]
        gy = left[:, 0]
        np.multiply(scales[:, 2:3], ey, out=gy)
        u = np.divide(dx, sigmas[:, 0:1], out=dx)
        v = np.divide(dy, sigmas[:, 1:2], out=dy)
        # the factor stacks; g * u^2 is formed as g * (u * u)
        right[:, :, 0] = gx
        np.multiply(gx, u, out=right[:, :, 1])
        np.multiply(gy, v, out=left[:, 1])
        np.multiply(d, d, out=d)
        np.multiply(gx, u, out=right[:, :, 2])
        np.multiply(gy, v, out=left[:, 2])

    def field(self) -> np.ndarray:
        """The (B, K, H, W) field of the last render, g_y (x) g_x map by map, written into `maps`."""
        # np.multiply buffers its two broadcast operands on every call and is slower; einsum adds each
        # product to a zeroed map, which changes only a -0, and g_y, g_x >= 0
        np.einsum("mi,mj->mij", self._left[:, 0], self._gx, out=self._stack)
        return self.maps

    def reduce(self, plan: _Plan, lo: int = 0, hi: int | None = None) -> None:
        """`losses._reduce` of maps lo..hi-1 of the last render, all of them by default, taken from their factors.

        A map A = g_y (x) g_x has row_dots[m, y, j] = g_y[y] (g_x . colmat[:, j])
        and column sums col_sum[m] = (sum g_y) g_x.  The dot products run
        map by map, one (1, W) @ (W, 1 + K) product each, so a map's
        reductions are the same whatever maps they are taken with.
        """
        gx, gy, gy_sums, box_dots = self._gx[lo:hi], self._left[lo:hi, 0], self._gy_sums[lo:hi], self._box_dots[lo:hi]
        np.matmul(gx[:, None], plan.colmat, out=box_dots)
        # the outer product as an (H, 1) @ (1, 1 + K) product: one rounded multiplication per entry, as
        # np.multiply's, which buffers its two broadcast operands and is slower
        np.matmul(gy[:, :, None], box_dots, out=plan.scratch.row_dots[lo:hi])
        np.add.reduce(gy, axis=1, out=gy_sums)
        np.multiply(gy_sums[:, None], gx, out=plan.scratch.col_sum[lo:hi])

    def chain(self, products: list, grad: np.ndarray | None = None, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """dL/d(cx, cy, lsx, lsy, la) of maps lo..hi-1 of the last render, from the factors of their dL/dA.

        The maps are those of the field's stack (map m = b * K + k), all of
        them by default; products are their `losses._product_views`, whose
        (U, V) slices hold dL/dA = U @ V map by map.  grad, where the raster
        chain has those products written, is not read: the blob never forms
        dL/dA.  The result is (hi - lo, 5), a view of the surrogate's
        scratch, which the next `chain` call writes over.

        With u = (x - cx)/sx, v = (y - cy)/sy and A the rendered map,
            dA/dcx = A * u / sx = A * (x - cx) / sx^2    dA/dlsx = A * u^2
            dA/dcy = A * v / sy = A * (y - cy) / sy^2    dA/dlsy = A * v^2
            dA/dla = A
        (the log_sigma forms absorb the sigma chain factor d(sigma)/d(log_sigma)
        = sigma), each contracted against dL/dA over the grid.  The map is rank
        one, A = g_y (x) g_x with g_y = exp(la) * exp(-v^2 / 2) and
        g_x = exp(-u^2 / 2), so the five sums are entries of
        r = [g_y, g_y v, g_y v^2] @ dL/dA @ [g_x, g_x u, g_x u^2], whose entry
        (i, j) is the sum of dL/dA * A * v^i * u^j; with dL/dA = U @ V,
        r = (left @ U) @ (V @ right): (3, H) against (H, m), (m, W) against
        (W, 3), then (3, m) against (m, 3), per map.  The partials are
        r[0, 1] / sx, r[1, 0] / sy, r[0, 2], r[2, 0] and r[0, 0].  Weighting by
        u and v rather than dx and dy keeps g * u and g * u^2 below the peak of
        g for any sigma; the centre partials take their 1 / sigma after the
        contraction.
        """
        hi = len(self._left) if hi is None else hi
        start = lo
        for u, v, _ in products:
            end = start + len(u)
            count, width = end - start, u.shape[2]
            size = count * 3 * width
            if len(self._products) < 2 * size:
                self._products = np.empty(2 * len(self._left) * 3 * width)
            left_u = np.matmul(self._left[start:end], u, out=self._products[:size].reshape(count, 3, width))
            v_right = np.matmul(v, self._right[start:end], out=self._products[size : 2 * size].reshape(count, width, 3))
            np.matmul(left_u, v_right, out=self._r[start - lo : end - lo])
            start = end
        count = hi - lo
        # r[0, 1], r[1, 0], r[0, 2], r[2, 0], r[0, 0]: mode "raise" would copy `out`, and these
        # indices are in range, so "clip" never clips
        partials = np.take(self._r[:count].reshape(count, 9), self._entries, axis=1, out=self._partials[:count],
                           mode="clip")
        np.divide(partials[:, :2], self._sigmas[lo:hi], out=partials[:, :2])
        return partials


_SURROGATES = {"raster": _Raster, "blob": _Blob}
MODES = tuple(_SURROGATES)


def _mode_class(mode: str) -> type[_Raster | _Blob]:
    if mode not in MODES:
        raise SurrogateError(f"mode must be one of {MODES}, got {_shown(mode)}")
    return _SURROGATES[mode]


def with_default_step(cfg: GuidanceConfig, mode: str) -> GuidanceConfig:
    """`cfg`, with an unset `eta0` filled in from `mode`'s own `default_eta0`."""
    default_eta0 = _mode_class(mode).default_eta0
    return cfg if cfg.eta0 is not None else cfg.updated(eta0=default_eta0)


def _check_match(latent: LatentState, scene: SceneSpec) -> None:
    expected = _SURROGATES[latent.mode].latent_shape(scene)
    if latent.values.shape != expected:
        raise SurrogateError(
            f"{latent.mode} latent shape {latent.values.shape} != scene shape {expected}"
        )


def init_latent(scene: SceneSpec, mode: str, seed: int) -> LatentState:
    """Seeded deterministic start of `mode`'s latent (see each surrogate's `init`)."""
    return LatentState(mode, _mode_class(mode).init(scene, np.random.default_rng(seed)))


def _surrogate(scene: SceneSpec, mode: str, batch: int) -> _Raster | _Blob:
    return _SURROGATES[mode](scene, batch)


def render_attention(latent: LatentState, scene: SceneSpec) -> AttentionField:
    """Render the full field from the latent state."""
    _check_match(latent, scene)
    surrogate = _surrogate(scene, latent.mode, 1)
    surrogate.render(latent.values[None])
    return AttentionField(maps=surrogate.field()[0])
