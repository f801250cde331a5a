"""Differentiable surrogate that renders attention fields from latent parameters.

Two parametrizations:

* raster: one logit grid per object, rendered as A = exp(logit) so maps stay
  strictly positive and the chain rule back to the logits is a single
  multiplication;
* blob: five parameters per object (center_x, center_y, log_sigma_x,
  log_sigma_y, log_amplitude) rendering an axis-aligned Gaussian at the pixel
  centers.  Log-parametrized scales keep positivity without constraints.
  Such a Gaussian is rank one, amp * g_y (x) g_x, so it renders from
  K * (H + W) one-dimensional exponentials, and its chain rule is two small
  contractions of dL/dA against those 1-D factors (see `_Blob.chain`).

Each mode is one class and owns every fact about it: `latent_shape(scene)`,
its step size `default_eta0`, the seeded start `init(scene, rng)`, then,
built once per run, `render(values, lo, hi)` and `chain(grad, lo, hi)`, the
one pair the run loop and `gradcheck` both drive.  `_SURROGATES` is the
only list of modes.  A surrogate holds the (B, K, H, W) field of B rows,
read as one stack of B * K maps, row after row (map m = b * K + k), and
both calls work on any range lo..hi-1 of that stack, all of it by default:
the run loop renders and chains one tile of maps at a time.  Every map is
rendered and chained exactly as it would be alone, since no arithmetic
mixes maps, and `chain` reads the factors of its maps' last render.

Both classes allocate their buffers once, when a run sets them up, and
write every intermediate of `render` and `chain` into them with `out=`,
so neither allocates an array per call.  `render` returns the surrogate's
own field, whose maps lo..hi-1 it has just written and which the next
`render` of those maps writes over; `chain` returns a view of the
surrogate's scratch (the raster chain writes over the gradient it is
given), which the next `chain` writes over, so a caller reads each result
before it chains again.

Rendered values are strictly positive for finite latents (down to double
underflow for extremely narrow blobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionField, _real_array
from .scene import GuidanceConfig, SceneSpec, pixel_centers

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
    """Render and chain rule of the raster surrogate for `batch` rows, set up once per run.

    Like `_Blob`, it trusts its inputs (callers check shapes and finiteness)
    and renders into one (B, K, H, W) buffer that every `render` call reuses.
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

    def render(self, values: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """exp(logit) of maps lo..hi-1 of the field's stack, all of them by default, written into `maps`.

        values holds the maps' logits in any shape of the same size, as
        (B, K, H, W) for the whole field.
        """
        np.exp(values, out=self._stack[lo:hi].reshape(values.shape))
        return self.maps

    def chain(self, grad: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """dL/dlogit = dL/dA * A (A = exp(logit)) of maps lo..hi-1 of the last render, written over grad.

        As for `_Blob.chain`, the maps are those of the field's stack, all of
        them by default, and grad holds theirs in any shape ending in (H, W).
        """
        grad *= self._stack[lo:hi].reshape(grad.shape)
        return grad


class _Blob:
    """Render and chain rule of the blob surrogate for `batch` rows, set up once per run.

    A blob map is rank one, A_k = g_y,k (x) g_x,k: the 1-D Gaussians
    g_x = exp(-dx^2 / (2 sx^2)) and g_y = exp(la) * exp(-dy^2 / (2 sy^2)) at
    the pixel centres, the amplitude folded into g_y.  `render` keeps the
    factors of the field it writes, and `chain` contracts dL/dA against
    them, so neither evaluates a 2-D exponential or loops over objects.

    Every intermediate has a buffer sized for all B * K maps, allocated
    here: the sigmas, the x and y offsets and 1-D Gaussians, the field and
    both factor stacks for `render`; the products t and r and the partials
    for `chain`.  Both calls slice them to the maps of the call.  The
    arithmetic is that of a fresh array per intermediate, in the same
    order and bit for bit (`tests/reference.py` keeps that form).
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
        # `chain`'s products and partials, sliced to the maps of each call
        self._t = np.empty((n, 3, width))
        self._r = np.empty((n, 3, 3))
        self._partials = np.empty((n, 5))

    def render(self, values: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Maps lo..hi-1 of the field's stack, all of them by default, written into `maps`, with their factors
        for `chain`.

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
        # the field, g_y (x) g_x map by map.  np.multiply buffers its two broadcast operands on every
        # call and is slower; einsum adds each product to a zeroed map, which changes only a -0, and
        # g_y, g_x >= 0
        np.einsum("mi,mj->mij", gy, gx, out=self._stack[lo:hi])
        u = np.divide(dx, sigmas[:, 0:1], out=dx)
        v = np.divide(dy, sigmas[:, 1:2], out=dy)
        # the factor stacks; g * u^2 is formed as g * (u * u)
        right[:, :, 0] = gx
        np.multiply(gx, u, out=right[:, :, 1])
        np.multiply(gy, v, out=left[:, 1])
        np.multiply(d, d, out=d)
        np.multiply(gx, u, out=right[:, :, 2])
        np.multiply(gy, v, out=left[:, 2])
        return self.maps

    def chain(self, grad: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """dL/d(cx, cy, lsx, lsy, la) of maps lo..hi-1 of the last render, from their dL/dA.

        The maps are those of the field's stack (map m = b * K + k), all of
        them by default; grad holds their dL/dA in any shape ending in
        (H, W), and the result has the same leading shape, ending in the
        five partials.  The run loop chains one tile of maps at a time.  The
        result is a view of the surrogate's scratch, which the next `chain`
        call writes over.

        With u = (x - cx)/sx, v = (y - cy)/sy and A the rendered map,
            dA/dcx = A * u / sx = A * (x - cx) / sx^2    dA/dlsx = A * u^2
            dA/dcy = A * v / sy = A * (y - cy) / sy^2    dA/dlsy = A * v^2
            dA/dla = A
        (the log_sigma forms absorb the sigma chain factor d(sigma)/d(log_sigma)
        = sigma), each contracted against dL/dA over the grid.  The map is rank
        one, A = g_y (x) g_x with g_y = exp(la) * exp(-v^2 / 2) and
        g_x = exp(-u^2 / 2), so the five sums come from two small products per
        object: t = [g_y, g_y v, g_y v^2] @ dL/dA, (3, H) against (H, W), then
        r = t @ [g_x, g_x u, g_x u^2], (3, W) against (W, 3).  Entry (i, j) of r
        is the sum of dL/dA * A * v^i * u^j, so the partials are r[0, 1] / sx,
        r[1, 0] / sy, r[0, 2], r[2, 0] and r[0, 0].  Weighting by u and v rather
        than dx and dy keeps g * u and g * u^2 below the peak of g for any sigma;
        the centre partials take their 1 / sigma after the contraction.
        """
        left = self._left[lo:hi]
        count = len(left)
        # t[m, i, x] = sum_y (g_y, g_y v, g_y v^2)[m, i, y] * dL/dA[m, y, x], over the maps m
        t = np.matmul(left, grad.reshape(-1, *self._stack.shape[1:]), out=self._t[:count])
        # r[m, i, j] = sum_x t[m, i, x] * (g_x, g_x u, g_x u^2)[m, x, j]
        r = np.matmul(t, self._right[lo:hi], out=self._r[:count])
        # r[0, 1], r[1, 0], r[0, 2], r[2, 0], r[0, 0]: mode "raise" would copy `out`, and these
        # indices are in range, so "clip" never clips
        partials = np.take(r.reshape(count, 9), self._entries, axis=1, out=self._partials[:count], mode="clip")
        np.divide(partials[:, :2], self._sigmas[lo:hi], out=partials[:, :2])
        return partials.reshape(*grad.shape[:-2], 5)


_SURROGATES = {"raster": _Raster, "blob": _Blob}
MODES = tuple(_SURROGATES)


def _mode_class(mode: str) -> type[_Raster | _Blob]:
    if mode not in MODES:
        raise SurrogateError(f"mode must be one of {MODES}, got {mode!r}")
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
    return AttentionField(maps=_surrogate(scene, latent.mode, 1).render(latent.values[None])[0])
