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

Each mode is one class and owns every fact about it: `latent_shape(scene)`
and the seeded start `init(scene, rng)`, then, built once per run,
`render(values)` and `chain(grad)`, the one pair the run loop and
`gradcheck` both drive.  `_SURROGATES` is the only list of modes.

Rendered values are strictly positive for finite latents (down to double
underflow for extremely narrow blobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionField
from .scene import SceneSpec, pixel_centers

JITTER = 0.05  # half-width of the uniform jitter on initial blob centres


class SurrogateError(ValueError):
    """Raised for invalid latent states or mismatched shapes."""


@dataclass(frozen=True)
class LatentState:
    """Latent parameters: (K, H, W) logits in raster mode, (K, 5) in blob mode."""

    mode: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SurrogateError(f"mode must be one of {MODES}, got {self.mode!r}")
        arr = np.asarray(self.values, dtype=np.float64)
        if self.mode == "raster" and arr.ndim != 3:
            raise SurrogateError(f"raster latent must be (K, H, W), got {arr.shape}")
        if self.mode == "blob" and (arr.ndim != 2 or arr.shape[1] != 5):
            raise SurrogateError(f"blob latent must be (K, 5), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise SurrogateError("latent contains non-finite entries")
        object.__setattr__(self, "values", arr)


class _Raster:
    """Render and chain rule of the raster surrogate, set up once per run.

    Like `_Blob`, it trusts its inputs (callers check shapes and finiteness)
    and renders into one buffer that every `render` call reuses.
    """

    @staticmethod
    def latent_shape(scene: SceneSpec) -> tuple[int, ...]:
        return (len(scene.objects), scene.grid_height, scene.grid_width)

    @staticmethod
    def init(scene: SceneSpec, rng: np.random.Generator) -> np.ndarray:
        """Logits i.i.d. uniform in [-1, 1]."""
        return rng.uniform(-1.0, 1.0, size=_Raster.latent_shape(scene))

    def __init__(self, scene: SceneSpec):
        self.maps = np.empty((len(scene.objects), scene.grid_height, scene.grid_width))

    def render(self, values: np.ndarray) -> np.ndarray:
        return np.exp(values, out=self.maps)

    def chain(self, grad: np.ndarray) -> np.ndarray:
        """dL/dlogit = dL/dA * A (A = exp(logit)), from the last render, written over grad."""
        grad *= self.maps
        return grad


class _Blob:
    """Render and chain rule of the blob surrogate, set up once per run.

    A blob map is rank one, A_k = g_y,k (x) g_x,k: the 1-D Gaussians
    g_x = exp(-dx^2 / (2 sx^2)) and g_y = exp(la) * exp(-dy^2 / (2 sy^2)) at
    the pixel centres, the amplitude folded into g_y.  `render` keeps the
    factors of the field it writes, and `chain` contracts dL/dA against
    them, so neither evaluates a 2-D exponential or loops over objects.
    """

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

    def __init__(self, scene: SceneSpec):
        self.maps = np.empty((len(scene.objects), scene.grid_height, scene.grid_width))
        self.px = pixel_centers(scene.grid_width)
        self.py = pixel_centers(scene.grid_height)
        self._factors: tuple = ()

    def render(self, values: np.ndarray) -> np.ndarray:
        # (K, 1) columns against the (W,) and (H,) centres give (K, W) and (K, H)
        cx, cy, lsx, lsy, la = values.T[:, :, None]
        dx, dy = self.px - cx, self.py - cy
        sx, sy = np.exp(lsx), np.exp(lsy)
        gx = np.exp(-(dx**2 / (2 * sx**2)))
        gy = np.exp(la) * np.exp(-(dy**2 / (2 * sy**2)))
        np.multiply(gy[:, :, None], gx[:, None, :], out=self.maps)
        self._factors = (gx, dx / sx, sx[:, 0], gy, dy / sy, sy[:, 0])
        return self.maps

    def chain(self, grad: np.ndarray) -> np.ndarray:
        """dL/d(cx, cy, lsx, lsy, la) from dL/dA, on the factors of the last render.

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
        gx, u, sx, gy, v, sy = self._factors
        # t[k, i, x] = sum_y (g_y, g_y v, g_y v^2)[k, i, y] * dL/dA[k, y, x]
        t = np.stack((gy, gy * v, gy * v**2), axis=1) @ grad
        # r[k, i, j] = sum_x t[k, i, x] * (g_x, g_x u, g_x u^2)[k, x, j]
        r = t @ np.stack((gx, gx * u, gx * u**2), axis=2)
        return np.stack((r[:, 0, 1] / sx, r[:, 1, 0] / sy, r[:, 0, 2], r[:, 2, 0], r[:, 0, 0]), axis=1)


_SURROGATES = {"raster": _Raster, "blob": _Blob}
MODES = tuple(_SURROGATES)


def _check_match(latent: LatentState, scene: SceneSpec) -> None:
    expected = _SURROGATES[latent.mode].latent_shape(scene)
    if latent.values.shape != expected:
        raise SurrogateError(
            f"{latent.mode} latent shape {latent.values.shape} != scene shape {expected}"
        )


def init_latent(scene: SceneSpec, mode: str, seed: int) -> LatentState:
    """Seeded deterministic start of `mode`'s latent (see each surrogate's `init`)."""
    if mode not in _SURROGATES:
        raise SurrogateError(f"mode must be one of {MODES}, got {mode!r}")
    return LatentState(mode, _SURROGATES[mode].init(scene, np.random.default_rng(seed)))


def _surrogate(scene: SceneSpec, mode: str) -> _Raster | _Blob:
    return _SURROGATES[mode](scene)


def render_attention(latent: LatentState, scene: SceneSpec) -> AttentionField:
    """Render the full field from the latent state."""
    _check_match(latent, scene)
    return AttentionField(maps=_surrogate(scene, latent.mode).render(latent.values))
