"""Differentiable surrogate that renders attention fields from latent parameters.

Two parametrizations:

* raster: one logit grid per object, rendered as A = exp(logit) so maps stay
  strictly positive and the chain rule back to the logits is a single
  multiplication;
* blob: five parameters per object (center_x, center_y, log_sigma_x,
  log_sigma_y, log_amplitude) rendering an axis-aligned Gaussian at the pixel
  centers.  Log-parametrized scales keep positivity without constraints.

Rendered values are strictly positive for finite latents (down to double
underflow for extremely narrow blobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionField
from .scene import SceneSpec, pixel_centers

MODES = ("raster", "blob")


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


def _check_match(latent: LatentState, scene: SceneSpec) -> None:
    k = len(scene.objects)
    if latent.mode == "raster":
        expected = (k, scene.grid_height, scene.grid_width)
        if latent.values.shape != expected:
            raise SurrogateError(
                f"raster latent shape {latent.values.shape} != scene shape {expected}"
            )
    else:
        if latent.values.shape != (k, 5):
            raise SurrogateError(
                f"blob latent shape {latent.values.shape} != ({k}, 5)"
            )


def init_latent(scene: SceneSpec, mode: str, seed: int, jitter: float = 0.05) -> LatentState:
    """Seeded deterministic initialization.

    raster: logits i.i.d. uniform in [-1, 1].  blob: centers at box centers
    (plus uniform jitter of +/- `jitter`), sigmas at a quarter of the box
    extent, amplitude 1.  jitter=0 gives the seed-independent deterministic
    variant.
    """
    rng = np.random.default_rng(seed)
    k = len(scene.objects)
    if mode == "raster":
        values = rng.uniform(-1.0, 1.0, size=(k, scene.grid_height, scene.grid_width))
        return LatentState(mode=mode, values=values)

    values = np.zeros((k, 5), dtype=np.float64)
    for i, obj in enumerate(scene.objects):
        x0, y0, x1, y1 = obj.bbox
        values[i, 0] = (x0 + x1) / 2.0
        values[i, 1] = (y0 + y1) / 2.0
        values[i, 2] = np.log((x1 - x0) / 4.0)
        values[i, 3] = np.log((y1 - y0) / 4.0)
        values[i, 4] = 0.0
    values[:, 0:2] += rng.uniform(-1.0, 1.0, size=(k, 2)) * jitter
    return LatentState(mode=mode, values=values)


def _blob_map(params: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Gaussian map exp(la) * exp(-((x-cx)^2/(2 sx^2) + (y-cy)^2/(2 sy^2)))."""
    cx, cy, lsx, lsy, la = params
    sx = np.exp(lsx)
    sy = np.exp(lsy)
    return np.exp(la) * np.exp(-((px - cx) ** 2 / (2 * sx**2) + (py - cy) ** 2 / (2 * sy**2)))


class _Raster:
    """Render and chain rule of the raster surrogate, set up once per run.

    Like `_Blob`, it trusts its inputs (callers check shapes and finiteness)
    and renders into one buffer that every `render` call reuses.
    """

    def __init__(self, scene: SceneSpec):
        self.maps = np.empty((len(scene.objects), scene.grid_height, scene.grid_width))

    def render(self, values: np.ndarray) -> np.ndarray:
        return np.exp(values, out=self.maps)

    @staticmethod
    def chain(values: np.ndarray, maps: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """dL/dlogit = dL/dA * A, written over grad."""
        grad *= maps
        return grad


class _Blob:
    """Render and chain rule of the blob surrogate, set up once per run."""

    def __init__(self, scene: SceneSpec):
        self.maps = np.empty((len(scene.objects), scene.grid_height, scene.grid_width))
        # (1, W) and (H, 1) centres broadcast to the grid with the same
        # per-pixel arithmetic as full (H, W) coordinate arrays
        self.px = pixel_centers(scene.grid_width)[None, :]
        self.py = pixel_centers(scene.grid_height)[:, None]

    def render(self, values: np.ndarray) -> np.ndarray:
        for i, params in enumerate(values):
            self.maps[i] = _blob_map(params, self.px, self.py)
        return self.maps

    def chain(self, values: np.ndarray, maps: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The five contractions of dL/dA against the rendered maps (see backprop_to_latent)."""
        out = np.zeros_like(values)
        for i in range(len(values)):
            cx, cy, lsx, lsy, _ = values[i]
            sx = np.exp(lsx)
            sy = np.exp(lsy)
            ga = grad[i] * maps[i]
            dx = self.px - cx
            dy = self.py - cy
            out[i, 0] = (ga * dx).sum() / sx**2
            out[i, 1] = (ga * dy).sum() / sy**2
            out[i, 2] = (ga * dx**2).sum() / sx**2
            out[i, 3] = (ga * dy**2).sum() / sy**2
            out[i, 4] = ga.sum()
        return out


def _surrogate(scene: SceneSpec, mode: str) -> _Raster | _Blob:
    return _Raster(scene) if mode == "raster" else _Blob(scene)


def render_attention(latent: LatentState, scene: SceneSpec) -> AttentionField:
    """Render the full field from the latent state."""
    _check_match(latent, scene)
    return AttentionField(maps=_surrogate(scene, latent.mode).render(latent.values))


def backprop_to_latent(
    latent: LatentState, scene: SceneSpec, grad_field: np.ndarray
) -> np.ndarray:
    """Chain attention-space gradients back to the latent parameters.

    raster: dL/dlogit = dL/dA * A (A = exp(logit)).

    blob: with u = (x - cx)/sx, v = (y - cy)/sy and A the rendered map,
        dA/dcx = A * (x - cx) / sx^2        dA/dlsx = A * (x - cx)^2 / sx^2
        dA/dcy = A * (y - cy) / sy^2        dA/dlsy = A * (y - cy)^2 / sy^2
        dA/dla = A
    (the log_sigma forms absorb the sigma chain factor d(sigma)/d(log_sigma)
    = sigma), each contracted against dL/dA over the grid.
    """
    _check_match(latent, scene)
    expected = (len(scene.objects), scene.grid_height, scene.grid_width)
    if np.shape(grad_field) != expected:
        raise SurrogateError(f"grad shape {np.shape(grad_field)} != field shape {expected}")
    surrogate = _surrogate(scene, latent.mode)
    maps = surrogate.render(latent.values)
    # a copy: the raster chain rule overwrites the gradient it is given
    return surrogate.chain(latent.values, maps, np.array(grad_field, dtype=np.float64))
