"""Finite-difference verification of the analytic gradients.

The oracle takes central differences of the forward loss with the perturbed
object's terms evaluated in extended precision (80-bit long double where the
platform provides it).  Terms not involving the perturbed map are constants
of the difference and are omitted, which removes their rounding noise from
the quotient without changing the derivative being measured.

A coordinate passes when |analytic - fd| <= max(abs_tol, rel_tol * ref) with
ref = max(|analytic|, |fd|): the relative criterion for significant
gradients, an absolute floor for near-zero ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import coord_grid
from .losses import (
    alignment_ratio,
    arbitration_weight,
    attention_energies,
    grad_staged_loss,
    interference,
)
from .scene import GuidanceConfig, SceneObject, SceneSpec, derive_occlusion_pairs, scene_masks
from .surrogate import LatentState, _blob_map, backprop_to_latent, init_latent, render_attention

LONG = np.longdouble
FD_STEP = 1e-6
DEFAULT_REL_TOL = 1e-5


@dataclass(frozen=True)
class CoordReport:
    space: str  # "attention" | "latent"
    object_index: int
    coordinate: tuple[int, ...]
    analytic: float
    fd: float
    abs_err: float
    rel_err: float
    ok: bool


@dataclass
class GradCheckResult:
    mode: str
    stage: int
    seed: int
    checked: int = 0
    failures: list[CoordReport] = field(default_factory=list)
    worst_rel: float = 0.0
    worst_abs: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def absorb(self, report: CoordReport) -> None:
        self.checked += 1
        self.worst_rel = max(self.worst_rel, report.rel_err)
        self.worst_abs = max(self.worst_abs, report.abs_err)
        if not report.ok:
            self.failures.append(report)


def _restricted_loss(
    map_k: np.ndarray,
    mask_k: np.ndarray,
    depth_k: float,
    fg_terms: list[tuple[np.ndarray, float]],
    coords,
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
    mu_x = (norm * coords.x).sum()
    mu_y = (norm * coords.y).sum()
    var = (norm * ((coords.x - mu_x) ** 2 + (coords.y - mu_y) ** 2)).sum()
    return value + cfg.lambda_compact * depth_k * var


def _judge(
    space: str,
    k: int,
    coordinate: tuple[int, ...],
    analytic: float,
    fd: float,
    rel_tol: float,
    abs_tol: float,
) -> CoordReport:
    abs_err = abs(analytic - fd)
    ref = max(abs(analytic), abs(fd))
    rel_err = abs_err / ref if ref > 1e-10 else 0.0
    ok = abs_err <= max(abs_tol, rel_tol * ref)
    return CoordReport(space, k, coordinate, analytic, fd, abs_err, rel_err, ok)


def check_gradients(
    scene: SceneSpec,
    cfg: GuidanceConfig,
    mode: str,
    stage: int,
    seed: int,
    samples: int = 1000,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float | None = None,
    latent: LatentState | None = None,
) -> GradCheckResult:
    """Compare analytic gradients against the extended-precision FD oracle.

    Checks `samples` attention-space coordinates plus `samples` latent-space
    coordinates (capped at the latent size) on a seeded surrogate state.
    """
    if abs_tol is None:
        abs_tol = rel_tol * 1e-4
    result = GradCheckResult(mode=mode, stage=stage, seed=seed)
    rng = np.random.default_rng(seed)
    if latent is None:
        latent = init_latent(scene, mode, seed)
    field_ = render_attention(latent, scene)
    pairs = derive_occlusion_pairs(scene)
    masks = scene_masks(scene)
    depths = scene.depths()
    coords_ld = coord_grid(scene.grid_height, scene.grid_width, dtype=LONG)
    h = LONG(FD_STEP)

    # per object: the (foreground mask, lambda_ij) of every pair it backs
    pair_idx = [(scene.index_of(p.foreground_id), scene.index_of(p.background_id)) for p in pairs]
    fg_terms_by_obj: list[list[tuple[np.ndarray, float]]] = [[] for _ in scene.objects]
    for fg, bg in pair_idx:
        fg_terms_by_obj[bg].append((masks[fg], arbitration_weight(depths[fg], depths[bg], cfg)))

    def fd_attention(k: int, y: int, x: int) -> float:
        base = field_.maps[k].astype(LONG)
        vals = []
        for sign in (+1.0, -1.0):
            pert = base.copy()
            pert[y, x] += LONG(sign) * h
            vals.append(
                _restricted_loss(
                    pert, masks[k], depths[k], fg_terms_by_obj[k], coords_ld, cfg, stage
                )
            )
        return float((vals[0] - vals[1]) / (2 * h))

    def fd_latent(k: int, coordinate: tuple[int, ...]) -> float:
        base = latent.values.astype(LONG)
        vals = []
        for sign in (+1.0, -1.0):
            pert = base.copy()
            pert[(k, *coordinate)] += LONG(sign) * h
            if mode == "raster":
                map_k = np.exp(pert[k])
            else:
                map_k = _blob_map(pert[k], coords_ld.x, coords_ld.y)
            vals.append(
                _restricted_loss(
                    map_k, masks[k], depths[k], fg_terms_by_obj[k], coords_ld, cfg, stage
                )
            )
        return float((vals[0] - vals[1]) / (2 * h))

    grad_att = grad_staged_loss(field_, scene, pairs, cfg, stage)
    grad_lat = backprop_to_latent(latent, scene, grad_att)

    k_count, height, width = field_.maps.shape
    for _ in range(samples):
        k = int(rng.integers(k_count))
        y = int(rng.integers(height))
        x = int(rng.integers(width))
        result.absorb(
            _judge("attention", k, (y, x), float(grad_att[k, y, x]), fd_attention(k, y, x), rel_tol, abs_tol)
        )

    if mode == "raster":
        for _ in range(samples):
            k = int(rng.integers(k_count))
            y = int(rng.integers(height))
            x = int(rng.integers(width))
            result.absorb(
                _judge("latent", k, (y, x), float(grad_lat[k, y, x]), fd_latent(k, (y, x)), rel_tol, abs_tol)
            )
    else:
        for k in range(k_count):
            for p in range(5):
                result.absorb(
                    _judge("latent", k, (p,), float(grad_lat[k, p]), fd_latent(k, (p,)), rel_tol, abs_tol)
                )
    return result


def random_scene(seed: int, size: int = 32, min_objects: int = 2, max_objects: int = 4) -> SceneSpec:
    """Seeded random scene for gradient-check sweeps."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(min_objects, max_objects + 1))
    objects = []
    for i in range(count):
        w = float(rng.uniform(0.25, 0.6))
        hgt = float(rng.uniform(0.25, 0.6))
        x0 = float(rng.uniform(0.0, 1.0 - w))
        y0 = float(rng.uniform(0.0, 1.0 - hgt))
        objects.append(
            SceneObject(
                id=i,
                label=f"obj{i}",
                bbox=(x0, y0, x0 + w, y0 + hgt),
                depth=float(rng.uniform(0.0, 1.0)),
            )
        )
    return SceneSpec(grid_height=size, grid_width=size, objects=tuple(objects))


def random_field_latent(scene: SceneSpec, seed: int) -> LatentState:
    """Raster latent whose rendered maps have entries spread across [0, 2]."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(1e-3, 2.0, size=(len(scene.objects), scene.grid_height, scene.grid_width))
    return LatentState(mode="raster", values=np.log(uniform))
