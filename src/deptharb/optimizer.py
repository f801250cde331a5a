"""Staged latent-optimization loop: stage schedule, step sizes, trajectory.

Each step renders the field, evaluates the stage objective, backpropagates
the analytic gradient to the latent and takes a plain gradient-descent step
z <- z - eta_t * g with eta_t = eta0 * eta_decay^t.  The trajectory records
one evaluation per step plus a final evaluation of the end state, so its
length is total_steps + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionError, AttentionField
from .losses import LossBreakdown, _plan, value_and_grad
from .scene import GuidanceConfig, SceneSpec, derive_occlusion_pairs
from .surrogate import LatentState, SurrogateError, backprop_to_latent, render_attention


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient stops being finite; carries the step index."""

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass(frozen=True)
class StepRecord:
    step: int
    stage: int
    eta: float
    breakdown: LossBreakdown


@dataclass
class Trajectory:
    records: list[StepRecord]
    final_latent: LatentState
    final_field: AttentionField

    @property
    def final_breakdown(self) -> LossBreakdown:
        return self.records[-1].breakdown


def _stage1_steps(cfg: GuidanceConfig) -> int:
    return int(math.floor(cfg.stage1_fraction * cfg.total_steps))


def stage_of(step: int, cfg: GuidanceConfig) -> int:
    """Stage 1 iff step < floor(stage1_fraction * total_steps), else stage 2."""
    if not 0 <= step < cfg.total_steps:
        raise ValueError(f"step {step} out of range [0, {cfg.total_steps})")
    return 1 if step < _stage1_steps(cfg) else 2


def step_size(step: int, cfg: GuidanceConfig) -> float:
    """Geometric schedule eta0 * eta_decay^step."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return cfg.eta0 * cfg.eta_decay**step


def _final_stage(cfg: GuidanceConfig) -> int:
    # stage label for the trailing evaluation record
    if cfg.total_steps >= 1:
        return stage_of(cfg.total_steps - 1, cfg)
    return 1 if cfg.stage1_fraction > 0 else 2


def _render_checked(latent: LatentState, scene: SceneSpec, step: int) -> AttentionField:
    # a diverging latent renders to inf/nan; report it as a numerical abort
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return render_attention(latent, scene)
    except AttentionError as exc:
        raise NumericalAbort(step, "rendered field") from exc


def run_guidance(scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState) -> Trajectory:
    """Run the full staged optimization from latent0.

    Deterministic given (scene, cfg, latent0).  The loss geometry is planned
    once; each step then makes one value-and-gradient call.
    """
    plan = _plan(scene, derive_occlusion_pairs(scene), cfg)
    latent = latent0
    records: list[StepRecord] = []

    for t in range(cfg.total_steps):
        stage = stage_of(t, cfg)
        eta = step_size(t, cfg)
        field = _render_checked(latent, scene, t)
        breakdown, grad = value_and_grad(field.maps, plan, stage)
        if not math.isfinite(breakdown.total):
            raise NumericalAbort(t, "loss")
        records.append(StepRecord(step=t, stage=stage, eta=eta, breakdown=breakdown))
        if not np.isfinite(grad).all():
            raise NumericalAbort(t, "gradient")
        latent_grad = backprop_to_latent(latent, scene, grad)
        if not np.isfinite(latent_grad).all():
            raise NumericalAbort(t, "latent gradient")
        try:
            latent = latent.with_values(latent.values - eta * latent_grad)
        except SurrogateError as exc:
            raise NumericalAbort(t, "latent update") from exc

    final_field = _render_checked(latent, scene, cfg.total_steps)
    stage = _final_stage(cfg)
    breakdown, _ = value_and_grad(final_field.maps, plan, stage)
    if not math.isfinite(breakdown.total):
        raise NumericalAbort(cfg.total_steps, "loss")
    records.append(
        StepRecord(
            step=cfg.total_steps,
            stage=stage,
            eta=step_size(cfg.total_steps, cfg),
            breakdown=breakdown,
        )
    )
    return Trajectory(records=records, final_latent=latent, final_field=final_field)
