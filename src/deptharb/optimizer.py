"""Staged latent-optimization loop: stage schedule, step sizes, trajectory.

Each step renders the field once, evaluates the stage objective and its
gradient in one kernel call, backpropagates to the latent through the same
rendered maps and takes a plain gradient-descent step z <- z - eta_t * g
with eta_t = eta0 * eta_decay^t, in place on the run's own copy of the
latent.  The trajectory records one evaluation per step plus a final
evaluation of the end state, so its length is total_steps + 1.

Inputs are validated at the boundaries: the scene, config and starting
latent on entry, the final latent and field when they are wrapped for the
caller.  Inside the loop every intermediate only has its finiteness
checked, in order (rendered field, loss, gradient, latent gradient, latent
update), and the first failure aborts with the step it happened at; numpy's
floating-point warnings are silenced inside the loop, so that abort is all a
diverging run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionField
from .losses import LossBreakdown, _plan, _values, value_and_grad
from .scene import GuidanceConfig, SceneSpec, derive_occlusion_pairs
from .surrogate import LatentState, _check_match, _surrogate


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


def _check_finite(values: np.ndarray, step: int, what: str) -> None:
    if not np.isfinite(values).all():
        raise NumericalAbort(step, what)


def run_guidance(scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState) -> Trajectory:
    """Run the full staged optimization from latent0 (left unchanged).

    Deterministic given (scene, cfg, latent0).  The loss geometry and the
    surrogate are set up once; each step then renders once and makes one
    value-and-gradient call.  The last pass, t == total_steps, evaluates the
    end state's values only, without a gradient or an update.
    """
    _check_match(latent0, scene)
    plan = _plan(scene, derive_occlusion_pairs(scene), cfg)
    surrogate = _surrogate(scene, latent0.mode)
    z = latent0.values.copy()
    records: list[StepRecord] = []

    # a diverging run turns intermediates inf/nan; every one is checked below
    # and reported as an abort, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for t in range(cfg.total_steps + 1):
            last = t == cfg.total_steps
            stage = _final_stage(cfg) if last else stage_of(t, cfg)
            eta = step_size(t, cfg)
            maps = surrogate.render(z)
            _check_finite(maps, t, "rendered field")
            if last:
                breakdown = _values(maps, plan, stage)[0]
            else:
                breakdown, grad = value_and_grad(maps, plan, stage)
            if not math.isfinite(breakdown.total):
                raise NumericalAbort(t, "loss")
            records.append(StepRecord(step=t, stage=stage, eta=eta, breakdown=breakdown))
            if last:
                break
            _check_finite(grad, t, "gradient")
            latent_grad = surrogate.chain(z, maps, grad)
            _check_finite(latent_grad, t, "latent gradient")
            # z - eta * g, rounded as written, through the gradient's own buffer
            np.multiply(latent_grad, eta, out=latent_grad)
            np.subtract(z, latent_grad, out=z)
            _check_finite(z, t, "latent update")

    return Trajectory(
        records=records,
        final_latent=LatentState(mode=latent0.mode, values=z),
        final_field=AttentionField(maps=maps),
    )
