"""Staged latent-optimization loop: stage schedule, step sizes, trajectory.

Each step renders the field once, evaluates the stage objective and its
gradient in one kernel call, backpropagates to the latent through the same
rendered maps and takes a plain gradient-descent step z <- z - eta_t * g
with eta_t = eta0 * eta_decay^t, in place on the run's own copy of the
latent.  The schedule of every pass's (stage, eta_t) is built once per
run, before the first step, as the loss plan is.  The trajectory records
one evaluation per step plus a final evaluation of the end state, so its
length is total_steps + 1.

Inputs are validated at the boundaries: the scene, config and starting
latent on entry, the final latent and field when they are wrapped for the
caller.  Inside the loop every intermediate only has its finiteness
checked, in order (rendered field, loss, gradient, latent gradient, latent
update), and the first failure aborts with the step it happened at; numpy's
floating-point warnings are silenced inside the loop, so that abort is all a
diverging run reports.

The guards give the verdicts of a literal np.isfinite(x).all() on each
intermediate, at less cost.  An array is cleared by one dot product, the
finite sum of its squares, and scanned only when that sum is not finite
(`_all_finite`).  The rendered field is not read at all while every map's
total S = e_in + e_out, which the loss reduces anyway, is finite: S is
finite only if all of the map's entries are.  A non-finite S scans the
field after the loss kernel has run on it; a field that passes the scan
(finite entries whose sum overflows) goes on to the loss check, as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionField
from .losses import LossBreakdown, _plan, _values, value_and_grad
from .scene import ConfigError, GuidanceConfig, SceneSpec, derive_occlusion_pairs
from .surrogate import LatentState, _check_match, _surrogate, with_default_step


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
    if cfg.eta0 is None:
        raise ConfigError("eta0 is not set: fill in the mode's default with surrogate.with_default_step")
    return cfg.eta0 * cfg.eta_decay**step


def _final_stage(cfg: GuidanceConfig) -> int:
    # stage label for the trailing evaluation record
    if cfg.total_steps >= 1:
        return stage_of(cfg.total_steps - 1, cfg)
    return 1 if cfg.stage1_fraction > 0 else 2


def _all_finite(values: np.ndarray) -> bool:
    """np.isfinite(values).all(), in one pass for the usual, finite case.

    A NaN or infinite entry makes the sum of squares NaN or +inf, so a
    finite sum clears the array with one dot product and no temporary bool
    array.  A non-finite sum (a real fault, or finite entries whose squares
    overflow, above about 1e154) falls back to the literal scan, so the
    verdict is the same for every array.  An overflowing dot product warns,
    so it is called inside the loop's silenced floating-point state.
    """
    flat = values.reshape(-1)
    return math.isfinite(flat @ flat) or bool(np.isfinite(flat).all())


def _check_finite(values: np.ndarray, step: int, what: str) -> None:
    if not _all_finite(values):
        raise NumericalAbort(step, what)


def run_guidance(scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState) -> Trajectory:
    """Run the full staged optimization from latent0 (left unchanged).

    Deterministic given (scene, cfg, latent0).  An unset `cfg.eta0` is the
    default step of latent0's mode.  The loss plan, the surrogate and the
    (stage, eta) schedule are set up once; each step then renders
    once and makes one value-and-gradient call.  The last pass,
    t == total_steps, evaluates the end state's values only, without a
    gradient or an update.
    """
    _check_match(latent0, scene)
    cfg = with_default_step(cfg, latent0.mode)
    plan = _plan(scene, derive_occlusion_pairs(scene), cfg)
    surrogate = _surrogate(scene, latent0.mode)
    z = latent0.values.copy()
    records: list[StepRecord] = []
    schedule = [(stage_of(t, cfg), step_size(t, cfg)) for t in range(cfg.total_steps)]
    schedule.append((_final_stage(cfg), step_size(cfg.total_steps, cfg)))

    # a diverging run turns intermediates inf/nan; every one is checked below
    # and reported as an abort, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for t, (stage, eta) in enumerate(schedule):
            last = t == cfg.total_steps
            maps = surrogate.render(z)
            if last:
                breakdown = _values(maps, plan, stage)[0]
            else:
                breakdown, grad = value_and_grad(maps, plan, stage)
            # every entry lies in one map's total S = e_in + e_out, finite only
            # if all of its entries are; only a non-finite S scans the field
            if not np.isfinite(breakdown.e_in + breakdown.e_out).all():
                _check_finite(maps, t, "rendered field")
            if not math.isfinite(breakdown.total):
                raise NumericalAbort(t, "loss")
            records.append(StepRecord(step=t, stage=stage, eta=eta, breakdown=breakdown))
            if last:
                break
            _check_finite(grad, t, "gradient")
            latent_grad = surrogate.chain(grad)
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
