"""Staged latent-optimization loop: stage schedule, step sizes, trajectory.

The loop steps B rows in lockstep (`run_rows`): one config per row, all
from the same starting latent, as a sweep's rows are, a chunk of rows of at
most _CHUNK_ENTRIES field entries at a time; `run_guidance` is its B = 1
call.  Each step renders every row's field once, evaluates each row's
stage objective and its gradient in one kernel call, backpropagates to the
latent through the same rendered maps and takes a plain gradient-descent
step z <- z - eta_t * g with eta_t = eta0 * eta_decay^t, in place on the
run's own copy of the latent.  The schedule of every pass's per-row
(stage, eta_t) is built once per chunk, before its first step, as the loss
plan is; rows may be in different stages at one step.  Each trajectory
records one evaluation per step plus a final evaluation of the end state,
so its length is total_steps + 1.

Inputs are validated at the boundaries: the scene, config and starting
latent on entry, the final latent and field when they are wrapped for the
caller.  Inside the loop every intermediate only has its finiteness
checked, row by row and in order (rendered field, loss, gradient, latent
gradient, latent update), and a row's first failure ends that row with the
step it happened at; the other rows go on.  numpy's floating-point
warnings are silenced inside the loop, so that abort is all a diverging
row reports.

The guards give the verdicts of a literal np.isfinite(x).all() on each
row's intermediate, at less cost.  An array is cleared by one dot product,
the finite sum of its squares, and scanned only when that sum is not finite
(`_all_finite`).  The rendered field is not read at all while the row's
loss total is finite.  Each map's total S = e_in + e_out, which the loss
reduces anyway, is finite only if all of the map's entries are, and a
non-finite S makes that map's f, and with it the total, NaN; so a finite
total clears the field and the loss at once.  A non-finite total checks S,
and a non-finite S scans the row's field; a field that passes the scan
(finite entries whose sum overflows) is a loss abort, as is a finite S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .attention import AttentionField
from .losses import LossBreakdown, _Plan, _pair_coefficients, _plan, _values, value_and_grad
from .scene import ConfigError, GuidanceConfig, SceneSpec, derive_occlusion_pairs
from .surrogate import LatentState, _check_match, _surrogate, with_default_step


# the rows a run steps together hold at most this many field entries
# (B * K * H * W) between them, so its scratch does not grow with its number
# of rows; a row larger than this runs alone
_CHUNK_ENTRIES = 1 << 20


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


def _guard(values: np.ndarray, live: list[int], step: int, what: str, aborts: list) -> None:
    """Abort at `step` each live row, not yet aborted, whose `values[b]` are not all finite.

    Each row is its own dot product: one over the whole batch would be long
    enough for the BLAS to thread it, and its spinning workers would slow
    the step's next ufunc.
    """
    for b in live:
        if aborts[b] is None and not _all_finite(values[b]):
            aborts[b] = NumericalAbort(step, what)


def _schedule(cfgs: Sequence[GuidanceConfig]) -> tuple[list[tuple[int, ...]], list[list[float]]]:
    """Each pass's stage and step size per row, for passes t = 0..total_steps.

    The last pass only evaluates the end state; its stage is _final_stage.
    """
    steps = cfgs[0].total_steps
    stages = list(zip(*([stage_of(t, cfg) for t in range(steps)] + [_final_stage(cfg)] for cfg in cfgs)))
    return stages, [[step_size(t, cfg) for cfg in cfgs] for t in range(steps + 1)]


def run_rows(
    scene: SceneSpec, cfgs: Sequence[GuidanceConfig], latent0: LatentState
) -> Iterator[Trajectory | NumericalAbort]:
    """Run every config from latent0 (left unchanged) in lockstep; yield each row's outcome, in order.

    A row's outcome is its trajectory or the abort that ended it, bit for
    bit the run of its config alone: the rows share the rendering, the
    kernel and the latent update of each step, and no arithmetic mixes
    rows.  An unset eta0 is the default step of latent0's mode; every row
    needs the same total_steps.

    Every config is checked before this returns, so a bad one is rejected
    before any row runs.  The rows are stepped as the iterator reaches
    them, a chunk at a time: as many rows as hold _CHUNK_ENTRIES field
    entries, and at least one.  So the run's memory does not grow with its
    number of rows, and a caller that stops at a failing row never steps
    the chunks after it.
    """
    _check_match(latent0, scene)
    cfgs = [with_default_step(cfg, latent0.mode) for cfg in cfgs]
    if len({cfg.total_steps for cfg in cfgs}) > 1:
        raise ValueError("rows run in lockstep, so every row needs the same total_steps")
    pairs = derive_occlusion_pairs(scene)
    # in row order: the first config whose pair coefficients are not finite raises
    for cfg in cfgs:
        _pair_coefficients(scene, pairs, cfg)
    size = max(1, _CHUNK_ENTRIES // (len(scene.objects) * scene.grid_height * scene.grid_width))
    return (
        outcome
        for lo in range(0, len(cfgs), size)
        for outcome in _run_chunk(scene, _plan(scene, pairs, cfgs[lo : lo + size]), latent0)
    )


def _run_chunk(scene: SceneSpec, plan: _Plan, latent0: LatentState) -> list[Trajectory | NumericalAbort]:
    """Run every row of `plan` from latent0 in lockstep: per row, its trajectory or its abort.

    A row that aborts stops being checked and recorded while the others go
    on; once none is left, the loop stops.
    """
    schedule, etas = _schedule(plan.cfgs)
    batch = len(plan.cfgs)
    surrogate = _surrogate(scene, latent0.mode, batch)
    z = np.repeat(latent0.values[None], batch, axis=0)
    # each pass's step sizes as a column that broadcasts against z
    steps = np.array(etas).reshape(len(schedule), batch, *(1,) * (z.ndim - 1))
    records: list[list[StepRecord]] = [[] for _ in range(batch)]
    aborts: list[NumericalAbort | None] = [None] * batch
    live = list(range(batch))

    # a diverging run turns intermediates inf/nan; every one is checked below
    # and reported as an abort, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for t, stages in enumerate(schedule):
            last = t == len(schedule) - 1
            maps = surrogate.render(z)
            if last:
                breakdowns = _values(maps, plan, stages)[0]
            else:
                breakdowns, grad = value_and_grad(maps, plan, stages)
            for b in live:
                breakdown = breakdowns[b]
                if math.isfinite(breakdown.total):
                    record = StepRecord(step=t, stage=stages[b], eta=etas[t][b], breakdown=breakdown)
                    records[b].append(record)
                # every entry lies in one map's total S = e_in + e_out, finite
                # only if all of its entries are; only a non-finite S scans the field
                elif not (np.isfinite(breakdown.e_in + breakdown.e_out).all() or _all_finite(maps[b])):
                    aborts[b] = NumericalAbort(t, "rendered field")
                else:
                    aborts[b] = NumericalAbort(t, "loss")
            if last:
                break
            # a row aborted during this step goes through the rest of it unchecked
            _guard(grad, live, t, "gradient", aborts)
            latent_grad = surrogate.chain(grad)
            _guard(latent_grad, live, t, "latent gradient", aborts)
            # z - eta * g, rounded as written, through the gradient's own buffer
            np.multiply(latent_grad, steps[t], out=latent_grad)
            np.subtract(z, latent_grad, out=z)
            _guard(z, live, t, "latent update", aborts)
            live = [b for b in live if aborts[b] is None]
            if not live:
                break

    return [
        abort or Trajectory(
            records=records[b],
            final_latent=LatentState(mode=latent0.mode, values=z[b]),
            final_field=AttentionField(maps=maps[b]),
        )
        for b, abort in enumerate(aborts)
    ]


def run_guidance(scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState) -> Trajectory:
    """Run the full staged optimization from latent0 (left unchanged).

    Deterministic given (scene, cfg, latent0).  An unset `cfg.eta0` is the
    default step of latent0's mode.  It is the one-row call of `run_rows`:
    the loss plan, the surrogate and the (stage, eta) schedule are set up
    once; each step then renders once and makes one value-and-gradient
    call.  The last pass, t == total_steps, evaluates the end state's values
    only, without a gradient or an update.  Raises the run's NumericalAbort.
    """
    (outcome,) = run_rows(scene, [cfg], latent0)
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome
