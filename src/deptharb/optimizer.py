"""Staged latent-optimization loop: stage schedule, step sizes, trajectory.

The loop steps B rows in lockstep (`run_rows`): one config per row, all
from the same starting latent, as a sweep's rows are, a chunk of rows of at
most _CHUNK_ENTRIES field entries at a time, and it hands out each chunk's
outcomes together; `run_guidance` is its B = 1 call.  Each pass
evaluates each row's stage objective and the factors of its gradient from
the reductions of the field that the pass before it rendered; each step
then backpropagates to the latent through that same render and takes a
plain gradient-descent step z <- z - eta_t * g with
eta_t = eta0 * eta_decay^t, in place on the run's own copy of the latent.
The schedule of every pass's per-row (stage, eta_t) is built once
per chunk, before its first step, as the loss plan is (`_schedule`); rows
may be in different stages at one step.  A trajectory holds each pass's
step size and loss terms as columns, one entry per pass: one per step plus
a final evaluation of the end state, total_steps + 1 in all.
The chunk allocates its loss columns (`losses._columns`) once, before its
first step, and the kernel writes each pass's terms of every row straight
into them; a row's trajectory reads views of its row.

A step walks the field in tiles (`_tiles`): sets of whole maps of at most
_TILE_ENTRIES entries between them, whole rows while they fit, else maps of
one row.  The loss kernel's factor half (`losses._step_factors`) runs once
for every row; then, tile by tile, the surrogate's `chain` turns the plan's
low-rank factors (U, V) of the tile's dL/dA into the tile's latent
gradient, which is scaled by eta_t and subtracted from the tile's latent;
the surrogate renders the tile's maps from the updated latent and its
`reduce` takes their reductions, the next pass's input, while all of it is
still in cache.  The surrogate decides how: the raster chain writes dL/dA
into one small scratch (`losses._grad_product`) and multiplies it by the
field, and the raster reductions read the field (`losses._reduce`); the
blob works from its 1-D factors and the plan's (U, V) alone, so it writes
neither a field nor a gradient on a step.  So each map is rendered once per
pass, pass 0's tile by tile before the first step, nothing but the walk
reads the factors of a render, and a run never writes a whole-field
gradient.  The dense field is asked of the surrogate (`field()`) once, for
the trajectories, when the run ends.

Inputs are validated at the boundaries: the scene, config and starting
latent on entry, the final latent and field when they are wrapped for the
caller.  Inside the loop every intermediate only has its finiteness
checked, row by row and in order (rendered field, loss, gradient, latent
gradient, latent update), and a row's first failure ends that row with the
step it happened at; the other rows go on.  numpy's floating-point
warnings are silenced inside the loop, so that abort is all a diverging
row reports.

The checks give the verdicts of a literal np.isfinite(x).all() on each
row's intermediate, at less cost.  The rendered field is not read at all
while the row's loss total is finite.  Each map's total S = e_in + e_out,
which the loss reduces anyway, is non-finite whenever one of the map's
entries is, and a non-finite S makes that map's f, and with it the total,
NaN; so a finite total clears the field and the loss at once.  A raster
map's S is the sum of its entries.  A blob map's is the sum over x of
col_sum = (sum g_y) g_x, and its entries are A = g_y (x) g_x: g_x is
exp(-u^2 / 2) <= 1 or NaN, so A <= g_y.  A NaN g_x makes its column sum
NaN; an infinite or NaN g_y makes sum g_y so (the g_y are >= 0, so no
infinities cancel), and the column sums with it: inf * g_x is inf, or NaN
where g_x is 0, which is also how the dense entry inf * 0 turns NaN.  So a
non-finite entry, inf * 0 included, makes S non-finite.  A row whose total
is not finite, which ends it, scans its field once, which the surrogate
renders for it: a field of finite entries (whose sum, or a blob's sum of
g_y, overflows) is a loss abort.

Each tile then checks one thing per row: the sum of its updated latent
(`_faults`).  A NaN or infinite entry makes a sum non-finite, so a finite
sum clears its entries; only a non-finite sum is scanned literally.  The
gradient dL/dA and the latent gradient g are not checked on their own:
the update z - eta * g is non-finite wherever g is, for every eta in
[0, inf].  A raster g is dL/dA times the finite field, so it is non-finite
wherever dL/dA is.  A blob map's five partials are entries of
r = (left @ U) @ (V @ right), whose every row and column one of them
reads; with the map's factors finite, a non-finite entry of U (V) makes a
whole column of left @ U (row of V @ right) non-finite, since a finite
weight times NaN or inf is never finite, and with it every entry of r.
dL/dA = U @ V is non-finite only where U or V is, or where finite factors'
products overflow, which the blob, never forming that product, does not
meet.  So a tile whose updated latent holds a non-finite entry recomputes
dL/dA and its latent gradient to tell the three faults apart
(`_name_faults`), before it renders over the factors they are made from; a
row's verdict is the worst of its tiles'.  The sums are numpy reductions
rather than BLAS dot products: OpenBLAS threads a dot product above about
10^4 entries, and its spinning workers would slow the step's next ufunc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .attention import AttentionField
from .losses import (
    LossBreakdown,
    _columns,
    _grad_product,
    _pair_coefficients,
    _Plan,
    _plan,
    _product_views,
    _step_factors,
    _values,
)
from .scene import ConfigError, GuidanceConfig, SceneSpec, derive_occlusion_pairs
from .surrogate import LatentState, _check_match, _surrogate, with_default_step


# the rows a run steps together hold at most this many field entries
# (B * K * H * W) between them, so its scratch does not grow with its number
# of rows; a row larger than this runs alone
_CHUNK_ENTRIES = 1 << 20

# the rows a run steps together take at most this many passes between them
# (B * (total_steps + 1)): the schedule and the loss columns hold an entry
# per pass and row, a few hundred bytes each, so a run of more passes than
# this is refused, as a scene of too many pixels is
_PASS_ENTRIES = 1 << 20

# a step's tile holds at most this many field entries (see `_tiles`), for
# the measured times of a 16-step raster run on 256x256 scenes of 8 maps
# (`run --steps 16`, a 2-vCPU Xeon with a 2 MB L2): 44 ms at 2^16 entries,
# 47 ms at 2^17, 53 ms at 2^18 and 54 ms at 2^20.  Smaller tiles do not pay
# either: a prototype that walked such a run in bands of 128, 64, 32 or 16
# pixel rows over all 8 maps, reducing each whole map after its last band,
# took 48-49, 45, 43-45 and 45 ms against 41-42 ms for whole maps.  Why
# 2^16 wins is unverified: timed inside the walk, a tile's ops ran 1.4-2.4x
# slower than on a warm tile, so its arrays (1.5 MB of doubles) do not stay
# in L2 between them
_TILE_ENTRIES = 1 << 16


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient stops being finite; carries the step index and what failed.

    `row`, if given, names the run among others, as a sweep names a row by its value.
    """

    def __init__(self, step: int, what: str, row: str | None = None):
        super().__init__(f"non-finite {what} at step {step}" + (f" ({row})" if row else ""))
        self.step = step
        self.what = what


@dataclass
class Trajectory:
    eta: np.ndarray  # (T + 1,) each pass's step size
    final_latent: LatentState
    final_field: AttentionField
    _columns: LossBreakdown = field(repr=False)  # the chunk's (passes, B, ...) loss columns
    _row: int = field(repr=False)
    _plan: _Plan = field(repr=False)  # the chunk's loss plan, which scores its rows too

    @property
    def terms(self) -> LossBreakdown:
        """Each pass's breakdown, with a leading pass axis; the last pass is the end state's.

        Every field but `pairs` is a view of the row's line of its chunk's columns.
        """
        return self._columns.take((slice(None), self._row))


class _Tile(NamedTuple):
    """Maps lo..hi-1 of a run's stack (map m = b * K + k), with the views one step reads.

    Each `*_rows` view has one line per row of `rows`: the tile's part of
    that row.
    """

    lo: int
    hi: int
    rows: range              # the rows its maps belong to
    grad: np.ndarray         # (hi - lo, H, W) view of the run's scratch
    grad_rows: np.ndarray    # grad, line by line
    latent_rows: np.ndarray  # the maps' latent, a view of the run's, line by line; what `render` reads
    steps: np.ndarray        # (passes, len(rows), 1) each pass's step size, line by line
    sums: np.ndarray         # (len(rows),) scratch for `_faults`' line sums
    reduce: tuple            # the maps' `reduce_views` of the surrogate


def _tiles(z: np.ndarray, eta: np.ndarray, surrogate, plan: _Plan) -> list[_Tile]:
    """The tiles of a run's maps, with views of one scratch, of latent z (B, K, ...), of eta (passes, B), of
    the surrogate's buffers and of the plan's scratch.

    A tile holds at most _TILE_ENTRIES field entries and at least one map:
    as many whole rows as fit, else as many maps of one row.  Every tile
    reuses the one scratch.
    """
    batch, k, height, width = surrogate.maps.shape
    size = height * width
    if k * size <= _TILE_ENTRIES:
        span = _TILE_ENTRIES // (k * size) * k
        ranges = [(lo, min(lo + span, batch * k)) for lo in range(0, batch * k, span)]
    else:
        span = max(1, _TILE_ENTRIES // size)
        ranges = [(b * k + lo, b * k + min(lo + span, k)) for b in range(batch) for lo in range(0, k, span)]
    scratch = np.empty(max(hi - lo for lo, hi in ranges) * size)
    latent = z.reshape(batch * k, -1)
    tiles = []
    for lo, hi in ranges:
        rows = range(lo // k, (hi - 1) // k + 1)
        grad = scratch[: (hi - lo) * size].reshape(hi - lo, height, width)
        tiles.append(_Tile(
            lo, hi, rows, grad, grad.reshape(len(rows), -1), latent[lo:hi].reshape(len(rows), -1),
            eta[:, rows.start : rows.stop, None], np.empty(len(rows)), surrogate.reduce_views(plan, lo, hi),
        ))
    return tiles


def _faults(values: np.ndarray, rows: range, aborts: list, sums: np.ndarray) -> list[int]:
    """Each row b of `rows`, not yet aborted, whose line of `values` (one per row) is not all finite.

    The line sums are written into `sums`, a tile's scratch.

    A NaN or infinite entry makes its line's sum NaN or infinite, so a
    finite sum clears the line, and a finite sum of those sums clears every
    line at once.  A non-finite sum (a real fault, or finite entries whose
    sum overflows) falls back to the literal scan, so the verdict is the
    same for every array.
    """
    totals = np.add.reduce(values, axis=1, out=sums).tolist()
    if math.isfinite(sum(totals)):
        return []
    return [
        b
        for line, (b, total) in enumerate(zip(rows, totals))
        if not math.isfinite(total) and aborts[b] is None and not np.isfinite(values[line]).all()
    ]


# what failed in a step whose updated latent holds a non-finite entry, the least severe first
_FAULTS = ("latent update", "latent gradient", "gradient")


def _name_faults(faulted: list[int], tile: _Tile, views: list, surrogate, worst: dict[int, int]) -> None:
    """Rank what failed in tile's part of each row of `faulted`, whose updated latent holds a non-finite entry,
    into `worst` (row -> index into _FAULTS), keeping each row's worst rank over the step's tiles.

    The tile's dL/dA is written from the plan's factors (which the blob's
    step never forms), and its latent gradient recomputed as the step made
    it: the factors are still the step's, and so is the tile's render,
    which the walk writes over only after this.
    """
    _grad_product(views)
    gradient = [not np.isfinite(tile.grad_rows[b - tile.rows.start]).all() for b in faulted]
    latent_grad = surrogate.chain(views, tile.grad, tile.lo, tile.hi).reshape(len(tile.rows), -1)
    for b, bad_gradient in zip(faulted, gradient):
        rank = 2 if bad_gradient else 0 if np.isfinite(latent_grad[b - tile.rows.start]).all() else 1
        worst[b] = max(rank, worst.get(b, 0))


def _stages(cfg: GuidanceConfig, passes: Iterable[int]) -> list[int]:
    """The stage of each pass t of `passes`, out of passes 0..total_steps.

    Step t is in stage 1 iff t < floor(stage1_fraction * total_steps), else
    in stage 2.  The last pass, t == total_steps, only evaluates the end
    state: at stage 1 iff every step is (with no step, iff
    stage1_fraction > 0).
    """
    stage1 = math.floor(cfg.stage1_fraction * cfg.total_steps)
    end = 1 if stage1 == cfg.total_steps and cfg.stage1_fraction > 0 else 2
    return [end if t == cfg.total_steps else 1 if t < stage1 else 2 for t in passes]


def _final_stage(cfg: GuidanceConfig) -> int:
    """The stage of a run's last pass, which only evaluates the end state: the stage it is scored at."""
    return _stages(cfg, [cfg.total_steps])[0]


def _schedule(cfgs: Sequence[GuidanceConfig]) -> tuple[list[tuple[int, ...]], list[list[float]]]:
    """Each pass's stage (`_stages`) and step size eta0 * eta_decay^t per row, for passes t = 0..total_steps."""
    for cfg in cfgs:
        if cfg.eta0 is None:
            raise ConfigError("eta0 is not set: fill in the mode's default with surrogate.with_default_step")
    passes = range(cfgs[0].total_steps + 1)
    stages = list(zip(*(_stages(cfg, passes) for cfg in cfgs)))
    return stages, [[cfg.eta0 * cfg.eta_decay**t for cfg in cfgs] for t in passes]


def run_rows(
    scene: SceneSpec, cfgs: Sequence[GuidanceConfig], latent0: LatentState
) -> Iterator[list[Trajectory | NumericalAbort]]:
    """Run every config from latent0 (left unchanged) in lockstep; yield each chunk's outcomes, in row order.

    A row's outcome is its trajectory or the abort that ended it, bit for
    bit the run of its config alone: the rows share the rendering, the
    kernel and the latent update of each step, and no arithmetic mixes
    rows.  An unset eta0 is the default step of latent0's mode; every row
    needs the same total_steps.

    Every config is checked before this returns, so a bad one is rejected
    before any row runs, as are no config at all and a run of more than
    _PASS_ENTRIES passes.
    The rows are stepped a chunk at a time, as the iterator reaches the
    chunk: as many rows as hold _CHUNK_ENTRIES field entries and
    _PASS_ENTRIES passes, and at least one.  So the run's memory does not
    grow with its number of rows, and a caller that stops at a chunk
    holding a failing row never steps the chunks after it.
    """
    _check_match(latent0, scene)
    cfgs = [with_default_step(cfg, latent0.mode) for cfg in cfgs]
    if not cfgs:
        raise ValueError("run_rows needs at least one config, got none")
    if len({cfg.total_steps for cfg in cfgs}) > 1:
        raise ValueError("rows run in lockstep, so every row needs the same total_steps")
    passes = cfgs[0].total_steps + 1
    if passes > _PASS_ENTRIES:
        raise ConfigError(f"total_steps: {passes - 1} exceeds the {_PASS_ENTRIES - 1} steps a run can take")
    pairs = derive_occlusion_pairs(scene)
    # in row order: the first config whose pair coefficients are not finite raises
    for cfg in cfgs:
        _pair_coefficients(scene, pairs, cfg)
    row_entries = len(scene.objects) * scene.grid_height * scene.grid_width
    size = max(1, min(_CHUNK_ENTRIES // row_entries, _PASS_ENTRIES // passes))
    return (
        _run_chunk(scene, _plan(scene, pairs, cfgs[lo : lo + size]), latent0)
        for lo in range(0, len(cfgs), size)
    )


def _run_chunk(scene: SceneSpec, plan: _Plan, latent0: LatentState) -> list[Trajectory | NumericalAbort]:
    """Run every row of `plan` from latent0 in lockstep: per row, its trajectory or its abort.

    A row that aborts stops being checked while the others go on; once none
    is left, the loop stops.  The kernel writes each pass's breakdown of all
    rows into the chunk's columns, which every row's trajectory views.
    """
    schedule, etas = _schedule(plan.cfgs)
    batch = len(plan.cfgs)
    surrogate = _surrogate(scene, latent0.mode, batch)
    z = np.repeat(latent0.values[None], batch, axis=0)
    eta = np.array(etas)  # (passes, B)
    tiles = _tiles(z, eta, surrogate, plan)
    # each stage tuple's gradient products, tile by tile, built before the first step
    products = {
        stages: [_product_views(plan, stages, tile.lo, tile.hi, tile.grad) for tile in tiles]
        for stages in set(schedule[:-1])
    }
    columns = _columns(plan, schedule)
    aborts: list[NumericalAbort | None] = [None] * batch
    live = list(range(batch))

    # a diverging run turns intermediates inf/nan; every one is checked below
    # and reported as an abort, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        # pass 0's field, and its reductions, a tile at a time
        for tile in tiles:
            surrogate.render(tile.latent_rows, tile.lo, tile.hi)
            surrogate.reduce(tile.reduce)
        for t, stages in enumerate(schedule):
            last = t == len(schedule) - 1
            (_values if last else _step_factors)(plan, columns, t)
            totals = columns.total[t].tolist()
            failed = [b for b in live if not math.isfinite(totals[b])]
            if failed:
                maps = surrogate.field()
                for b in failed:
                    aborts[b] = NumericalAbort(t, "loss" if np.isfinite(maps[b]).all() else "rendered field")
            if last:
                break
            # a row aborted during this step goes through the rest of it unchecked
            worst: dict[int, int] = {}
            for tile, views in zip(tiles, products[stages]):
                # z - eta * g, rounded as written, through the latent gradient's own buffer
                latent_grad = surrogate.chain(views, tile.grad, tile.lo, tile.hi).reshape(tile.latent_rows.shape)
                np.multiply(latent_grad, tile.steps[t], out=latent_grad)
                np.subtract(tile.latent_rows, latent_grad, out=tile.latent_rows)
                faulted = _faults(tile.latent_rows, tile.rows, aborts, tile.sums)
                if faulted:
                    _name_faults(faulted, tile, views, surrogate, worst)
                # the next pass's maps, and their reductions, while the tile is in cache
                surrogate.render(tile.latent_rows, tile.lo, tile.hi)
                surrogate.reduce(tile.reduce)
            for b, rank in worst.items():
                aborts[b] = NumericalAbort(t, _FAULTS[rank])
            live = [b for b in live if aborts[b] is None]
            if not live:
                break

    # a row that did not abort has run every pass, so its line of the columns is whole
    maps = surrogate.field()
    return [
        abort or Trajectory(
            eta=eta[:, b],
            final_latent=LatentState(mode=latent0.mode, values=z[b]),
            final_field=AttentionField(maps=maps[b]),
            _columns=columns,
            _row=b,
            _plan=plan,
        )
        for b, abort in enumerate(aborts)
    ]


def run_guidance(scene: SceneSpec, cfg: GuidanceConfig, latent0: LatentState) -> Trajectory:
    """Run the full staged optimization from latent0 (left unchanged).

    Deterministic given (scene, cfg, latent0).  An unset `cfg.eta0` is the
    default step of latent0's mode.  It is the one-row call of `run_rows`:
    the loss plan, the surrogate and the (stage, eta) schedule are set up
    once; each step then evaluates the loss kernel's factor half once and
    walks its tiles, which chain, update, render and reduce.  The last pass,
    t == total_steps, evaluates the end state's values only, without a
    gradient or an update.  Raises the run's NumericalAbort.
    """
    ((outcome,),) = run_rows(scene, [cfg], latent0)
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome
