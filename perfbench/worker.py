"""One workload in a fresh interpreter: set up, warm up, measure, report.

Run from the checkout root by `perfbench/run.py`; prints one JSON object as
its last line.  `ready` is the `time.monotonic()` reading at the end of
set-up (imports, input generation, scene parsing), which the parent
subtracts from its own reading at spawn.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import deptharb
import deptharb.cli
from deptharb.scene import read_scene

from . import speed
from .spans import SpanStats, Tracer, layer_self_time
from .stats import tail
from .workloads import KNOWN_DEFECTS, WORKLOADS, Op, Workload

LAYERS = ("scene", "attention", "surrogate", "losses", "optimizer", "metrics", "dumpio",
          "gradcheck", "cli")
MIN_OPS = 20  # the smallest sample with a tail percentile (p50 with 10 beyond it)
KERNEL_REPS = 3  # speed-kernel timings per reading between units
CAP_S = 60.0  # a pass stops after this long even below MIN_OPS (a traced run makes two)


@dataclass
class Outcome:
    latency: float
    code: int
    checks: list[tuple[str, bool]]
    error: str = ""
    scale: float = 1.0  # speed factor from the kernel timed around the op's unit

    @property
    def scaled(self) -> float:
        return self.latency * self.scale

    @property
    def flawed(self) -> bool:
        """Some check failed, a known defect's included (what `fail_ratio` counts)."""
        return not all(ok for _, ok in self.checks)  # exit_zero is one of them

    @property
    def failed(self) -> bool:
        """The op raised, exited non-zero or failed a check other than a known defect's."""
        return not all(ok for name, ok in self.checks if name not in KNOWN_DEFECTS)


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.latency for o in self.outcomes)

    @property
    def scaled_wall(self) -> float:
        return sum(o.scaled for o in self.outcomes)


def execute(op: Op) -> Outcome:
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = deptharb.cli.main(op.argv)
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        code, error = -1, traceback.format_exc(limit=4)
    latency = time.perf_counter() - t0
    checks = [("exit_zero", code == 0)] + op.check(code, out.getvalue())
    return Outcome(latency, code, checks, error or err.getvalue()[-500:])


class Runner:
    """Runs units of ops with the speed kernel timed between units.

    Each op is scaled by the mean of the kernel readings just before and
    just after its unit, both outside the ops' timings.  A reading is the
    median of KERNEL_REPS timings, so one disturbed timing does not skew a
    unit.
    """

    def __init__(self, kernel: speed.Kernel):
        self.kernel = kernel
        self.before = kernel.median(KERNEL_REPS)

    def run(self, unit: list[Op], into: Pass) -> None:
        outcomes = [execute(op) for op in unit]
        after = self.kernel.median(KERNEL_REPS)
        scale = speed.factor((self.before + after) / 2)
        self.before = after
        for o in outcomes:
            o.scale = scale
        into.ops.extend(unit)
        into.outcomes.extend(outcomes)


def measure(workload: Workload, seconds: float, runner: Runner) -> Pass:
    """Run whole units until `seconds` have passed and at least MIN_OPS ops ran."""
    result = Pass()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(result.ops) >= MIN_OPS) or elapsed >= CAP_S:
            return result
        runner.run(workload.unit(), result)


def replay(ops: list[Op], runner: Runner) -> Pass:
    """Run `ops` again in order, one op per unit."""
    result = Pass()
    for op in ops:
        runner.run([op], result)
    return result


def exp_pass_seconds(shape: tuple[int, ...], reps: int = 51) -> float:
    """Median time of one np.exp pass over a field of `shape`."""
    arr = np.random.default_rng(0).uniform(-1.0, 1.0, size=shape)
    out = np.empty_like(arr)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.exp(arr, out=out)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def instrument(tracer: Tracer) -> None:
    layers = {}
    for name in LAYERS:
        try:
            layers[name] = importlib.import_module(f"deptharb.{name}")
        except ImportError:
            continue  # a layer that no longer exists reports 0 calls
    tracer.instrument(layers, [deptharb, *layers.values()])


def end_to_end(p: Pass) -> dict:
    """Op times scaled to the speed kernel's reference speed, with raw figures beside them."""
    scaled = [o.scaled for o in p.outcomes]
    raw = [o.latency for o in p.outcomes]
    steps = sum(op.steps for op in p.ops)
    coords = sum(op.coords for op in p.ops)
    failed = sum(o.failed for o in p.outcomes)
    flawed = sum(o.flawed for o in p.outcomes)
    t, t_raw = tail(scaled), tail(raw)
    return {
        "speed_factor": statistics.median(o.scale for o in p.outcomes),
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": None if t is None else t[1],
        "op_s_tail_pct": None if t is None else t[0],
        "n_ops": len(scaled),
        "steps_per_s": steps / p.scaled_wall if steps else None,
        "coords_per_s": coords / p.scaled_wall if coords else None,
        "fail_ratio": flawed / len(scaled),
        "attempted": len(scaled),
        "failed": failed,
        "flawed": flawed,
        "raw": {
            "op_s_p50": statistics.median(raw),
            "op_s_tail": None if t_raw is None else t_raw[1],
            "wall_s": p.wall,
        },
    }


def per_layer(stats: dict[str, SpanStats], traced: Pass, untraced: Pass, exp_s: float,
              shape: tuple[int, int, int]) -> dict:
    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def ms_per_call(name: str) -> float:
        s = get(name)
        return 1e3 * s.total / s.calls if s.calls else 0.0

    steps = sum(op.steps for op in traced.ops)
    coords = sum(op.coords for op in traced.ops)

    def per_step(x: float) -> float:
        return x / steps if steps else 0.0

    e2e = end_to_end(untraced)
    loss_grad = get("losses.staged_loss").total + get("losses.grad_staged_loss").total
    sweep_wall = get("cli.cmd_sweep").total
    return {
        "steps_per_s": e2e["steps_per_s"] or 0.0,  # untraced, speed-scaled like end-to-end
        "coords_per_s": e2e["coords_per_s"] or 0.0,
        "fail_ratio": e2e["fail_ratio"],
        "scene.masks_calls_per_step": per_step(get("scene.scene_masks").calls),
        "attention.coord_grid_calls_per_step": per_step(get("attention.coord_grid").calls),
        "losses.value_ms": ms_per_call("losses.staged_loss"),
        "losses.grad_ms": ms_per_call("losses.grad_staged_loss"),
        "losses.passes_per_step": per_step(loss_grad) / exp_s,
        "losses.field_bytes": float(np.prod(shape) * 8),
        "surrogate.render_ms": ms_per_call("surrogate.render_attention"),
        "surrogate.backprop_ms": ms_per_call("surrogate.backprop_to_latent"),
        "optimizer.step_ms": 1e3 * per_step(get("optimizer.run_guidance").total),
        "optimizer.self_ms_per_step": 1e3 * per_step(layer_self_time(stats, "optimizer")),
        "optimizer.run_ms": ms_per_call("optimizer.run_guidance"),
        # on sweep this includes the wait for the pool, whose threads' spans are their own roots
        "cli.self_ms": 1e3 * layer_self_time(stats, "cli") / len(traced.ops),
        "scene.read_ms": ms_per_call("scene.read_scene"),
        "metrics.report_ms": ms_per_call("metrics.build_metric_report"),
        "dumpio.write_ms": ms_per_call("dumpio.write_dump"),
        "dumpio.read_ms": ms_per_call("dumpio.read_dump"),
        "dumpio.round_trip_ms": ms_per_call("dumpio.round_trip32"),
        "cli.sweep_parallelism": get("optimizer.run_guidance").total / sweep_wall if sweep_wall else 0.0,
        "gradcheck.coord_us": 1e6 * get("gradcheck.check_gradients").total / coords if coords else 0.0,
        "gradcheck.self_share": layer_self_time(stats, "gradcheck") / traced.wall,
        # each pass at the speed kernel's reference speed, so drift between them cancels
        "trace.overhead_ratio": traced.scaled_wall / untraced.scaled_wall,
    }


def verdicts(passes: list[Pass]) -> tuple[dict, bool, list[str]]:
    """Per check name: [passed, failed]; run correctness; sample error texts."""
    tally: dict[str, list[int]] = {}
    errors: list[str] = []
    for p in passes:
        for o in p.outcomes:
            for name, ok in o.checks:
                tally.setdefault(name, [0, 0])[0 if ok else 1] += 1
            if o.error and len(errors) < 3:
                errors.append(o.error)
    correct = all(bad == 0 for name, (_, bad) in tally.items() if name not in KNOWN_DEFECTS)
    return tally, correct, errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="write traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(deptharb.__file__).startswith(src + os.sep):
        print(f"deptharb imported from {deptharb.__file__}, not from {src}", file=sys.stderr)
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    for path in workload.scene_files:
        read_scene(path)
    ready = time.monotonic()
    kernel = speed.Kernel()
    setup_kernel = kernel.median(5)  # scales this interpreter's set-up time
    if args.setup_only:
        print(json.dumps({"ready": ready, "kernel_s": setup_kernel}))
        return 0

    for op in workload.unit():  # warm-up, discarded
        execute(op)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result: dict = {
        "ready": ready,
        "kernel_s": setup_kernel,
        "size": workload.size(),
        "numpy": {"version": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    if args.trace == 0:
        timed = measure(workload, args.seconds, Runner(kernel))
        result["end_to_end"] = end_to_end(timed)
        passes = [timed]
    else:
        runner = Runner(kernel)
        untraced = measure(workload, args.seconds / 2, runner)
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = replay(untraced.ops, runner)
        finally:
            tracer.restore()
        exp_s = exp_pass_seconds(workload.field_shape())
        result["per_layer"] = per_layer(tracer.stats(), traced, untraced, exp_s, workload.field_shape())
        result["exp_pass_s"] = exp_s
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.dump(args.spans)
        passes = [untraced, traced]
    tally, correct, errors = verdicts(passes)
    result.update(
        checks=tally,
        correct=correct,
        attempted=sum(len(p.outcomes) for p in passes),
        failed=sum(o.failed for p in passes for o in p.outcomes),
        errors=errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
