"""Command-line interface: optimization runs, gradient checks, sweeps, evaluation.

Config precedence is total and fixed: preset defaults < scene-file "config"
block < command-line flags; each config flag's dest is the config field it
sets.  Every command that reports scores through one function,
`_score_chunk` (value-only losses and metrics on box rectangles), which
takes the final fields of rows that ran, with a row axis, and returns their
reports or raises the first failing row's abort (a field that float32
cannot hold, then a loss that is not finite): `sweep` scores each chunk's
rows before its first run abort in one call, as `run_rows` hands the chunk
out, and then raises that abort; `run` and `eval` score their one field as
B = 1.  `run` and `sweep` score on the loss plan that ran the rows; `eval`,
which ran nothing, and a chunk holding a run abort build their own.
Reports are JSON whose floats read back exactly.  Exit codes: 0 success,
1 input/usage error (among them an unknown argument, a `--tol` that is not
finite and >= 0, a `--rel-threshold` outside (0, 1] and a grad-check state
the oracle refuses; a refused value is shown bounded), 2 numerical abort (a
diverging run, or a scored loss that is not finite; a sweep names the
failing row by its value), 3 gradient-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from .attention import AttentionError, AttentionField, check_alignment
from .dumpio import DumpError, read_dump, write_dump
from .gradcheck import DEFAULT_REL_TOL, FLOOR_REF, OracleError, check_gradients, precision_note
from .losses import _Plan
from .metrics import DEFAULT_REL_THRESHOLD, MetricReport, _score_rows
from .optimizer import NumericalAbort, _final_stage, run_guidance, run_rows
from .scene import (
    GUIDANCE_CONFIG_KEYS,
    PRESETS,
    ConfigError,
    GuidanceConfig,
    SceneError,
    SceneSpec,
    _shown,
    canonical_scene,
    check_value,
    read_scene,
)
from .surrogate import MODES, SurrogateError, init_latent, with_default_step

SWEEP_PARAMS = tuple(f.name for f in fields(GuidanceConfig) if f.metadata["sweep"])


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):  # argparse's, with the extras shown through _shown
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_shown(' '.join(extras))}")
        return args

    def _get_values(self, action, arg_strings):
        # a flag's one string is its value, "--" too, which Python 3.11's argparse drops, setting the flag to []
        if action.option_strings and action.nargs is None:
            value = self._get_value(action, *arg_strings)
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def _check_value(self, action, value):  # argparse's, with the value shown through _shown
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_shown(value)} (choose from {choices})")


def _print(*args, **kwargs) -> None:
    """print to stdout; once its reader has gone, the rest goes to os.devnull and the command keeps its verdict."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def dumps_report(doc: dict) -> str:
    """JSON text of a report; floats in the shortest form that reads back exactly."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_report(args, doc: dict, what: str = "report") -> None:
    """Write a report or sweep table where --report points, if anywhere."""
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dumps_report(doc))
        _print(f"{what} written to {args.report}")


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def resolve_config(args, file_overrides: dict) -> GuidanceConfig:
    """defaults (per preset, the step per mode) < scene-file config block < command-line flags."""
    flags = vars(args)
    merged = {**file_overrides, **{k: flags[k] for k in GUIDANCE_CONFIG_KEYS if flags[k] is not None}}
    return with_default_step(GuidanceConfig.preset(args.preset).updated(**merged), args.mode)


def _config_echo(cfg: GuidanceConfig, args) -> dict:
    return {**cfg.as_dict(), "mode": args.mode, "rel_threshold": args.rel_threshold, "preset": args.preset}


# ---------------------------------------------------------------------------
# run, score, report
# ---------------------------------------------------------------------------

def _finite_losses(report: MetricReport) -> bool:
    """Whether every loss value the report holds is finite.

    A finite field and config can still overflow a sum (the ortho term over
    many pairs, say), so scoring runs with numpy's warnings silenced and its
    values are checked here.
    """
    b = report.breakdown
    return bool(np.isfinite([b.align, b.ortho, b.compact, b.total, *b.pair_interference]).all())


def _score_chunk(
    scene: SceneSpec,
    cfgs: Sequence[GuidanceConfig],
    finals: Sequence[AttentionField],
    rel_threshold: float,
    plan: _Plan | None = None,
    rows: Sequence[str] | None = None,
) -> list[MetricReport]:
    """Each row's report, in row order, from the final field of its run, which matches the scene.

    `run` and `eval` score their one field as a one-row call, and `sweep`
    the rows of each chunk that ran.  `plan`, if given, is the loss plan
    that ran the rows, one per config; else `_score_rows` builds one.  The
    first failing row, in row order, raises its abort at its last step,
    named by its label in `rows`: a final field that rounding through
    float32 takes out of range, then a scored loss that is not finite.
    Every row is scored as the dump stores its field, rounded through
    float32, so a later `eval` of the dump reproduces the reported numbers
    exactly: the fields are rounded in one cast of their stack and scored in
    one `_score_rows` call.
    """
    with np.errstate(all="ignore"):
        # round_trip32's rounding, over the stacked rows
        maps = np.stack([final.maps for final in finals], dtype=np.float32).astype(np.float64)
        # entries of the float32 range sum to a finite double: a row's sum is
        # finite only if each of its entries is
        in_range = np.isfinite(maps.sum(axis=(1, 2, 3))).tolist()
        reports = _score_rows(maps, scene, cfgs, [_final_stage(cfg) for cfg in cfgs], rel_threshold, plan)
    for n, (finite, report) in enumerate(zip(in_range, reports)):
        if not (finite and _finite_losses(report)):
            what = "scored loss" if finite else "float32-rounded field"
            raise NumericalAbort(cfgs[n].total_steps, what, rows[n] if rows else None)
    return reports


def _print_summary(report: dict) -> None:
    losses = report["losses"]
    metrics = report["metrics"]
    _print(
        f"stage {losses['stage']}: total {losses['total']:.6g} "
        f"(align {losses['align']:.6g}, ortho {losses['ortho']:.6g}, "
        f"compact {losses['compact']:.6g})"
    )
    focr_mean = metrics["focr_mean"]
    _print(
        f"miou_all {metrics['miou_all']:.4f}  "
        f"focr_mean {'n/a' if focr_mean is None else f'{focr_mean:.4f}'}"
    )
    for obj in report["per_object"]:
        _print(
            f"  object {obj['id']} ({obj['label'] or 'unlabeled'}): "
            f"f {obj['f']:.4f}  var {obj['var']:.6g}  iou {obj['iou']:.4f}"
        )


def _publish(args, report: MetricReport, cfg: GuidanceConfig, seed: int) -> int:
    doc = {**report.to_json_dict(), "config": _config_echo(cfg, args), "seed": seed}
    _write_report(args, doc)
    _print_summary(doc)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    scene, file_overrides = read_scene(args.scene)
    cfg = resolve_config(args, file_overrides)
    trajectory = run_guidance(scene, cfg, init_latent(scene, args.mode, args.seed))
    # scoring reads only the field and the plan; the final latent (4 MB on a 256x256 scene of 8 raster
    # maps) is freed before scoring allocates its own arrays
    field, plan = trajectory.final_field, trajectory._plan
    del trajectory
    (report,) = _score_chunk(scene, [cfg], [field], args.rel_threshold, plan)
    if args.dump:
        # the dump rounds the field through float32, as it was scored
        write_dump(args.dump, field, args.seed)
        _print(f"dump written to {args.dump}")
    return _publish(args, report, cfg, args.seed)


def cmd_eval(args) -> int:
    field, seed = read_dump(args.dump)
    scene, file_overrides = read_scene(args.scene)
    cfg = resolve_config(args, file_overrides)
    check_alignment(field, scene)
    (report,) = _score_chunk(scene, [cfg], [field], args.rel_threshold)
    return _publish(args, report, cfg, seed)


def cmd_grad_check(args) -> int:
    if args.scene:
        scene, file_overrides = read_scene(args.scene)
    else:
        scene, file_overrides = canonical_scene(), {}
    cfg = resolve_config(args, file_overrides)
    stages = (1, 2) if args.stage == "both" else (int(args.stage),)
    note = precision_note()
    if note:
        _print(note)
    results = check_gradients(
        scene, cfg, init_latent(scene, args.mode, args.seed), stages, seed=args.seed, samples=args.samples,
        rel_tol=args.tol,
    )
    worst_rel = 0.0
    failures = []
    for stage, result in zip(stages, results):
        # np.max, not max: a NaN error, which fails its coordinate, shows
        worst_rel = float(np.max([worst_rel, result.worst_rel]))
        failures.extend((stage, r) for r in result.failures)
        _print(
            f"stage {stage} ({args.mode}): {result.checked} coordinates, "
            f"worst rel {result.worst_rel:.3e} ({result.floored} judged by the {args.tol * FLOOR_REF:g} floor), "
            f"worst abs {result.worst_abs:.3e} "
            f"-> {'pass' if result.passed else f'{len(result.failures)} FAILURES'}"
        )
    _print(f"worst relative error: {worst_rel:.6e}")
    if failures:
        # non-finite errors first, then the largest; ties keep sample order
        failures.sort(key=lambda f: -f[1].rel_err if math.isfinite(f[1].rel_err) else -math.inf)
        _print("worst offenders:")
        for stage, r in failures[:10]:
            _print(
                f"  stage {stage} {r.space} obj {r.object_index} coord {r.coordinate}: "
                f"analytic {r.analytic:.6e} fd {r.fd:.6e} "
                f"rel {r.rel_err:.3e} abs {r.abs_err:.3e}"
            )
        return 3
    return 0


def _sweep_row(run_cfg: GuidanceConfig, report: MetricReport, args) -> dict:
    b = report.breakdown
    return {
        "value": getattr(run_cfg, args.param),
        "losses": {"align": b.align, "ortho": b.ortho, "compact": b.compact, "total": b.total},
        "mean_interference": float(np.mean(b.pair_interference)) if len(b.pair_interference) else None,
        "mean_var": float(np.mean(b.var)),
        "metrics": {
            "miou_all": report.miou.all,
            "focr_mean": report.focr.mean,
        },
    }


def cmd_sweep(args) -> int:
    scene, file_overrides = read_scene(args.scene)
    cfg = resolve_config(args, file_overrides)
    run_cfgs = [cfg.updated(**{args.param: value}) for value in args.values]
    # run_rows checks every row's config, its pair coefficients too, before
    # any row runs; the rows then step in lockstep, a chunk at a time, and
    # each chunk's rows before its first run abort are scored as it is
    # reached.  They fail as if run one after another: the first failing
    # row, in row order, is the one reported, and no row after it is scored
    # and no chunk after it stepped
    rows = []
    for outcomes in run_rows(scene, run_cfgs, init_latent(scene, args.mode, args.seed)):
        chunk = run_cfgs[len(rows) : len(rows) + len(outcomes)]
        labels = [f"{args.param} = {getattr(run_cfg, args.param):g}" for run_cfg in chunk]
        ran = next((n for n, o in enumerate(outcomes) if isinstance(o, NumericalAbort)), len(outcomes))
        if ran:
            plan = outcomes[0]._plan if ran == len(outcomes) else None
            finals = [o.final_field for o in outcomes[:ran]]
            reports = _score_chunk(scene, chunk[:ran], finals, args.rel_threshold, plan, labels)
            rows += [_sweep_row(run_cfg, report, args) for run_cfg, report in zip(chunk, reports)]
        if ran < len(outcomes):
            raise NumericalAbort(outcomes[ran].step, outcomes[ran].what, row=labels[ran])
    table = {"param": args.param, "rows": rows, "config": _config_echo(cfg, args), "seed": args.seed}
    _write_report(args, table, "sweep table")

    header = f"{args.param:>16}  {'total':>12}  {'mean_I':>10}  {'mean_var':>10}  {'miou':>8}  {'focr':>8}"
    _print(header)
    for row in rows:
        mean_i = row["mean_interference"]
        focr_mean = row["metrics"]["focr_mean"]
        _print(
            f"{row['value']:>16.6g}  {row['losses']['total']:>12.6g}  "
            f"{'n/a' if mean_i is None else f'{mean_i:>10.4g}'}  "
            f"{row['mean_var']:>10.4g}  {row['metrics']['miou_all']:>8.4f}  "
            f"{'n/a' if focr_mean is None else f'{focr_mean:>8.4f}'}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _number(name: str, kind: type, *domains: str):
    """A numeric flag's argparse type: its text as `kind` (int or float) reads it, else the text, by `check_value`."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = text
        return check_value(name, value, kind, *domains, error=argparse.ArgumentTypeError)
    return parse


def _sweep_values(text: str) -> list[float]:
    values = [_number("values", float)(v.strip()) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    # each GuidanceConfig field declares its flag and help; the flag's dest is the field, and None leaves it unset
    for knob in fields(GuidanceConfig):
        sub.add_argument(
            knob.metadata["flag"] or "--" + knob.name.replace("_", "-"), dest=knob.name, default=None,
            type=_number(knob.name, *knob.metadata["rules"]), help=knob.metadata["help"],
        )
    sub.add_argument("--preset", choices=PRESETS, default="main", help="weight preset (default: main)")
    sub.add_argument("--mode", choices=MODES, default="raster", help="surrogate parametrization")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    # eval has none: it reports the seed stored in the dump
    sub.add_argument("--seed", type=_number("seed", int, "an unsigned 64-bit integer"), default=0,
                     help="deterministic seed")


def _add_rel_threshold(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rel-threshold", type=_number("rel_threshold", float, "in (0, 1]"),
                     default=DEFAULT_REL_THRESHOLD,
                     help="relative threshold for layout mIoU masks, in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deptharb", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="optimize a scene and report metrics")
    run.add_argument("--scene", required=True, help="scene JSON path")
    _add_config_flags(run)
    _add_seed(run)
    _add_rel_threshold(run)
    run.add_argument("--dump", default=None, help="write the final attention field here")
    run.add_argument("--report", default=None, help="write the JSON report here")
    run.set_defaults(func=cmd_run)

    check = subs.add_parser("grad-check", help="verify analytic gradients against finite differences")
    check.add_argument("--scene", default=None, help="scene JSON path (default: built-in canonical scene)")
    _add_config_flags(check)
    _add_seed(check)
    # a check that judges no coordinate would report a pass for nothing
    check.add_argument("--samples", type=_number("samples", int, ">= 1"), default=1000,
                       help="coordinates drawn per stage, with replacement, in the attention space and, "
                            "for a raster latent, in the latent space; a blob latent checks all 5*K "
                            "parameters (at least 1)")
    check.add_argument("--tol", type=_number("tol", float, "finite and >= 0"), default=DEFAULT_REL_TOL,
                       help="relative tolerance, finite and >= 0 (absolute floor is tol*1e-4)")
    check.add_argument("--stage", choices=("1", "2", "both"), default="both")
    check.set_defaults(func=cmd_grad_check)

    sweep = subs.add_parser("sweep", help="run one seeded optimization per parameter value")
    sweep.add_argument("--scene", required=True, help="scene JSON path")
    _add_config_flags(sweep)
    _add_seed(sweep)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS, help="config field to sweep")
    sweep.add_argument("--values", required=True, type=_sweep_values,
                       help="comma-separated parameter values")
    _add_rel_threshold(sweep)
    sweep.add_argument("--report", default=None, help="write the JSON sweep table here")
    sweep.set_defaults(func=cmd_sweep)

    ev = subs.add_parser("eval", help="compute metrics for a stored attention dump")
    ev.add_argument("--dump", required=True, help="attention dump path")
    ev.add_argument("--scene", required=True, help="scene JSON path")
    _add_config_flags(ev)
    _add_rel_threshold(ev)
    ev.add_argument("--report", default=None, help="write the JSON report here")
    ev.set_defaults(func=cmd_eval)

    return parser


# built once per process: parsing never mutates the parser, and building it
# costs about 1.6 ms and leaves heap fragments on every in-process call
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SceneError, AttentionError, DumpError, ConfigError, SurrogateError, OracleError, OSError) as exc:
        # a path flag holds any text: OSError's own form, with the path shown through _shown
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # a block-buffered stdout meets a closed pipe only when it is flushed
        _print(end="", flush=True)


if __name__ == "__main__":
    sys.exit(main())
