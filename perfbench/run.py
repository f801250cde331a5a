"""deptharb benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload canonical-run --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from `src/`; the
benchmark writes its generated inputs under `.perfbench_work/` and traced
spans under `.perfbench_out/`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
ops.  `--trace 1` runs an untraced pass for half the window, replays the
same ops with every layer's public functions wrapped in spans, and reports
the per-layer metrics.  Human-readable lines come first, then a `record`
line with the environment, sizes, details and check verdicts, then the
result object as the last line.  Gated times are scaled to a reference
machine speed by a kernel that does not use the program (speed.py); the
raw times are printed beside them.  `perfbench/collect.py` runs every
workload over several seeds.

Workloads (one process, closed loop: each op starts when the previous one
has finished and been checked):

* canonical-run: the paper's two-object 64x64 scene at the defaults.  Per
  seed: `run --dump --report` (raster), `eval` of that dump, `run --mode
  blob`.  Tiny arrays, so per-call overhead dominates.
* sweep: `sweep --param lambda_ortho` over 8 values on the canonical raster
  scene, the only workload on the sweep's thread pool (default size).
* large-raster: a generated 256x256, K=8 scene with 16 occlusion pairs,
  raster `run`.  Full-field passes dominate.
* grad-check: `grad-check --stage both`, raster and blob, on the canonical
  scene and a generated 32x32 scene.  The finite-difference oracle does
  nearly all the work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT_PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT_PKG not in sys.path:
    sys.path.insert(0, ROOT_PKG)

from perfbench.speed import factor  # noqa: E402
from perfbench.workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 6  # set-up-only interpreters per run, besides the measuring one
DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "DEPTHARB_THREADS")
UNITS = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB",
    "steps_per_s": "1/s", "coords_per_s": "1/s", "fail_ratio": "ratio",
    "scene.masks_calls_per_step": "count", "attention.coord_grid_calls_per_step": "count",
    "losses.value_ms": "ms", "losses.grad_ms": "ms", "losses.passes_per_step": "passes",
    "losses.field_bytes": "B", "surrogate.render_ms": "ms", "surrogate.backprop_ms": "ms",
    "optimizer.step_ms": "ms", "optimizer.self_ms_per_step": "ms", "optimizer.run_ms": "ms",
    "cli.self_ms": "ms", "scene.read_ms": "ms", "metrics.report_ms": "ms",
    "dumpio.write_ms": "ms", "dumpio.read_ms": "ms", "dumpio.round_trip_ms": "ms",
    "cli.sweep_parallelism": "ratio", "gradcheck.coord_us": "us", "gradcheck.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them, where it does."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def environment(numpy_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_info["version"],
        "blas": numpy_info["blas"],
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "cache": cache_sizes(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), ROOT_PKG,
                                                    env.get("PYTHONPATH")) if p)
    env.pop("DEPTHARB_THREADS", None)  # the sweep keeps its default pool size
    return env


def spawn_worker(args, workdir: str, deadline: float, extra: list[str]) -> tuple[dict, float]:
    """Run one worker; return its result and its raw set-up time."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="deptharb benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "deptharb", "__init__.py")):
        print("error: run from the repository root; src/deptharb is missing", file=sys.stderr)
        return 2
    workdir = os.path.abspath(os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"))
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setups = []  # (raw seconds, speed kernel seconds) per fresh interpreter
        for i in range(SETUP_SPAWNS):
            probe, setup = spawn_worker(args, os.path.join(workdir, f"setup{i}"), deadline,
                                        ["--setup-only"])
            setups.append((setup, probe["kernel_s"]))
        spans = os.path.abspath(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
        result, setup = spawn_worker(args, os.path.join(workdir, "run"), deadline,
                                     ["--spans", spans] if args.trace else [])
        setups.append((setup, result["kernel_s"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    print(f"deptharb benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    size = result["size"]
    print("size " + json.dumps(size))
    if args.trace == 0:
        e2e = result["end_to_end"]
        if e2e["op_s_tail"] is None:
            print(f"error: {e2e['n_ops']} ops are too few for a tail percentile", file=sys.stderr)
            return 1
        raw = e2e["raw"]
        details = {
            "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                       f"{statistics.median(s for s, _ in setups):.6g} s",
            "op_s_p50": f"n={e2e['n_ops']}; raw {raw['op_s_p50']:.6g} s",
            "op_s_tail": f"p{e2e['op_s_tail_pct']:g}, n={e2e['n_ops']}; raw {raw['op_s_tail']:.6g} s",
            "fail_ratio": f"{e2e['flawed']}/{e2e['attempted']} (known defects included; "
                          f"{e2e['failed']} failed otherwise)",
        }
        print(f"speed factor {e2e['speed_factor']:.4f} (times below are scaled by it)")
        shown = {
            "setup_s": statistics.median(s * factor(k) for s, k in setups),
            "op_s_p50": e2e["op_s_p50"],
            "op_s_tail": e2e["op_s_tail"],
            "steps_per_s": e2e["steps_per_s"],
            "coords_per_s": e2e["coords_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "fail_ratio": e2e["fail_ratio"],
        }
        for name, value in shown.items():
            if value is None:
                print(f"metric {name}: n/a on this workload")
            else:
                print(f"metric {name} {value:.6g} {UNITS[name]}  {details.get(name, '')}".rstrip())
        reported = {k: shown[k] for k in ("setup_s", "op_s_p50", "op_s_tail", "peak_rss_mb")}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in reported.items()}
    else:
        layers = result["per_layer"]
        for name, value in layers.items():
            print(f"layer {name} {value:.6g}")
        print(f"layer spans {result['spans']} written to {OUT_DIR}/spans-{args.workload}.jsonl")
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    for name, (good, bad) in sorted(result["checks"].items()):
        note = f"  (known defect: {KNOWN_DEFECTS[name]})" if bad and name in KNOWN_DEFECTS else ""
        print(f"check {name}: {'pass' if not bad else 'FAIL'} {good}/{good + bad}{note}")
    for error in result["errors"]:
        print("op error: " + error.strip().replace("\n", " | ")[:400])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(result["numpy"]), "size": size, "setup_samples": setups,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "details": result.get("end_to_end") or {"exp_pass_s": result["exp_pass_s"],
                                                "spans": result["spans"]},
        "checks": result["checks"], "peak_rss_mb": result["peak_rss_mb"],
    }
    print("record " + json.dumps(record))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
