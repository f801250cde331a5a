"""Run the benchmark over several seeds and summarise it into a BENCH_*.json file.

    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline/BENCH_baseline.json

Run from the repository root.  This one command runs every workload: one
untraced run per seed (seeds 0..N-1) and one traced run (seed 0).  It
prints each end-to-end metric's median with its unit, the distance between
its quartiles as a share of the median beside the metric's bound from
BENCHMARK.json, and the check verdicts; the file also lists the per-layer
metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT_PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT_PKG not in sys.path:
    sys.path.insert(0, ROOT_PKG)

from perfbench.run import UNITS  # noqa: E402
from perfbench.stats import relative_iqr  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT_PKG, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    record["result"] = json.loads(lines[-1])
    return record


def summarise(values: list[float], bound: float | None) -> dict:
    out: dict = {"median": statistics.median(values), "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, rel_iqr=relative_iqr(values))
    if bound is not None:
        out["bound"] = bound
    return out


def merge_checks(runs: list[dict]) -> dict:
    tally: dict[str, list[int]] = {}
    for r in runs:
        for name, (good, bad) in r["checks"].items():
            t = tally.setdefault(name, [0, 0])
            t[0] += good
            t[1] += bad
    return tally


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc: dict = {"run_seconds": bench["run_seconds"], "seeds": list(range(args.seeds)), "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in range(args.seeds)]
        entry = {
            "size": runs[0]["size"],
            "end_to_end": {m: summarise([r["metrics"][m] for r in runs], bounds[m]) for m in bounds},
            "informational": {
                m: summarise([r["details"][m] for r in runs], None)
                for m in ("steps_per_s", "coords_per_s", "fail_ratio")
                if runs[0]["details"][m] is not None
            },
            "unscaled": {
                "setup_s": summarise([statistics.median(s for s, _ in r["setup_samples"])
                                      for r in runs], None),
                **{m: summarise([r["details"]["raw"][m] for r in runs], None)
                   for m in ("op_s_p50", "op_s_tail")},
            },
            "tail_pct_and_n": [(r["details"]["op_s_tail_pct"], r["details"]["n_ops"]) for r in runs],
            "checks": merge_checks(runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
        }
        entry["per_layer"] = run_once(name, 0, bench["run_seconds"], 1)["metrics"]
        doc["workloads"][name] = entry
        doc["env"] = runs[0]["env"]
        for metric, s in {**entry["end_to_end"], **entry["informational"]}.items():
            raw = entry["unscaled"].get(metric)
            print(f"{name:14s} {metric:12s} median {s['median']:.6g} {UNITS[metric]}"
                  + (f"  rel_iqr {s['rel_iqr']:.4f}" if s.get("rel_iqr") is not None else "")
                  + (f" (bound {s['bound']})" if "bound" in s else "")
                  + (f"  unscaled rel_iqr {raw['rel_iqr']:.4f}" if raw and raw.get("rel_iqr") is not None
                     else ""))
        for check, (good, bad) in sorted(entry["checks"].items()):
            print(f"{name:14s} check {check}: {good}/{good + bad} pass")
        print(f"{name:14s} correct {entry['correct']}, failed {entry['failed']}/{entry['attempted']}",
              flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
