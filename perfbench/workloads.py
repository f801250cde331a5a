"""The four benchmark workloads: their inputs, ops and output checks.

An op is one in-process `deptharb.cli.main` call.  A workload hands out ops
in units (the canonical-run unit is run, eval of its dump, blob run) that
are always completed together, because later ops of a unit check earlier
ones.  Every check returns (name, passed); an op fails when it raises,
exits non-zero, or fails a check that is not one of KNOWN_DEFECTS.

The sweep runs SWEEP_STEPS steps per value and large-raster LARGE_STEPS
steps per run, fewer than a full-length run (200 and 50), so that a 20 s
measuring window holds at least 20 ops and a tail percentile exists on
every workload.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from . import scenegen

# Thresholds of the acceptance suite's arbitration-dynamics criterion.
MIN_F = 0.90
MAX_MEAN_INTERFERENCE = 0.05
MIN_FOCR = 0.95
# A map with less than this share of its energy inside its box has collapsed
# (the blob background map ends at f = 0 for some seeds).
COLLAPSE_F = 0.01
# Checks that fail because of a known, still-open program defect.  They are
# tallied in the check verdicts and in `fail_ratio`, but an op that fails
# only them is not counted in the result's `failed` and does not mark the
# run incorrect: the workloads must run without failed ops, and the defect
# stays visible instead of being avoided by a choice of seeds.
KNOWN_DEFECTS = {"blob_not_collapsed": "blob map collapse (open defect in blob mode)"}

# The benchmark passes every size and threshold it counts or checks, so a
# change to the program's defaults cannot change the workload.
CANONICAL_STEPS = 200
GRADCHECK_TOL = 1e-5
SWEEP_VALUES = 8
SWEEP_STEPS = 20
LARGE_STEPS = 16
GRADCHECK_SAMPLES = {  # (scene, mode) -> --samples, chosen so the four ops cost about the same
    ("canonical", "raster"): 60,
    ("canonical", "blob"): 140,
    ("small", "raster"): 210,
    ("small", "blob"): 500,
}

Check = tuple[str, bool]


@dataclass
class Op:
    argv: list[str]
    steps: int = 0  # guidance steps the op completes
    coords: int = 0  # gradient coordinates the op verifies
    outputs: tuple[str, ...] = ()  # files the op writes; removed before it runs
    check: Callable[[int, str], list[Check]] = field(default=lambda code, out: [])


def _read_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _without_timestamp(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "timestamp"}


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.scene_files: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_scene(self, name: str, scene: dict) -> str:
        path = self.path(name)
        scenegen.write_scene(path, scene)
        self.scene_files.append(path)
        return path

    def size(self) -> dict:
        raise NotImplementedError

    def field_shape(self) -> tuple[int, int, int]:
        """(K, H, W) of the field the workload's steps work on."""
        s = self.size()
        return s["K"], s["H"], s["W"]

    def unit(self) -> list[Op]:
        raise NotImplementedError


class CanonicalRun(Workload):
    name = "canonical-run"

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.scene = self.write_scene("canonical.json", scenegen.CANONICAL)
        self.dump = self.path("run.darb")

    def size(self) -> dict:
        return {"H": 64, "W": 64, "K": 2, "steps": CANONICAL_STEPS, "ops_per_seed": 3}

    def unit(self) -> list[Op]:
        seed, steps = str(self.rng.randrange(2**32)), str(CANONICAL_STEPS)
        run_report, eval_report, blob_report = (
            self.path(n) for n in ("run.json", "eval.json", "blob.json")
        )
        state: dict = {}

        def check_run(code: int, out: str) -> list[Check]:
            doc = state["run"] = _read_json(run_report) if code == 0 else None
            if doc is None:
                return [("raster_dynamics", False)]
            f_ok = all(o["f"] >= MIN_F for o in doc["per_object"])
            inter = [p["interference"] for p in doc["per_pair"]]
            i_ok = bool(inter) and sum(inter) / len(inter) <= MAX_MEAN_INTERFERENCE
            focr = doc["metrics"]["focr_mean"]
            return [("raster_dynamics", f_ok and i_ok and focr is not None and focr >= MIN_FOCR)]

        def check_eval(code: int, out: str) -> list[Check]:
            doc = _read_json(eval_report) if code == 0 else None
            ref = state.get("run")
            same = doc is not None and ref is not None and _without_timestamp(doc) == _without_timestamp(ref)
            return [("eval_matches_run", same)]

        def check_blob(code: int, out: str) -> list[Check]:
            doc = _read_json(blob_report) if code == 0 else None
            ok = doc is not None and all(o["f"] >= COLLAPSE_F for o in doc["per_object"])
            return [("blob_not_collapsed", ok)]

        return [
            Op(["run", "--scene", self.scene, "--seed", seed, "--steps", steps, "--dump", self.dump,
                "--report", run_report], steps=CANONICAL_STEPS,
               outputs=(self.dump, run_report), check=check_run),
            Op(["eval", "--dump", self.dump, "--scene", self.scene, "--steps", steps,
                "--report", eval_report], outputs=(eval_report,), check=check_eval),
            Op(["run", "--scene", self.scene, "--seed", seed, "--steps", steps, "--mode", "blob",
                "--report", blob_report], steps=CANONICAL_STEPS,
               outputs=(blob_report,), check=check_blob),
        ]


class Sweep(Workload):
    name = "sweep"

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.scene = self.write_scene("canonical.json", scenegen.CANONICAL)
        values = sorted(round(self.rng.uniform(0.05, 1.0), 4) for _ in range(SWEEP_VALUES))
        self.values = ",".join(repr(v) for v in values)
        self.sweep_seed = str(self.rng.randrange(2**32))
        self.reference: list | None = None

    def size(self) -> dict:
        return {"H": 64, "W": 64, "K": 2, "steps": SWEEP_STEPS, "values": SWEEP_VALUES}

    def unit(self) -> list[Op]:
        report = self.path("sweep.json")

        def check(code: int, out: str) -> list[Check]:
            doc = _read_json(report) if code == 0 else None
            rows = None if doc is None else doc["rows"]
            if self.reference is None:
                self.reference = rows
            return [("rows_identical", rows is not None and rows == self.reference)]

        argv = ["sweep", "--scene", self.scene, "--param", "lambda_ortho", "--values", self.values,
                "--seed", self.sweep_seed, "--steps", str(SWEEP_STEPS), "--report", report]
        return [Op(argv, steps=SWEEP_VALUES * SWEEP_STEPS, outputs=(report,), check=check)]


class LargeRaster(Workload):
    name = "large-raster"
    LATENT_SEEDS = 3

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.scene_doc = scenegen.large_scene(self.rng.randrange(2**32))
        self.scene = self.write_scene("large.json", self.scene_doc)
        self.latent_seeds = [self.rng.randrange(2**32) for _ in range(self.LATENT_SEEDS)]
        self.start_totals: dict[int, float] = {}
        self.cfg = None
        self.turn = 0

    def size(self) -> dict:
        return {"H": 256, "W": 256, "K": 8, "steps": LARGE_STEPS,
                "pairs": scenegen.occlusion_pairs(self.scene_doc)}

    def stage1_total(self, align: float, ortho: float, compact: float) -> float:
        return align + self.cfg.lambda_ortho * ortho + self.cfg.lambda_compact * compact

    def start_total(self, seed: int) -> float:
        """Stage-1 total of the initial field, from the library (outside any timed op).

        Like the report, it is taken on the float32-rounded field, so a run
        that never moves the latent ends equal to it, not below.
        """
        if seed not in self.start_totals:
            # imported here: the parent process imports this module without the program
            import deptharb as d
            from deptharb.scene import read_scene

            scene, overrides = read_scene(self.scene)
            self.cfg = d.GuidanceConfig().updated(**overrides)
            field_ = d.round_trip32(d.render_attention(d.init_latent(scene, "raster", seed), scene))
            b = d.staged_loss(field_, scene, d.derive_occlusion_pairs(scene), self.cfg, 1)
            self.start_totals[seed] = self.stage1_total(b.align, b.ortho, b.compact)
        return self.start_totals[seed]

    def unit(self) -> list[Op]:
        seed = self.latent_seeds[self.turn % len(self.latent_seeds)]
        self.turn += 1
        report = self.path("report.json")

        def check(code: int, out: str) -> list[Check]:
            # The report's total is the final stage's objective (stage 2 at
            # LARGE_STEPS, which drops ortho), so the stage-1 objective is
            # rebuilt from the reported terms and compared with the same
            # objective at the start.  The stage-2 objective need not end
            # below its starting value: stage 1 may trade align for ortho.
            doc = _read_json(report) if code == 0 else None
            ok = doc is not None
            if ok:
                terms = [doc["losses"][k] for k in ("align", "ortho", "compact")]
                start = self.start_total(seed)
                ok = all(math.isfinite(v) for v in (doc["losses"]["total"], *terms))
                ok = ok and self.stage1_total(*terms) < start
            return [("finite_and_descending", ok)]

        argv = ["run", "--scene", self.scene, "--seed", str(seed), "--steps", str(LARGE_STEPS),
                "--report", report]
        return [Op(argv, steps=LARGE_STEPS, outputs=(report,), check=check)]


_STAGE_LINE = re.compile(r"^stage (\d) \((\w+)\): (\d+) coordinates, .* -> (pass|\d+ FAILURES)$", re.M)


class GradCheck(Workload):
    name = "grad-check"

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        small = scenegen.small_scene(self.rng.randrange(2**32))
        self.scenes = {
            name: (self.write_scene(f"{name}.json", doc), len(doc["objects"]))
            for name, doc in (("canonical", scenegen.CANONICAL), ("small", small))
        }

    def size(self) -> dict:
        return {"H": 64, "W": 64, "K": 2, "small_H": 32, "small_W": 32, "small_K": self.scenes["small"][1],
                "samples": {f"{s}/{m}": n for (s, m), n in GRADCHECK_SAMPLES.items()}}

    def unit(self) -> list[Op]:
        ops = []
        for (scene_name, mode), samples in GRADCHECK_SAMPLES.items():
            path, k = self.scenes[scene_name]
            per_stage = 2 * samples if mode == "raster" else samples + 5 * k
            expected = 2 * per_stage

            def check(code: int, out: str, expected=expected) -> list[Check]:
                lines = _STAGE_LINE.findall(out)
                coords = sum(int(n) for _, _, n, _ in lines)
                ok = code == 0 and len(lines) == 2 and coords == expected
                return [("no_gradient_failures", ok and all(v == "pass" for *_, v in lines))]

            argv = ["grad-check", "--scene", path, "--mode", mode, "--stage", "both",
                    "--samples", str(samples), "--tol", repr(GRADCHECK_TOL), "--seed", str(self.rng.randrange(2**32))]
            ops.append(Op(argv, coords=expected, check=check))
        return ops


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CanonicalRun, Sweep, LargeRaster, GradCheck)
}
