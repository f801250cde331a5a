"""Run a fixed list of deptharb commands against two source trees; name each command whose results differ.

A tree is a checkout of this repository, for example a `git archive` of a
commit unpacked into a directory.  For each tree, every command in
COMMANDS runs in order, as `python -m deptharb.cli ...` with that tree's
`src` on PYTHONPATH, in a fresh working directory of the tree's own, so a
command can read a dump an earlier one wrote.  A command's results are its
exit code, its stdout, its stderr and every file it writes into that
directory (reports and dumps).  Every command that writes a file names it
relatively, so the trees' results compare byte for byte.

The commands print rounded numbers and write float32 fields, which can hide
a change in the float64 values behind them.  So after the commands, each
probe of PROBES runs as `python -c` in a process of the tree's own and
prints exact digests: every field of `check_gradients`' results, floats in
hex, and a sha256 of every loss column, the final latent and the final
field of a map-tiled raster run and of a 200-step canonical blob run.  A probe's results are compared as a
command's are.

The scenes both trees read are written once, before any command runs: the
repository's `scenes/canonical.json`, three copies of it that break one rule
each (object 1's id 2^63, its label a lone surrogate, and a bbox coordinate
of 10^400, a JSON integer of 401 digits), a 16x16
two-object scene, and `perfbench.scenegen`'s `small_scene(3)`,
`large_scene(2)` and `large_scene(1)`, all taken from the repository that
holds this script.

Usage: python3 .github/scripts/cli_digest.py PARENT_TREE CHANGE_TREE

Prints one line per command, "same" or what differs, and exits 1 if any
command differs, else 0.  Uses the standard library only; the commands
themselves need the trees' dependencies (numpy).
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TWO_OBJECTS = {
    "grid": {"height": 16, "width": 16},
    "objects": [
        {"id": 0, "label": "near", "bbox": [0.1, 0.1, 0.6, 0.6], "depth": 0.2},
        {"id": 1, "label": "far", "bbox": [0.4, 0.4, 0.9, 0.9], "depth": 0.8},
    ],
}

# {canonical}, {two}, {small}, {large}, {tiled}, {bad_id}, {bad_label} and {huge} name the scene files
COMMANDS = [
    # run with a dump and a report, then eval of the dump, in both modes
    "run --scene {canonical} --seed 0 --dump d0.darb --report r0.json",
    "eval --scene {canonical} --dump d0.darb --report e0.json",
    "run --scene {canonical} --mode blob --seed 42 --dump d1.darb --report r1.json",
    "eval --scene {canonical} --mode blob --dump d1.darb --report e1.json",
    "run --scene {two} --seed 7 --steps 60 --stage1-frac 1 --preset appendix --dump d2.darb --report r2.json",
    "eval --scene {two} --dump d2.darb --steps 60 --stage1-frac 1 --preset appendix --rel-threshold 0.3",
    "run --scene {small} --mode blob --seed 3 --steps 40 --eta-decay 0.98 --dump d3.darb --report r3.json",
    "eval --scene {small} --mode blob --dump d3.darb --steps 40 --report e3.json",
    # runs of no step
    "run --scene {canonical} --steps 0 --seed 3 --report r4.json",
    "run --scene {canonical} --mode blob --steps 0 --stage1-frac 0 --report r5.json",
    # sweeps, among them rows in different stages
    "sweep --scene {canonical} --param lambda_ortho --values 0.1,0.5,1.0 --steps 60 --report s0.json",
    "sweep --scene {canonical} --mode blob --param eta0 --values 0.25,0.5,1 --steps 40 --report s1.json",
    "sweep --scene {two} --param stage1_fraction --values 0,0.25,1 --steps 20 --rel-threshold 0.3",
    # sweeps with a failing row: a run's own abort, and a float32-rounded field
    "sweep --scene {canonical} --param eta0 --values 800,400,1e6,1e9 --steps 20 --seed 3 --report s2.json",
    "sweep --scene {canonical} --param eta0 --values 800,1e5,1e6 --steps 20 --seed 3",
    # diverging runs, one per reason and step the tests pin
    "run --scene {canonical} --eta 1e8 --steps 40 --seed 0",
    "run --scene {two} --eta 1e5 --steps 40 --seed 7",
    "run --scene {two} --eta inf --steps 40 --seed 0",
    "run --scene {canonical} --mode blob --eta 1e6 --steps 40 --seed 0",
    "run --scene {two} --mode blob --eta 1e200 --steps 40 --seed 7",
    "run --scene {canonical} --mode blob --eta inf --steps 40 --seed 0",
    "run --scene {two} --eta 1e5 --steps 1 --seed 7",
    "run --scene {canonical} --mode blob --eta 1e200 --steps 1 --seed 0",
    # fields float32 cannot hold, and a scored loss that is not finite
    "run --scene {two} --steps 50 --eta 3e4 --dump d9.darb --report r9.json",
    "run --scene {large} --steps 30 --seed 0 --dump d10.darb --report r10.json",
    "run --scene {large} --steps 30 --seed 1 --dump d11.darb --report r11.json",
    "sweep --scene {large} --steps 30 --seed 1 --param tau --values 1,2,0.5",
    "run --scene {two} --steps 2 --stage1-frac 0 --eta 0 --lambda0 1.7e308 --alpha 0 --report r12.json",
    "sweep --scene {two} --steps 2 --stage1-frac 0 --lambda0 1.7e308 --alpha 0 --param eta0 --values 0,0",
    # an eval whose dump does not match its scene
    "eval --scene {two} --dump d0.darb",
    # gradient checks
    "grad-check --samples 200",
    "grad-check --mode blob --samples 50 --stage 1",
    "grad-check --scene {small} --samples 100 --stage 2",
    "grad-check --samples 50 --lambda-ortho 1e300",
    # large pair weights: each summand is differenced on its own, so a correct raster gradient passes
    "grad-check --samples 200 --lambda0 1e8",
    "grad-check --samples 200 --lambda0 1e12",
    # blob compactness weights: one the oracle judges and passes, and one whose
    # finite differences are too noisy to judge, which it refuses (exit 1)
    "grad-check --mode blob --samples 5 --lambda-compact 1e4",
    "grad-check --mode blob --samples 5 --lambda-compact 1e8",
    # a noise above the floor but within every coordinate's own bound, which the oracle judges
    "grad-check --mode blob --samples 5 --lambda-compact 1e6 --stage 1",
    # the flags of the config fields, as their declarations give them
    "run --help",
    "sweep --help",
    # scenes rejected with the field they break, before any file is written
    "run --scene {bad_id} --steps 2 --dump d12.darb --report r13.json",
    "run --scene {bad_label} --steps 2 --dump d13.darb --report r14.json",
    # a huge integer, whose message shows its leading digits and digit count
    "run --scene {huge} --steps 2",
    # flag values the parser refuses, each message naming the flag's rule and showing the value bounded
    "grad-check --seed 1" + "0" * 1000,
    "grad-check --samples 1.5",
    "run --scene {canonical} --tau x",
    "sweep --scene {canonical} --param tau --values 1,x",
]

# every field of a check's results, floats in hex, per mode and stages; at
# rel_tol 0 every coordinate fails, so the failures hold every analytic and
# finite-difference value
GRADCHECK_PROBE = """
import dataclasses, sys
from deptharb import GuidanceConfig, check_gradients, init_latent, parse_scene

def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return "(" + " ".join(map(hexed, value)) + ")"
    return repr(value)

with open(sys.argv[1], encoding="utf-8") as fh:
    scene = parse_scene(fh.read())
for mode in ("raster", "blob"):
    for stages in ((1,), (2,), (1, 2)):
        latent = init_latent(scene, mode, 0)
        results = check_gradients(scene, GuidanceConfig(), latent, stages, seed=0, samples=200, rel_tol=0.0)
        for stage, result in zip(stages, results):
            print(mode, stages, stage, hexed(result))
"""

# a sha256 of each loss column, the step sizes, the final latent and the
# final field of a run: scene, mode, steps and seed are its arguments
TRAJECTORY_PROBE = """
import dataclasses, hashlib, sys
import numpy as np
from deptharb import GuidanceConfig, init_latent, parse_scene, run_guidance

def digest(values):
    values = np.ascontiguousarray(values)
    return f"{values.dtype} {values.shape} {hashlib.sha256(values.tobytes()).hexdigest()}"

path, mode, steps, seed = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    scene = parse_scene(fh.read())
trajectory = run_guidance(scene, GuidanceConfig(total_steps=int(steps)), init_latent(scene, mode, int(seed)))
for f in dataclasses.fields(trajectory.terms):
    column = getattr(trajectory.terms, f.name)
    print(f.name, repr(column) if f.name == "pairs" else digest(column))
print("eta", digest(trajectory.eta))
print("final latent", digest(trajectory.final_latent.values))
print("final field", digest(trajectory.final_field.maps))
"""

# (label, code, its arguments); {tiled} is 256x256 with K = 8, so its run walks tiles of one map
PROBES = [
    ("probe: grad-check results in hex, canonical", GRADCHECK_PROBE, "{canonical}"),
    ("probe: grad-check results in hex, small", GRADCHECK_PROBE, "{small}"),
    ("probe: trajectory digests, map-tiled raster run", TRAJECTORY_PROBE, "{tiled} raster 16 0"),
    ("probe: trajectory digests, canonical blob run", TRAJECTORY_PROBE, "{canonical} blob 200 7"),
]


def write_scenes(directory: str) -> dict[str, str]:
    sys.path.insert(0, REPO)
    from perfbench import scenegen

    docs = {
        "two": TWO_OBJECTS, "small": scenegen.small_scene(3), "large": scenegen.large_scene(2),
        "tiled": scenegen.large_scene(1),
    }
    paths = {"canonical": os.path.join(directory, "canonical.json")}
    shutil.copyfile(os.path.join(REPO, "scenes", "canonical.json"), paths["canonical"])
    edits = {
        "bad_id": lambda obj: obj.update(id=2**63),
        "bad_label": lambda obj: obj.update(label="\ud800"),
        "huge": lambda obj: obj["bbox"].__setitem__(2, 10**400),
    }
    for name, edit in edits.items():
        with open(paths["canonical"], encoding="utf-8") as fh:
            docs[name] = json.load(fh)
        edit(docs[name]["objects"][1])
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def snapshot(directory: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


def run_all(tree: str, scenes: dict[str, str], workdir: str) -> list[tuple]:
    """Each command's (exit code, stdout, stderr, files it wrote) on `tree`, then each probe's."""
    src = os.path.realpath(os.path.join(tree, "src"))
    env = {**os.environ, "PYTHONPATH": src}
    origin = subprocess.run(
        [sys.executable, "-c", "import deptharb; print(deptharb.__file__)"], env=env, capture_output=True, text=True
    ).stdout.strip()
    if not os.path.realpath(origin).startswith(src + os.sep):
        raise SystemExit(f"deptharb imports from {origin or 'nowhere'}, not from {src}")
    argvs = [[sys.executable, "-m", "deptharb.cli", *shlex.split(command.format(**scenes))] for command in COMMANDS]
    argvs += [[sys.executable, "-c", code, *shlex.split(args.format(**scenes))] for _, code, args in PROBES]
    results, before = [], {}
    for argv in argvs:
        done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=600)
        after = snapshot(workdir)
        written = {name: data for name, data in after.items() if before.get(name) != data}
        results.append((done.returncode, done.stdout, done.stderr, written))
        before = after
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: cli_digest.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        scenes = write_scenes(tmp)
        runs = []
        for n, tree in enumerate(argv):
            workdir = os.path.join(tmp, f"tree{n}")
            os.mkdir(workdir)
            runs.append(run_all(tree, scenes, workdir))
    differing = 0
    labels = COMMANDS + [label for label, _, _ in PROBES]
    for command, parent, change in zip(labels, *runs, strict=True):
        diffs = [what for what, a, b in zip(("exit code", "stdout", "stderr"), parent, change) if a != b]
        written = sorted(parent[3].keys() | change[3].keys())
        diffs += [f"file {name}" for name in written if parent[3].get(name) != change[3].get(name)]
        differing += bool(diffs)
        print(f"{'DIFFERS in ' + ', '.join(diffs) if diffs else 'same'}: {command} (exit {parent[0]})")
    print(f"{differing} of {len(labels)} commands and probes differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
