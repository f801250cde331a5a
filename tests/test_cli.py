from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deptharb
from deptharb import AttentionField, GuidanceConfig, check_gradients, init_latent, optimizer, write_dump
from deptharb import cli
from deptharb.cli import UsageError, _print_summary, build_parser, dumps_report, main, resolve_config
from deptharb.gradcheck import CoordReport, GradCheckResult
from deptharb.metrics import DEFAULT_REL_THRESHOLD, _score_rows
from deptharb.scene import DOMAINS, GUIDANCE_CONFIG_KEYS, SceneError, parse_scene_with_config
from deptharb.surrogate import MODES, _mode_class

from conftest import scene_file_text


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(scene_file_text(grid=32), encoding="utf-8")
    return str(path)


# per config field: its flag, a scene-file value and a flag value (none a default)
CONFIG_SAMPLES = {
    "lambda0": ("--lambda0", 0.3, 0.7),
    "alpha": ("--alpha", 2.0, 3.0),
    "tau": ("--tau", 0.5, 2.0),
    "lambda_ortho": ("--lambda-ortho", 0.7, 0.9),
    "lambda_compact": ("--lambda-compact", 0.1, 0.3),
    "epsilon": ("--epsilon", 1e-6, 1e-4),
    "eta0": ("--eta", 5.0, 7.0),
    "eta_decay": ("--eta-decay", 0.9, 0.8),
    "stage1_fraction": ("--stage1-frac", 0.25, 0.75),
    "total_steps": ("--steps", 7, 9),
}


def run_cli(*argv) -> int:
    return main(list(argv))


def _record_chunks(monkeypatch) -> list[list[float]]:
    """The eta0 of each chunk of rows the run loop steps, in order."""
    chunks = []
    real = optimizer._run_chunk

    def recording(scene, plan, latent0):
        chunks.append([cfg.eta0 for cfg in plan.cfgs])
        return real(scene, plan, latent0)

    monkeypatch.setattr("deptharb.optimizer._run_chunk", recording)
    return chunks


def _record_renders(monkeypatch) -> list:
    """Every surrogate the run loop sets up, with one row per chunk.

    With one row per chunk, a config checked only as its chunk starts would
    let the rows before it render first.
    """
    calls = []
    real = optimizer._surrogate
    monkeypatch.setattr("deptharb.optimizer._CHUNK_ENTRIES", 1)
    monkeypatch.setattr("deptharb.optimizer._surrogate", lambda *a: calls.append(a) or real(*a))
    return calls


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSerializer:
    def test_sig_digit_floats_round_trip(self):
        doc = {"a": 0.1 + 0.2, "b": [1.0 / 3.0, 1e-300], "c": {"d": 2.0**-52}, "e": 800.0}
        parsed = json.loads(dumps_report(doc))
        assert parsed["a"] == 0.1 + 0.2
        assert parsed["b"] == [1.0 / 3.0, 1e-300]
        assert parsed["c"]["d"] == 2.0**-52
        assert parsed["e"] == 800.0 and isinstance(parsed["e"], float)

    def test_null_and_ints(self):
        parsed = json.loads(dumps_report({"x": None, "y": 7, "z": True}))
        assert parsed == {"x": None, "y": 7, "z": True}


class TestRun:
    def test_zero_steps_reports_initial_losses(self, tmp_path, scene_path):
        report_path = tmp_path / "r.json"
        code = run_cli(
            "run", "--scene", scene_path, "--steps", "0", "--seed", "3",
            "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert set(report.keys()) == {
            "losses", "per_object", "per_pair", "metrics", "config", "seed",
        }
        assert report["seed"] == 3
        assert report["config"]["total_steps"] == 0
        # losses echo the untouched initial field (through the 32-bit payload)
        import deptharb as d
        from deptharb.dumpio import round_trip32
        from deptharb.scene import read_scene

        scene, _ = read_scene(scene_path)
        latent = d.init_latent(scene, "raster", 3)
        field = round_trip32(d.render_attention(latent, scene))
        pairs = d.derive_occlusion_pairs(scene)
        bd = d.staged_loss(field, scene, pairs, d.GuidanceConfig(total_steps=0), 1)
        assert report["losses"]["total"] == bd.total
        assert report["losses"]["align"] == bd.align

    def test_more_steps_than_a_run_can_take_exit_1_at_once(self, tmp_path, monkeypatch, capsys, scene_path):
        # refused before the run builds any per-pass list: 10^12 passes would take the machine's memory;
        # eval derives only the end state's stage, so it still scores a dump at that step count
        dump_path = str(tmp_path / "f.darb")
        assert run_cli("run", "--scene", scene_path, "--steps", "0", "--dump", dump_path) == 0
        capsys.readouterr()
        monkeypatch.setattr(optimizer, "_schedule", lambda cfgs: pytest.fail("a schedule was built"))
        assert run_cli("run", "--scene", scene_path, "--steps", "1000000000000") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: total_steps: 1000000000000 exceeds the {optimizer._PASS_ENTRIES - 1} steps a run can take"
        ]
        assert run_cli("eval", "--scene", scene_path, "--dump", dump_path, "--steps", "1000000000000") == 0

    # each integer of thousands of digits a scene file or flag can hand a run, where it goes, and what the message
    # shows of it
    HUGE_INPUTS = {
        "bbox coordinate": (lambda doc: doc["objects"][1]["bbox"].__setitem__(2, 10**400), (), "(401 digits)"),
        "depth": (lambda doc: doc["objects"][1].__setitem__("depth", -(10**4000)), (), "(4001 digits)"),
        "id": (lambda doc: doc["objects"][1].__setitem__("id", 10**1000), (), "(1001 digits)"),
        "grid height": (lambda doc: doc["grid"].__setitem__("height", 10**1000), (), "(1001 digits)"),
        "total_steps domain": (lambda doc: None, ("--steps", str(-(10**1000))), "(1001 digits)"),
        "total_steps passes": (lambda doc: doc.setdefault("config", {}).__setitem__("total_steps", 10**1000), (),
                               "(1001 digits)"),
    }

    @pytest.mark.parametrize("case", list(HUGE_INPUTS))
    def test_a_huge_integer_is_rejected_with_a_short_message(self, tmp_path, capsys, case):
        edit, flags, shown = self.HUGE_INPUTS[case]
        doc = json.loads(scene_file_text(grid=32))
        edit(doc)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("run", "--scene", str(path), *flags) == 1
        err = capsys.readouterr().err
        # a flag is refused by the parser, before the scene is read
        assert err.startswith("usage error: argument --steps: " if flags else "error: ") and shown in err
        assert len(err) <= 160, err

    def test_config_keeps_number_types(self, tmp_path, scene_path):
        report_path = tmp_path / "r.json"
        assert run_cli("run", "--scene", scene_path, "--steps", "0", "--report", str(report_path)) == 0
        config = load_report(report_path)["config"]
        assert config["eta0"] == 800.0 and isinstance(config["eta0"], float)
        assert config["total_steps"] == 0 and isinstance(config["total_steps"], int)

    def test_reports_byte_identical(self, tmp_path, scene_path):
        # a report holds no wall-clock data, so repeated runs write the same bytes
        texts = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = run_cli(
                "run", "--scene", scene_path, "--steps", "40", "--seed", "7",
                "--report", str(path),
            )
            assert code == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_missing_scene_file_is_input_error(self, tmp_path):
        assert run_cli("run", "--scene", str(tmp_path / "nope.json")) == 1

    def test_box_covering_no_pixel_center_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "tiny_box.json"
        path.write_text(
            scene_file_text(grid=16).replace("[0.1, 0.1, 0.6, 0.6]", "[0.1, 0.1, 0.12, 0.12]"),
            encoding="utf-8",
        )
        assert run_cli("run", "--scene", str(path), "--steps", "1") == 1
        assert "covers no pixel center" in capsys.readouterr().err

    def test_malformed_scene_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        assert run_cli("run", "--scene", str(path)) == 1

    def test_numerical_abort_exit_code(self, tmp_path, scene_path):
        assert run_cli("run", "--scene", scene_path, "--steps", "5", "--eta", "1e12") == 2

    def test_scene_file_not_utf8_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(scene_file_text(grid=16).replace('"a"', '"\xe9"').encode("latin-1"))
        assert run_cli("run", "--scene", str(path), "--steps", "1") == 1
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_field_beyond_float32_range_aborts_at_last_step(self, tmp_path, capsys, command):
        # the float64 field stays finite but overflows the float32 rounding;
        # before, a RuntimeWarning leaked and the run exited 1
        path = tmp_path / "s16.json"
        path.write_text(scene_file_text(grid=16), encoding="utf-8")
        extra = ("--eta", "3e4") if command == "run" else ("--param", "eta0", "--values", "3e4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--scene", str(path), "--steps", "50", *extra) == 2
        assert "float32-rounded field at step 50" in capsys.readouterr().err

    def test_collapsing_blob_prints_only_its_abort(self, tmp_path, capsys):
        path = tmp_path / "s16.json"
        path.write_text(scene_file_text(grid=16), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("run", "--scene", str(path), "--mode", "blob", "--eta", "1e6", "--steps", "5")
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "numerical abort: non-finite latent gradient at step 1\n"

    def test_config_precedence_file_over_default_flag_over_file(self, tmp_path):
        text = scene_file_text(grid=32)[:-1] + ', "config": {"eta0": 2.5, "tau": 3.0}}'
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        r1 = tmp_path / "r1.json"
        run_cli("run", "--scene", str(path), "--steps", "0", "--report", str(r1))
        cfg1 = load_report(r1)["config"]
        assert cfg1["eta0"] == 2.5 and cfg1["tau"] == 3.0

        r2 = tmp_path / "r2.json"
        run_cli("run", "--scene", str(path), "--steps", "0", "--eta", "9.0", "--report", str(r2))
        cfg2 = load_report(r2)["config"]
        assert cfg2["eta0"] == 9.0 and cfg2["tau"] == 3.0

    @pytest.mark.parametrize("key", GUIDANCE_CONFIG_KEYS)
    def test_every_config_field_set_by_file_then_flag(self, key):
        flag, file_value, flag_value = CONFIG_SAMPLES[key]
        text = scene_file_text(grid=32)[:-1] + ', "config": {"%s": %r}}' % (key, file_value)
        _, overrides = parse_scene_with_config(text)
        assert overrides == {key: file_value}
        parser = build_parser()
        from_file = resolve_config(parser.parse_args(["run", "--scene", "s.json"]), overrides)
        assert getattr(from_file, key) == file_value
        args = parser.parse_args(["run", "--scene", "s.json", flag, str(flag_value)])
        assert getattr(resolve_config(args, overrides), key) == flag_value

    def test_preset_selects_defaults_and_flags_override(self, tmp_path, scene_path):
        r1 = tmp_path / "r1.json"
        run_cli("run", "--scene", scene_path, "--steps", "0", "--preset", "appendix",
                "--report", str(r1))
        cfg = load_report(r1)["config"]
        assert cfg["lambda_ortho"] == 0.2 and cfg["lambda_compact"] == 0.5

        r2 = tmp_path / "r2.json"
        run_cli("run", "--scene", scene_path, "--steps", "0", "--preset", "appendix",
                "--lambda-ortho", "0.9", "--report", str(r2))
        cfg = load_report(r2)["config"]
        assert cfg["lambda_ortho"] == 0.9 and cfg["lambda_compact"] == 0.5

    def test_blob_mode_gets_its_own_default_step_size(self, tmp_path, scene_path):
        r1 = tmp_path / "r1.json"
        run_cli("run", "--scene", scene_path, "--steps", "0", "--mode", "blob",
                "--report", str(r1))
        assert load_report(r1)["config"]["eta0"] == 0.5
        r2 = tmp_path / "r2.json"
        run_cli("run", "--scene", scene_path, "--steps", "0", "--mode", "blob",
                "--eta", "0.125", "--report", str(r2))
        assert load_report(r2)["config"]["eta0"] == 0.125

    @pytest.mark.parametrize("mode", MODES)
    def test_default_step_is_the_mode_tables(self, tmp_path, scene_path, mode):
        default_eta0 = _mode_class(mode).default_eta0
        reports = [tmp_path / "default.json", tmp_path / "explicit.json"]
        argv = ["run", "--scene", scene_path, "--steps", "5", "--mode", mode]
        assert run_cli(*argv, "--report", str(reports[0])) == 0
        assert run_cli(*argv, "--eta", repr(default_eta0), "--report", str(reports[1])) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert load_report(reports[0])["config"]["eta0"] == default_eta0

    def test_blob_mode_run_improves_losses(self, tmp_path, scene_path):
        report_path = tmp_path / "blob.json"
        code = run_cli(
            "run", "--scene", scene_path, "--steps", "80", "--mode", "blob",
            "--seed", "21", "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert report["config"]["mode"] == "blob"
        assert all(obj["f"] >= 0.5 for obj in report["per_object"])


class TestCanonicalDefaults:
    def test_default_run_converges_on_shipped_scene(self, tmp_path):
        from pathlib import Path

        scene = Path(__file__).resolve().parent.parent / "scenes" / "canonical.json"
        report_path = tmp_path / "canon.json"
        code = run_cli(
            "run", "--scene", str(scene), "--seed", "42", "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert report["metrics"]["focr_mean"] >= 0.95
        assert all(obj["f"] >= 0.90 for obj in report["per_object"])


class TestEval:
    def test_round_trip_reproduces_metrics_exactly(self, tmp_path, scene_path):
        dump_path = tmp_path / "f.darb"
        run_report = tmp_path / "run.json"
        code = run_cli(
            "run", "--scene", scene_path, "--steps", "30", "--seed", "11",
            "--dump", str(dump_path), "--report", str(run_report),
        )
        assert code == 0
        eval_report = tmp_path / "eval.json"
        code = run_cli(
            "eval", "--dump", str(dump_path), "--scene", scene_path, "--steps", "30",
            "--report", str(eval_report),
        )
        assert code == 0
        assert run_report.read_bytes() == eval_report.read_bytes()

    def test_object_count_mismatch(self, tmp_path, scene_path):
        rng = np.random.default_rng(0)
        field = AttentionField(maps=rng.uniform(0, 1, (3, 32, 32)))
        dump_path = tmp_path / "f.darb"
        write_dump(str(dump_path), field, seed=0)
        assert run_cli("eval", "--dump", str(dump_path), "--scene", scene_path) == 1

    def test_grid_mismatch(self, tmp_path, scene_path):
        rng = np.random.default_rng(0)
        field = AttentionField(maps=rng.uniform(0, 1, (2, 16, 16)))
        dump_path = tmp_path / "f.darb"
        write_dump(str(dump_path), field, seed=0)
        assert run_cli("eval", "--dump", str(dump_path), "--scene", scene_path) == 1

    def test_hand_built_foreground_only_dump_scores_full_focr(self, tmp_path, scene_path):
        from deptharb.scene import read_scene
        from reference import rasterize_mask

        scene, _ = read_scene(scene_path)
        fg = rasterize_mask(scene.objects[0].bbox, 32, 32)
        field = AttentionField(maps=np.stack([fg, np.zeros((32, 32))]))
        dump_path = tmp_path / "fg.darb"
        write_dump(str(dump_path), field, seed=5)
        report_path = tmp_path / "r.json"
        code = run_cli(
            "eval", "--dump", str(dump_path), "--scene", scene_path,
            "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert report["metrics"]["focr_mean"] == 1.0
        assert report["seed"] == 5

    def test_corrupt_dump_is_input_error(self, tmp_path, scene_path):
        path = tmp_path / "junk.darb"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("eval", "--dump", str(path), "--scene", scene_path) == 1

    def test_seed_flag_is_a_usage_error_before_any_work(self, monkeypatch, capsys, scene_path):
        # eval reports the seed stored in the dump, so a --seed would be ignored
        calls = []
        monkeypatch.setattr("deptharb.cli.read_dump", lambda *a: calls.append(a))
        assert run_cli("eval", "--dump", "missing.darb", "--scene", scene_path, "--seed", "99") == 1
        assert "usage error" in capsys.readouterr().err
        assert calls == []


class TestGradCheckCommand:
    def test_default_scene_passes(self, capsys):
        code = run_cli("grad-check", "--samples", "60", "--seed", "5")
        assert code == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out

    def test_scene_config_block_reaches_grad_check(self, tmp_path, capsys):
        # an absurd epsilon from the file's config block must flow through
        text = scene_file_text(grid=16)[:-1] + ', "config": {"epsilon": 0.0}}'
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        code = run_cli("grad-check", "--scene", str(path), "--samples", "10")
        assert code == 1  # epsilon must be > 0: config validation rejects it
        assert "epsilon" in capsys.readouterr().err

    def test_worst_relative_error_is_over_the_coordinates_the_relative_bound_judges(self, capsys):
        # at lambda_compact 1e4 a few near-zero blob coordinates pass under the absolute floor with
        # relative errors near 1e-3; every other coordinate is within 1e-8
        assert run_cli("grad-check", "--mode", "blob", "--lambda-compact", "1e4") == 0
        out = capsys.readouterr().out.splitlines()
        stage_lines = [re.fullmatch(
            r"stage (\d) \(blob\): 1010 coordinates, worst rel (\S+) \((\d+) judged by the 1e-09 floor\), "
            r"worst abs \S+ -> pass", line) for line in out[-3:-1]]
        assert [m.group(1) for m in stage_lines] == ["1", "2"]
        worst = [float(m.group(2)) for m in stage_lines]
        assert max(worst) < 1e-8 and all(int(m.group(3)) > 0 for m in stage_lines)
        final = float(out[-1].removeprefix("worst relative error: "))
        assert f"{final:.3e}" == f"{max(worst):.3e}"

    def test_impossible_tolerance_fails(self):
        assert run_cli("grad-check", "--samples", "40", "--tol", "0") == 3

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tol):
        # inf passed every coordinate of any gradient, nan and -1 failed every one
        assert run_cli("grad-check", "--samples", "5", f"--tol={tol}") == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--tol" in captured.err
        assert captured.out == ""

    def test_blob_mode_and_single_stage(self, scene_path):
        assert run_cli(
            "grad-check", "--scene", scene_path, "--mode", "blob",
            "--stage", "2", "--samples", "50",
        ) == 0

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_both_stages_check_one_seeded_latent(self, monkeypatch, mode):
        # one oracle call checks both stages, on the one latent built
        built, checked = [], []

        def init(scene, mode_, seed):
            built.append(init_latent(scene, mode_, seed))
            return built[-1]

        def check(scene, cfg, latent, stages, **kwargs):
            checked.append((latent, stages))
            return check_gradients(scene, cfg, latent, stages, **kwargs)

        monkeypatch.setattr("deptharb.cli.init_latent", init)
        monkeypatch.setattr("deptharb.cli.check_gradients", check)
        assert run_cli("grad-check", "--mode", mode, "--seed", "3", "--samples", "20") == 0
        assert len(built) == 1 and built[0].mode == mode
        assert [(latent is built[0], stages) for latent, stages in checked] == [(True, (1, 2))]


    def test_non_finite_errors_show_and_lead_the_offenders(self, capsys):
        # -inf against a subnormal FD, each summand differenced on its own: the relative error
        # inf / inf is NaN in every coordinate
        assert run_cli("grad-check", "--samples", "3", "--epsilon", "1.7e308") == 3
        offenders = [
            (1, "attention obj 1 coord (40, 32)", "3.299187e-309"),
            (1, "attention obj 0 coord (19, 2)", "2.220244e-311"),
            (1, "attention obj 0 coord (1, 11)", "7.726333e-312"),
            (1, "latent obj 1 coord (41, 58)", "1.804778e-309"),
            (1, "latent obj 1 coord (38, 62)", "2.241439e-309"),
            (1, "latent obj 1 coord (40, 34)", "1.253082e-309"),
            (2, "attention obj 1 coord (40, 32)", "6.196002e-310"),
            (2, "attention obj 0 coord (19, 2)", "2.220244e-311"),
            (2, "attention obj 0 coord (1, 11)", "7.726333e-312"),
            (2, "latent obj 1 coord (41, 58)", "1.804778e-309"),
        ]
        assert capsys.readouterr().out.splitlines() == [
            "stage 1 (raster): 6 coordinates, worst rel nan (0 judged by the 1e-09 floor), worst abs inf -> 6 FAILURES",
            "stage 2 (raster): 6 coordinates, worst rel nan (0 judged by the 1e-09 floor), worst abs inf -> 6 FAILURES",
            "worst relative error: nan",
            "worst offenders:",
            *(f"  stage {stage} {where}: analytic -inf fd {fd} rel nan abs inf" for stage, where, fd in offenders),
        ]

    def test_offenders_sort_non_finite_errors_first(self, monkeypatch, capsys):
        # each stage fails coordinates 0-3 with these relative errors, in sample order
        errors = [1e-3, math.nan, 5e-2, math.inf]

        def check(scene, cfg, latent, stages, **kwargs):
            return [
                GradCheckResult(
                    checked=4, worst_rel=math.nan, worst_abs=1.0,
                    failures=[CoordReport("attention", 0, (n, stage), 1.0, 0.0, 1.0, rel) for n, rel in enumerate(errors)],
                )
                for stage in stages
            ]

        monkeypatch.setattr("deptharb.cli.check_gradients", check)
        assert run_cli("grad-check") == 3
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "worst relative error: nan"
        order = [(line.split()[1], line.split(" rel ")[1].split()[0]) for line in out[4:]]
        assert order == [
            ("1", "nan"), ("1", "inf"), ("2", "nan"), ("2", "inf"),
            ("1", "5.000e-02"), ("2", "5.000e-02"), ("1", "1.000e-03"), ("2", "1.000e-03"),
        ]


class TestClosedStdout:
    """A reader that closes stdout early changes neither the exit code nor stderr."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv,code,err", [
        (["grad-check", "--samples", "3", "--epsilon", "1.7e308"], 3, ""),
        (["run", "--steps", "3"], 0, ""),
        (["run", "--steps", "3", "--eta", "1e9"], 2, "numerical abort: non-finite rendered field at step 1\n"),
    ], ids=["grad-check-fails", "run-passes", "run-aborts"])
    def test_keeps_the_commands_verdict(self, scene_path, unbuffered, argv, code, err):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(deptharb.__file__))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if argv[0] == "run":
            argv = [*argv, "--scene", scene_path]
        command = [sys.executable, "-m", "deptharb.cli", *argv]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()  # no reader is left: every write to stdout fails with EPIPE
            got = proc.wait(timeout=60), proc.stderr.read().decode()
        assert got == (code, err)

class TestSweep:
    def test_unknown_parameter(self, scene_path):
        assert run_cli("sweep", "--scene", scene_path, "--param", "nope", "--values", "1") == 1

    def test_empty_value_list(self, scene_path):
        assert run_cli(
            "sweep", "--scene", scene_path, "--param", "lambda_ortho", "--values", " ,",
        ) == 1

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("nope", "1", "argument --param: invalid choice: 'nope'"),
            ("tau", "1,x", "argument --values: values must be a real number, got 'x'"),
            ("tau", " , ", "argument --values: empty value list"),
        ],
    )
    def test_parser_rejects_bad_flags_before_any_work(self, monkeypatch, capsys, param, values, message):
        calls = []
        monkeypatch.setattr("deptharb.cli.read_scene", lambda *a: calls.append(a))
        assert run_cli("sweep", "--scene", "s.json", "--param", param, "--values", values) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert calls == []

    @pytest.mark.parametrize(
        "values, message",
        [
            # row 2 diverges first, at step 1, but row 1 comes first in row order;
            # the message names the failing row by its value
            ("800,1e6,1e9", "non-finite rendered field at step 2 (eta0 = 1e+06)"),
            ("1e9,1e6,800", "non-finite rendered field at step 1 (eta0 = 1e+09)"),
            # row 1's run completes; its field then overflows float32
            ("800,1e5", "non-finite float32-rounded field at step 20 (eta0 = 100000)"),
            # row 0's field overflows float32 at its last step, after row 1's run aborts at step 1
            ("1e5,1e9", "non-finite float32-rounded field at step 20 (eta0 = 100000)"),
        ],
    )
    def test_first_failing_row_in_row_order_is_reported(self, tmp_path, capsys, values, message):
        from pathlib import Path

        scene = Path(__file__).resolve().parent.parent / "scenes" / "canonical.json"
        report = tmp_path / "table.json"
        argv = [
            "sweep", "--scene", str(scene), "--param", "eta0", "--values", values,
            "--steps", "20", "--seed", "3", "--report", str(report),
        ]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical abort: {message}\n"
        assert captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    def test_chunked_sweep_reports_the_first_failing_row(self, monkeypatch, tmp_path, capsys, rows_per_chunk):
        # 1e6 (row 2) aborts at step 2 and 1e9 (row 3) at step 1; the sweep
        # reports row 2's abort however the rows are chunked, and no chunk
        # after the one holding row 2 is stepped
        from pathlib import Path

        scene = Path(__file__).resolve().parent.parent / "scenes" / "canonical.json"
        entries = 2 * 64 * 64  # K * H * W of the canonical scene
        monkeypatch.setattr("deptharb.optimizer._CHUNK_ENTRIES", rows_per_chunk * entries + entries // 2)
        chunks = _record_chunks(monkeypatch)
        report = tmp_path / "table.json"
        argv = [
            "sweep", "--scene", str(scene), "--param", "eta0", "--values", "800,400,1e6,1e9,200,100",
            "--steps", "20", "--seed", "3", "--report", str(report),
        ]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "numerical abort: non-finite rendered field at step 2 (eta0 = 1e+06)\n"
        assert captured.out == ""
        assert not report.exists()
        values = [800.0, 400.0, 1e6, 1e9, 200.0, 100.0]
        stepped = [values[lo : lo + rows_per_chunk] for lo in range(0, 3, rows_per_chunk)]
        assert chunks == stepped

    @pytest.mark.parametrize(
        "values, scored, message",
        [
            # one chunk: row 0 aborts at step 1, and row 1, whose run completes, is not scored
            ("1e9,1e5", [], "non-finite rendered field at step 1 (eta0 = 1e+09)"),
            # row 0 is scored, row 1 aborts, and row 2 is not scored
            ("800,1e9,1e5", [1], "non-finite rendered field at step 1 (eta0 = 1e+09)"),
            # row 0 is scored and fails before row 1's run abort is raised
            ("1e5,1e9", [1], "non-finite float32-rounded field at step 20 (eta0 = 100000)"),
        ],
    )
    def test_no_row_after_a_run_abort_is_scored(self, monkeypatch, capsys, values, scored, message):
        from pathlib import Path

        scene = Path(__file__).resolve().parent.parent / "scenes" / "canonical.json"
        rows = []
        real = deptharb.cli._score_rows
        monkeypatch.setattr("deptharb.cli._score_rows", lambda maps, *a: rows.append(len(maps)) or real(maps, *a))
        argv = ["sweep", "--scene", str(scene), "--param", "eta0", "--values", values, "--steps", "20", "--seed", "3"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"numerical abort: {message}\n"
        assert rows == scored

    def test_three_value_sweep_structure(self, tmp_path, scene_path):
        table_path = tmp_path / "table.json"
        code = run_cli(
            "sweep", "--scene", scene_path, "--param", "lambda_ortho",
            "--values", "0.1,0.5,1.0", "--steps", "60", "--seed", "4",
            "--report", str(table_path),
        )
        assert code == 0
        table = load_report(table_path)
        assert set(table) == {"param", "rows", "config", "seed"}
        assert table["param"] == "lambda_ortho"
        assert [row["value"] for row in table["rows"]] == [0.1, 0.5, 1.0]
        for row in table["rows"]:
            assert {"value", "losses", "mean_interference", "mean_var", "metrics"} <= set(row)

    def test_single_value_sweep_matches_run(self, tmp_path, scene_path):
        table_path = tmp_path / "table.json"
        run_cli(
            "sweep", "--scene", scene_path, "--param", "lambda_ortho", "--values", "0.3",
            "--steps", "25", "--seed", "9", "--report", str(table_path),
        )
        report_path = tmp_path / "run.json"
        run_cli(
            "run", "--scene", scene_path, "--lambda-ortho", "0.3", "--steps", "25",
            "--seed", "9", "--report", str(report_path),
        )
        row = load_report(table_path)["rows"][0]
        report = load_report(report_path)
        assert row["losses"]["total"] == report["losses"]["total"]
        assert row["metrics"]["focr_mean"] == report["metrics"]["focr_mean"]
        assert row["metrics"]["miou_all"] == report["metrics"]["miou_all"]


class TestUsage:
    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run_cli("run") == 1

    def test_negative_seed_is_usage_error(self, scene_path):
        assert run_cli("run", "--scene", scene_path, "--seed", "-3") == 1

    @pytest.mark.parametrize("value", ["2", "0", "-0.5", "nan"])
    @pytest.mark.parametrize("command", ["run", "sweep", "eval"])
    def test_rel_threshold_rejected_before_any_work(self, monkeypatch, capsys, scene_path, command, value):
        calls = []
        for entry_point in ("run_guidance", "run_rows"):  # run's, then sweep's
            monkeypatch.setattr(f"deptharb.cli.{entry_point}", lambda *a, **k: calls.append(a))
        extra = {
            "run": (),
            "sweep": ("--param", "tau", "--values", "1"),
            "eval": ("--dump", "missing.darb"),
        }[command]
        code = run_cli(command, "--scene", scene_path, "--steps", "1", *extra, f"--rel-threshold={value}")
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "extras, shown",
        [
            (["a" * 100_000], "'" + "a" * 98 + "'... (100000 characters)"),
            (["a"] * 30_000, "'" + "a " * 49 + "'... (59999 characters)"),
            (["--bogus", "5"], "'--bogus 5'"),
        ],
    )
    def test_unknown_arguments_are_shown_bounded(self, monkeypatch, capsys, scene_path, extras, shown):
        calls = []
        monkeypatch.setattr("deptharb.cli.read_scene", lambda *a: calls.append(a))
        assert run_cli("run", "--scene", scene_path, *extras) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: unrecognized arguments: {shown}\n"
        assert len(err.encode()) < 300 and calls == []

    def test_flags_do_not_leak_between_calls(self):
        # main reuses one parser per process
        assert run_cli("grad-check", "--samples", "20", "--tol", "0") == 3
        assert run_cli("grad-check", "--samples", "20") == 0

    @pytest.mark.parametrize("command", ["run", "grad-check", "sweep", "eval"])
    def test_one_flag_per_config_field_as_it_declares(self, command):
        from dataclasses import fields

        from deptharb import GuidanceConfig

        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in subs.choices[command]._actions}
        flagged = [a.dest for a in subs.choices[command]._actions if a.dest in GUIDANCE_CONFIG_KEYS]
        assert flagged == list(GUIDANCE_CONFIG_KEYS)
        for knob in fields(GuidanceConfig):
            action = actions[knob.name]
            assert action.option_strings == [CONFIG_SAMPLES[knob.name][0]]
            assert action.help == knob.metadata["help"]
            assert action.default is None


class TestUndefinedObjectiveConfig:
    """Config values that leave the objective undefined are input errors (exit 1)."""

    @pytest.fixture
    def dump_path(self, tmp_path, scene_path):
        path = tmp_path / "f.darb"
        assert run_cli("run", "--scene", scene_path, "--steps", "1", "--dump", str(path)) == 0
        return str(path)

    @pytest.mark.parametrize(
        "flags",
        [("--tau", "1e-300"), ("--alpha", "1e300"), ("--lambda0", "1e300", "--alpha", "700")],
    )
    def test_run_overflowing_pair_weight_names_the_pair(self, capsys, scene_path, flags):
        assert run_cli("run", "--scene", scene_path, "--steps", "2", *flags) == 1
        err = capsys.readouterr().err
        assert "occlusion pair (foreground 0, background 1)" in err
        assert "lambda_ij" in err

    def test_grad_check_overflowing_pair_weight(self, capsys):
        assert run_cli("grad-check", "--samples", "5", "--alpha", "1e300") == 1
        assert "occlusion pair (foreground 0, background 1)" in capsys.readouterr().err

    def test_sweep_overflowing_pair_weight(self, monkeypatch, capsys, scene_path):
        # a bad weight in any row is rejected before the first row runs, with
        # the same error whichever row holds it
        calls = _record_renders(monkeypatch)
        for param, bad in (("alpha", "1e300"), ("tau", "1e-300")):
            errors = []
            for values in (f"1,{bad}", f"{bad},1"):
                argv = ["sweep", "--scene", scene_path, "--steps", "2", "--param", param, "--values", values]
                assert run_cli(*argv) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                errors.append(captured.err)
            assert errors[0] == errors[1]
            assert "occlusion pair (foreground 0, background 1)" in errors[0]
        assert calls == []

    def test_eval_overflowing_pair_weight(self, capsys, scene_path, dump_path):
        code = run_cli("eval", "--dump", dump_path, "--scene", scene_path, "--alpha", "1e300")
        assert code == 1
        assert "occlusion pair (foreground 0, background 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "eval", "grad-check"])
    def test_overflowing_pair_coefficient_names_the_pair(self, capsys, scene_path, dump_path, command):
        # lambda_ij = 1e308 is finite; lambda_ortho * lambda_ij / (|M_fg| + eps) is not
        flags = ["--lambda0", "1e308", "--alpha", "0", "--steps", "3"]
        argv = {
            "run": ["run", "--scene", scene_path, "--lambda-ortho", "4"],
            "sweep": ["sweep", "--scene", scene_path, "--param", "lambda_ortho", "--values", "4,1"],
            "eval": ["eval", "--dump", dump_path, "--scene", scene_path, "--lambda-ortho", "4"],
            "grad-check": ["grad-check", "--samples", "5", "--lambda-ortho", "4"],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, *flags) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: occlusion pair (foreground 0, background 1): ")
        assert "lambda_ortho * lambda_ij / (|M_fg| + eps) is not finite" in err

    @pytest.mark.parametrize(
        "flag",
        ["--alpha=nan", "--lambda-ortho=nan", "--lambda-compact=nan", "--lambda0=inf",
         "--tau=inf", "--epsilon=inf", "--alpha=-inf"],
    )
    def test_run_non_finite_objective_value(self, capsys, scene_path, flag):
        assert run_cli("run", "--scene", scene_path, "--steps", "2", flag) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,name", [("--lambda-ortho=-1", "lambda_ortho"), ("--lambda-compact=-5", "lambda_compact")]
    )
    def test_run_negative_term_weight(self, monkeypatch, capsys, scene_path, flag, name):
        calls = []
        monkeypatch.setattr("deptharb.cli.run_guidance", lambda *a, **k: calls.append(a))
        assert run_cli("run", "--scene", scene_path, "--steps", "3", flag) == 1
        assert f"{name} must be >= 0, got -" in capsys.readouterr().err
        assert calls == []

    def test_sweep_negative_value_rejected_before_any_row_runs(self, monkeypatch, capsys, scene_path):
        calls = _record_renders(monkeypatch)
        code = run_cli(
            "sweep", "--scene", scene_path, "--steps", "3", "--param", "lambda_ortho", "--values", "0.5,-1",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "lambda_ortho must be >= 0, got -1.0" in captured.err
        assert captured.out == ""
        assert calls == []

    def test_negative_term_weight_in_scene_config_block(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        text = scene_file_text(grid=16)[:-1] + ', "config": {"lambda_compact": -0.5}}'
        path.write_text(text, encoding="utf-8")
        assert run_cli("run", "--scene", str(path), "--steps", "1") == 1
        assert "lambda_compact must be >= 0, got -0.5" in capsys.readouterr().err

    def test_non_finite_value_in_scene_config_block(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(scene_file_text(grid=16)[:-1] + ', "config": {"alpha": NaN}}', encoding="utf-8")
        assert run_cli("run", "--scene", str(path), "--steps", "1") == 1
        assert "alpha must be finite" in capsys.readouterr().err

    def test_grad_check_non_finite_objective_value(self, capsys):
        assert run_cli("grad-check", "--samples", "5", "--lambda-ortho", "nan") == 1
        assert "lambda_ortho must be finite" in capsys.readouterr().err

    def test_sweep_non_finite_value(self, capsys, scene_path):
        code = run_cli(
            "sweep", "--scene", scene_path, "--steps", "2", "--param", "tau", "--values", "1,nan",
        )
        assert code == 1
        assert "tau must be finite" in capsys.readouterr().err

    def test_eval_non_finite_objective_value(self, capsys, scene_path, dump_path):
        assert run_cli("eval", "--dump", dump_path, "--scene", scene_path, "--alpha", "nan") == 1
        assert "alpha must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_infinite_step_size_stays_a_numerical_abort(self, capsys, scene_path, mode):
        # eta0 is not part of the objective: an infinite step diverges at step 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli("run", "--scene", scene_path, "--steps", "3", "--mode", mode, "--eta", "inf")
        assert code == 2
        assert "non-finite latent update at step 0" in capsys.readouterr().err


class TestExtremeScaleValues:
    """A subnormal tau or an epsilon above half the float range leaks no numpy warning."""

    @pytest.mark.parametrize(
        "flag,verdicts",
        [
            # lambda_ij overflows: an input error before any render
            ("--tau=1e-320", {"run": (1, "error: occlusion pair"), "sweep": (1, "error: occlusion pair"),
                              "grad-check": (1, "error: occlusion pair")}),
            # 2 * eps overflows: the gradient is not finite at step 0, and grad-check fails it
            ("--epsilon=1.7e308", {"run": (2, "numerical abort: non-finite gradient at step 0"),
                                   "sweep": (2, "numerical abort: non-finite gradient at step 0"),
                                   "grad-check": (3, "")}),
        ],
        ids=["subnormal-tau", "huge-epsilon"],
    )
    @pytest.mark.parametrize(
        "command,mode", [("run", "raster"), ("run", "blob"), ("sweep", "raster"),
                         ("grad-check", "raster"), ("grad-check", "blob")],
    )
    def test_one_verdict_on_stderr(self, capsys, scene_path, command, mode, flag, verdicts):
        argv = {
            "run": ["run", "--scene", scene_path, "--steps", "3"],
            "sweep": ["sweep", "--scene", scene_path, "--steps", "3", "--param", "lambda_ortho",
                      "--values", "0.5,1"],
            "grad-check": ["grad-check", "--samples", "5"],
        }[command]
        code, err = verdicts[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--mode", mode, flag) == code
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) <= 1
        assert captured.err.startswith(err)
        if code == 3:
            assert "FAILURES" in captured.out


class TestScoringAbort:
    """A loss value a report would hold that is not finite exits 2 at the last step, with no report."""

    # lambda_ij = 1.7e308 and every pair coefficient are finite, but
    # lambda_ij * I overflows once the pair's interference I exceeds about 1.06
    WEIGHTS = ("--lambda0", "1.7e308", "--alpha", "0")

    def check(self, capsys, tmp_path, argv, step, row=""):
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, *self.WEIGHTS, "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical abort: non-finite scored loss at step {step}{row}\n"
        assert not report.exists()

    def test_run(self, capsys, tmp_path, scene_path):
        # stage 2 leaves ortho out of the total, so the loop itself finishes;
        # eta 0 keeps the maps at exp(U(-1, 1)), whose in-box mean is about 1.18
        argv = ["run", "--scene", scene_path, "--steps", "2", "--stage1-frac", "0", "--eta", "0"]
        self.check(capsys, tmp_path, argv, 2)

    def test_eval(self, capsys, tmp_path, scene_path):
        dump = tmp_path / "twos.darb"
        write_dump(str(dump), AttentionField(maps=np.full((2, 32, 32), 2.0)), 0)
        argv = ["eval", "--dump", str(dump), "--scene", scene_path, "--stage1-frac", "1"]
        self.check(capsys, tmp_path, argv, 200)

    def test_sweep(self, capsys, tmp_path, scene_path):
        argv = [
            "sweep", "--scene", scene_path, "--steps", "2", "--stage1-frac", "0", "--eta", "0",
            "--param", "tau", "--values", "1,2",
        ]
        self.check(capsys, tmp_path, argv, 2, " (tau = 1)")


class TestOracleRefusal:
    def test_oracle_error_exits_1_with_one_error_line(self, monkeypatch, capsys):
        from deptharb.gradcheck import OracleError

        message = "object 1's map mass 0 is below 1e3 x the finite-difference step 1e-06"

        def refuse(*args, **kwargs):
            raise OracleError(message)

        monkeypatch.setattr("deptharb.cli.check_gradients", refuse)
        assert run_cli("grad-check", "--samples", "5") == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_a_stage_2_refusal_comes_before_any_stage_line(self, monkeypatch, capsys, mode):
        # stage 2's anchor is off, stage 1's is not: both stages are judged in
        # one oracle pass, so no stage line is printed before the refusal
        from deptharb import gradcheck

        loss = gradcheck._PixelSums.loss

        def off_at_stage_2(self, delta, y, x, stage):
            return loss(self, delta, y, x, stage) * (1 + 1e-15 * (stage == 2))

        monkeypatch.setattr(gradcheck._PixelSums, "loss", off_at_stage_2)
        assert run_cli("grad-check", "--mode", mode, "--stage", "1", "--samples", "5") == 0
        capsys.readouterr()
        assert run_cli("grad-check", "--mode", mode, "--samples", "5") == 1
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if not line.startswith("note:")] == []
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: sum-form restricted loss ")


class TestGradCheckSamples:
    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("mode", ["raster", "blob"])
    def test_fewer_than_one_sample_is_usage_error(self, capsys, samples, mode):
        assert run_cli("grad-check", "--mode", mode, "--samples", samples) == 1
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "pass" not in captured.out

    def test_one_sample_is_accepted(self):
        assert run_cli("grad-check", "--samples", "1", "--stage", "1") == 0


class TestSweepParams:
    def test_sweep_params_are_the_sweep_marked_config_fields(self):
        from dataclasses import fields

        from deptharb import GuidanceConfig
        from deptharb.cli import SWEEP_PARAMS

        marked = [f.name for f in fields(GuidanceConfig) if f.metadata["sweep"]]
        assert list(SWEEP_PARAMS) == marked
        assert set(SWEEP_PARAMS) == {
            "lambda_ortho", "lambda_compact", "lambda0", "alpha", "tau", "eta0", "stage1_fraction",
        }

    def test_every_sweep_param_sweeps(self, tmp_path, scene_path):
        from deptharb.cli import SWEEP_PARAMS

        report = tmp_path / "sweep.json"
        for param in SWEEP_PARAMS:
            code = run_cli(
                "sweep", "--scene", scene_path, "--steps", "1", "--param", param,
                "--values", "0.5", "--report", str(report),
            )
            assert code == 0, param
            table = load_report(report)
            assert table["param"] == param
            assert table["rows"][0]["value"] == 0.5


# ---------------------------------------------------------------------------
# sweep scoring: each row's report is the run's
# ---------------------------------------------------------------------------

# the swept fields the property draws, with their run flag and values
SCORED_PARAMS = {
    "stage1_fraction": ("--stage1-frac", st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0])),
    "lambda_ortho": ("--lambda-ortho", st.floats(0.0, 2.0)),
    "lambda_compact": ("--lambda-compact", st.floats(0.0, 1.0)),
    "alpha": ("--alpha", st.floats(0.0, 3.0)),
    "tau": ("--tau", st.floats(0.1, 4.0)),
    # multiples of the mode's default step: rows far apart, down to a row that never moves
    "eta0": ("--eta", st.sampled_from([0.0, 0.3, 1.0, 2.0])),
}


def scene_doc(height: int, width: int, objects) -> dict:
    """A scene file's document; `objects` holds (bbox, depth) per object."""
    return {"grid": {"height": height, "width": width},
            "objects": [{"id": i, "label": "", "bbox": list(bbox), "depth": depth}
                        for i, (bbox, depth) in enumerate(objects)]}


@st.composite
def scored_sweep_cases(draw):
    height, width = draw(st.integers(4, 20)), draw(st.integers(4, 20))
    objects = []
    for _ in range(draw(st.integers(1, 4))):
        x0, x1 = sorted(draw(st.integers(0, width)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(0, height)) for _ in range(2))
        bbox = (x0 / width, y0 / height, max(x1, x0 + 1) / width, max(y1, y0 + 1) / height)
        # a few depths, so that equal depths (no pair) come up
        objects.append((bbox, draw(st.sampled_from([0.2, 0.5, 0.8]))))
    mode = draw(st.sampled_from(MODES))
    param = draw(st.sampled_from(sorted(SCORED_PARAMS)))
    values = draw(st.lists(SCORED_PARAMS[param][1], min_size=1, max_size=5))
    if param == "eta0":
        values = [_mode_class(mode).default_eta0 * v for v in values]
    flags = [
        "--mode", mode, "--steps", str(draw(st.integers(1, 8))),
        "--seed", str(draw(st.integers(0, 2**32 - 1))),
        "--rel-threshold", repr(draw(st.sampled_from([1e-6, 0.3, 0.5, 1.0]))),
    ]
    if param != "stage1_fraction":
        # the rows' runs end in stage 1 or stage 2
        flags += ["--stage1-frac", draw(st.sampled_from(["0", "0.5", "1"]))]
    rows_per_chunk = draw(st.integers(1, len(values)))
    return scene_doc(height, width, objects), param, values, flags, rows_per_chunk


def _cli(*argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    return code, err.getvalue()


def _assert_rows_are_run_reports(workdir, doc, param, values, flags, rows_per_chunk) -> None:
    """Sweep `values` of `param`, its rows stepped `rows_per_chunk` at a time, against a `run` of each row's config.

    Each scored row's report is, byte for byte, the one its `run` writes,
    and its table row is that report's summary.  The sweep fails as the
    first failing row's run does, naming the row: it scores every row of
    each chunk before that row's, and that chunk's rows before its first
    run abort, and then raises that row's abort.
    """
    scene = os.path.join(workdir, "scene.json")
    with open(scene, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    runs = []
    for n, value in enumerate(values):
        path = os.path.join(workdir, f"run{n}.json")
        code, err = _cli("run", "--scene", scene, *flags, f"{SCORED_PARAMS[param][0]}={value!r}", "--report", path)
        runs.append((code, err, load_report(path) if code == 0 else None))
    scored = []  # every row the sweep scores, in row order
    reports = []  # the reports scoring returns
    real = deptharb.cli._score_chunk

    def recording(scene, cfgs, *args):
        scored.extend(cfgs)
        results = real(scene, cfgs, *args)
        reports.extend(results)
        return results

    entries = len(doc["objects"]) * doc["grid"]["height"] * doc["grid"]["width"]
    table = os.path.join(workdir, "table.json")
    argv = ["sweep", "--scene", scene, *flags, "--param", param, "--values", ",".join(map(repr, values)),
            "--report", table]
    with mock.patch.object(optimizer, "_CHUNK_ENTRIES", rows_per_chunk * entries), \
            mock.patch.object(deptharb.cli, "_score_chunk", recording):
        code, err = _cli(*argv)
    failing = next((n for n, run in enumerate(runs) if run[0]), None)
    if failing is None:
        assert (code, err) == (0, "")
        assert len(scored) == len(reports) == len(values)
    else:
        assert code == runs[failing][0] == 2
        assert err == runs[failing][1].replace("\n", f" ({param} = {values[failing]:g})\n")
        # a run abort, not a failure of the scoring of a run that completed
        run_aborts = [bool(run[0]) and not re.search("float32-rounded field|scored loss", run[1]) for run in runs]
        lo = failing // rows_per_chunk * rows_per_chunk
        hi = min(len(values), lo + rows_per_chunk)
        assert len(scored) == next((n for n in range(lo, hi) if run_aborts[n]), hi)
        assert len(reports) == (failing if run_aborts[failing] else lo)
    assert [getattr(cfg, param) for cfg in scored] == values[: len(scored)]
    for report, (run_code, run_err, run) in zip(reports, runs):
        assert run_code == 0
        del run["config"], run["seed"]
        assert dumps_report(report.to_json_dict()) == dumps_report(run)
    if failing is None:
        for value, row, (_, _, run) in zip(values, load_report(table)["rows"], runs, strict=True):
            summary = {
                "value": value,
                "losses": {name: run["losses"][name] for name in ("align", "ortho", "compact", "total")},
                "mean_interference": float(np.mean([p["interference"] for p in run["per_pair"]]))
                if run["per_pair"] else None,
                "mean_var": float(np.mean([o["var"] for o in run["per_object"]])),
                "metrics": {"miou_all": run["metrics"]["miou_all"], "focr_mean": run["metrics"]["focr_mean"]},
            }
            assert json.dumps(row) == json.dumps(summary)


class TestSweepScoring:
    """A sweep scores its rows a chunk at a time, and each row's report is its config's `run` report."""

    @settings(max_examples=60)
    @given(scored_sweep_cases())
    def test_every_scored_row_is_its_run_report(self, case):
        with tempfile.TemporaryDirectory() as workdir:
            _assert_rows_are_run_reports(workdir, *case)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_scene_with_no_pairs_scores_no_interference_and_no_focr(self, tmp_path, mode):
        doc = scene_doc(16, 16, [((0.1, 0.1, 0.6, 0.6), 0.5), ((0.4, 0.4, 0.9, 0.9), 0.5)])
        flags = ["--mode", mode, "--steps", "3", "--stage1-frac", "1"]
        _assert_rows_are_run_reports(str(tmp_path), doc, "lambda_ortho", [0.5, 1.0], flags, 1)
        rows = load_report(tmp_path / "table.json")["rows"]
        assert [(row["mean_interference"], row["metrics"]["focr_mean"]) for row in rows] == [(None, None)] * 2

    def test_a_pair_whose_overlap_holds_no_pixel_scores_none(self, tmp_path):
        # boxes 0 and 1 overlap in x in [0.45, 0.5), where no pixel centre of an
        # 8-pixel row lies; boxes 0 and 2 share pixels
        doc = scene_doc(8, 8, [((0.0, 0.0, 0.5, 0.5), 0.2), ((0.45, 0.2, 1.0, 1.0), 0.8),
                               ((0.2, 0.2, 0.9, 0.4), 0.6)])
        _assert_rows_are_run_reports(str(tmp_path), doc, "alpha", [0.0, 1.0, 2.0], ["--steps", "3"], 2)
        run = load_report(tmp_path / "run0.json")
        assert [p["focr"] is None for p in run["per_pair"]] == [True, False, False]

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    @pytest.mark.parametrize(
        "values, message",
        [
            # 1e5's run ends at step 20 and its field then overflows float32;
            # 1e6's run aborts at step 2: the row that comes first is reported
            ("800,1e5,1e6", "non-finite float32-rounded field at step 20 (eta0 = 100000)"),
            ("800,1e6,1e5", "non-finite rendered field at step 2 (eta0 = 1e+06)"),
        ],
    )
    def test_a_rounding_abort_is_ordered_with_run_aborts_by_row(
        self, monkeypatch, capsys, values, message, rows_per_chunk
    ):
        from pathlib import Path

        scene = Path(__file__).resolve().parent.parent / "scenes" / "canonical.json"
        monkeypatch.setattr("deptharb.optimizer._CHUNK_ENTRIES", rows_per_chunk * 2 * 64 * 64)
        argv = ["sweep", "--scene", str(scene), "--param", "eta0", "--values", values, "--steps", "20", "--seed", "3"]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical abort: {message}\n"
        assert captured.out == ""


# each scene a parser let through until scoring or printing failed: an id an
# int64 cannot hold, and a label that does not encode as UTF-8
UNSCORABLE = {
    "id": (2**63, "expected an integer in [0, 2^63), got 9223372036854775808"),
    "label": ("\ud800", "expected text that encodes as UTF-8, got '\\ud800'"),
}


@st.composite
def scene_texts_with_extreme_ids_and_labels(draw):
    """A two-object scene's text, its ids on both sides of 2^63 and its labels from every code point."""
    ids = st.integers(0, 2**64) | st.integers(2**63 - 2, 2**63 + 1)
    labels = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=4)
    doc = scene_doc(8, 8, [((0.1, 0.1, 0.6, 0.6), 0.2), ((0.4, 0.4, 0.9, 0.9), 0.8)])
    for obj in doc["objects"]:
        obj["id"], obj["label"] = draw(ids), draw(labels)
    return json.dumps(doc)


class TestUnscorableSceneInputs:
    @pytest.mark.parametrize("field", UNSCORABLE)
    def test_rejected_before_any_file_is_written(self, tmp_path, field):
        value, message = UNSCORABLE[field]
        doc = json.loads(scene_file_text(grid=16))
        doc["objects"][1][field] = value
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        report, dump = tmp_path / "r.json", tmp_path / "d.darb"
        code, err = _cli("run", "--scene", str(scene), "--steps", "2", "--report", str(report), "--dump", str(dump))
        assert (code, err) == (1, f"error: objects[1].{field}: {message}\n")
        assert sorted(os.listdir(tmp_path)) == ["scene.json"]

    @settings(max_examples=100)
    @given(scene_texts_with_extreme_ids_and_labels())
    @example(json.dumps(scene_doc(8, 8, [((0.1, 0.1, 0.6, 0.6), 0.2)])).replace('"id": 0', '"id": %d' % 2**63))
    @example(json.dumps(scene_doc(8, 8, [((0.1, 0.1, 0.6, 0.6), 0.2)])).replace('"label": ""', '"label": "\\ud800"'))
    def test_an_accepted_scene_scores_and_prints(self, text):
        try:
            scene = parse_scene_with_config(text)[0]
        except SceneError:
            return
        maps = np.full((1, len(scene.objects), scene.grid_height, scene.grid_width), 0.5)
        (report,) = _score_rows(maps, scene, [deptharb.GuidanceConfig()], [2], DEFAULT_REL_THRESHOLD)
        doc = report.to_json_dict()
        dumps_report(doc)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _print_summary(doc)
        out.getvalue().encode("utf-8")

    def test_a_long_label_is_refused_with_a_short_message(self, tmp_path):
        doc = json.loads(scene_file_text(grid=16))
        doc["objects"][0]["label"] = "\ud800" + "a" * 100_000
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _cli("run", "--scene", str(scene), "--steps", "2")
        assert code == 1 and len(err.encode()) < 300, err
        assert err.startswith("error: objects[0].label: expected text that encodes as UTF-8, got '\\ud800aaa")
        assert err.endswith("... (100001 characters)\n")


# each command's required flags, with values its parser takes
REQUIRED_FLAGS = {
    "run": ["--scene", "s.json"],
    "grad-check": [],
    "sweep": ["--scene", "s.json", "--param", "tau", "--values", "1"],
    "eval": ["--dump", "d.darb", "--scene", "s.json"],
}
# each numeric flag: its dest, the type int() or float() reads it as, and the DOMAINS keys its value must meet
NUMERIC_FLAGS = {
    "--seed": ("seed", int, ("an unsigned 64-bit integer",)),
    "--samples": ("samples", int, (">= 1",)),
    "--tol": ("tol", float, ("finite and >= 0",)),
    "--rel-threshold": ("rel_threshold", float, ("in (0, 1]",)),
    **{CONFIG_SAMPLES[knob.name][0]: (knob.name, knob.metadata["rules"][0], knob.metadata["rules"][1:])
       for knob in dataclasses.fields(GuidanceConfig)},
}
# any text, among it integers of 5000 digits and strings of 100 000 characters, lone surrogates too
FLAG_TEXTS = st.one_of(
    st.text(st.characters() | st.characters(categories=["Cs"])),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", " 7 ", "1_000", "0x10", "1e309", "-0", "+inf", "2**64", str(2**64), str(2**64 - 1)]),
    st.builds(lambda sign, lead: sign + lead + "0" * 4999, st.sampled_from(["", "-"]), st.sampled_from("19")),
    st.builds(lambda char: char * 100_000, st.characters() | st.characters(categories=["Cs"])),
)


def _subparser(command: str) -> argparse.ArgumentParser:
    subs = next(a for a in cli._shared_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


class TestBoundedRefusals:
    """Every flag value gets its value or a short usage error that shows the text it refuses."""

    PRIVATE = {name for module in (cli, deptharb.scene) for name, value in vars(module).items()
               if name.startswith("_") and callable(value)}

    @pytest.mark.parametrize("command", list(REQUIRED_FLAGS))
    def test_every_typed_flag_is_a_numeric_flag(self, command):
        typed = {a.option_strings[0] for a in _subparser(command)._actions if a.type is not None}
        assert typed - {"--values"} <= set(NUMERIC_FLAGS)

    @settings(max_examples=60)
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in REQUIRED_FLAGS for flag in NUMERIC_FLAGS
        if flag in _subparser(command)._option_string_actions
    ])
    @given(text=FLAG_TEXTS)
    @example(text="a" * 100_000)
    @example(text="1" + "0" * 4999)
    def test_a_numeric_flag_takes_what_int_or_float_reads_in_its_domain(self, command, flag, text):
        dest, kind, domains = NUMERIC_FLAGS[flag]
        try:
            expected = kind(text)
        except ValueError:  # not a number, or an integer of over 4300 digits
            expected = None
        admitted = expected is not None and all(DOMAINS[domain](expected) for domain in domains)
        try:
            args = cli._shared_parser().parse_args([command, *REQUIRED_FLAGS[command], f"{flag}={text}"])
        except UsageError as exc:
            message = str(exc)
            assert not admitted, message
            assert message.startswith(f"argument {flag}: {dest} must be "), message
            assert len(message.encode("utf-8")) < 200, message
            assert not [name for name in self.PRIVATE if name in message and name not in text], message
        else:
            value = getattr(args, dest)
            assert admitted and type(value) is kind and value == expected

    @pytest.fixture
    def dump_path(self, tmp_path, scene_path):
        path = str(tmp_path / "f.darb")
        assert run_cli("run", "--scene", scene_path, "--steps", "1", "--dump", path) == 0
        return path

    @pytest.mark.parametrize("command", list(REQUIRED_FLAGS))
    def test_a_long_value_for_any_flag_exits_1_with_a_short_message(self, monkeypatch, tmp_path, scene_path,
                                                                   dump_path, command):
        monkeypatch.chdir(tmp_path)
        given_flags = {
            "run": ["--scene", scene_path, "--steps", "1"],
            "grad-check": ["--samples", "1", "--stage", "1"],
            "sweep": ["--scene", scene_path, "--steps", "1", "--param", "tau", "--values", "1"],
            "eval": ["--dump", dump_path, "--scene", scene_path],
        }[command]
        actions = [a for a in _subparser(command)._actions if a.option_strings and a.nargs is None]
        assert len(actions) >= 15
        for action in actions:
            # "\udcff": how Python decodes a byte of an argument that is not UTF-8
            for value in ("a" * 100_000, "\udcff" + "7" * 100_000):
                code, err = _cli(command, *given_flags, action.option_strings[0], value)
                assert code == 1 and len(err.encode()) < 300, (action.option_strings, err[:400])
