from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import deptharb
from deptharb import AttentionField, check_gradients, init_latent, optimizer, write_dump
from deptharb.cli import build_parser, dumps_report, main, resolve_config
from deptharb.gradcheck import CoordReport, GradCheckResult
from deptharb.scene import GUIDANCE_CONFIG_KEYS, parse_scene_with_config
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
        built, checked = [], []

        def init(scene, mode_, seed):
            built.append(init_latent(scene, mode_, seed))
            return built[-1]

        def check(scene, cfg, latent, stage, **kwargs):
            checked.append((latent, stage))
            return check_gradients(scene, cfg, latent, stage, **kwargs)

        monkeypatch.setattr("deptharb.cli.init_latent", init)
        monkeypatch.setattr("deptharb.cli.check_gradients", check)
        assert run_cli("grad-check", "--mode", mode, "--seed", "3", "--samples", "20") == 0
        assert len(built) == 1 and built[0].mode == mode
        assert [(latent is built[0], stage) for latent, stage in checked] == [(True, 1), (True, 2)]


    def test_non_finite_errors_show_and_lead_the_offenders(self, capsys):
        # -inf against FD 0: the relative error inf / inf is NaN in every coordinate
        assert run_cli("grad-check", "--samples", "3", "--epsilon", "1.7e308") == 3
        offenders = [
            "attention obj 1 coord (40, 32)", "attention obj 0 coord (19, 2)", "attention obj 0 coord (1, 11)",
            "latent obj 1 coord (41, 58)", "latent obj 1 coord (38, 62)", "latent obj 1 coord (40, 34)",
        ]
        assert capsys.readouterr().out.splitlines() == [
            "stage 1 (raster): 6 coordinates, worst rel nan, worst abs inf -> 6 FAILURES",
            "stage 2 (raster): 6 coordinates, worst rel nan, worst abs inf -> 6 FAILURES",
            "worst relative error: nan",
            "worst offenders:",
            *(
                f"  stage {stage} {where}: analytic -inf fd 0.000000e+00 rel nan abs inf"
                for stage, where in [(1, o) for o in offenders] + [(2, o) for o in offenders[:4]]
            ),
        ]

    def test_offenders_sort_non_finite_errors_first(self, monkeypatch, capsys):
        # each stage fails coordinates 0-3 with these relative errors, in sample order
        errors = [1e-3, math.nan, 5e-2, math.inf]

        def check(scene, cfg, latent, stage, **kwargs):
            failures = [CoordReport("attention", 0, (n, stage), 1.0, 0.0, 1.0, rel) for n, rel in enumerate(errors)]
            return GradCheckResult(checked=4, failures=failures, worst_rel=math.nan, worst_abs=1.0)

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
            ("tau", "1,x", "argument --values: not a number: 'x'"),
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
            # row 2 diverges first, at step 1, but row 1 comes first in row order
            ("800,1e6,1e9", "non-finite rendered field at step 2"),
            ("1e9,1e6,800", "non-finite rendered field at step 1"),
            # row 1's run completes; its field then overflows float32
            ("800,1e5", "non-finite float32-rounded field at step 20"),
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
        assert captured.err == "numerical abort: non-finite rendered field at step 2\n"
        assert captured.out == ""
        assert not report.exists()
        values = [800.0, 400.0, 1e6, 1e9, 200.0, 100.0]
        stepped = [values[lo : lo + rows_per_chunk] for lo in range(0, 3, rows_per_chunk)]
        assert chunks == stepped

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

    def test_flags_do_not_leak_between_calls(self):
        # main reuses one parser per process
        assert run_cli("grad-check", "--samples", "20", "--tol", "0") == 3
        assert run_cli("grad-check", "--samples", "20") == 0


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

    def check(self, capsys, tmp_path, argv, step):
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, *self.WEIGHTS, "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical abort: non-finite scored loss at step {step}\n"
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
        self.check(capsys, tmp_path, argv, 2)


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
