"""End-to-end checks of the command-line surface: artifacts, schemas, exit
codes. Everything runs on a micro model so the whole file stays fast."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import akmnet
from akmnet.cli import main
from akmnet.data import save_packed

MICRO_CONFIG = {
    "model": {
        "backbone": {"input_side": 8, "stage_widths": [2, 3],
                     "blocks_per_stage": 1, "output_grid": [2, 2]},
        "gru_hidden": 2,
        "gru_layers": 1,
    },
    "train": {"epochs": 2, "batch_size": 4},
}

SYNTH_ARGS = ("--clips", "6", "--classes", "2", "--side", "8",
              "--t-min", "4", "--t-max", "6", "--signal-len", "2")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--out", data, "--seed", "5", *SYNTH_ARGS) == 0
    config = root / "micro.json"
    config.write_text(json.dumps(MICRO_CONFIG))
    run_dir = root / "run"
    assert run("train", "--config", config, "--manifest",
               data / "manifest.csv", "--out", run_dir, "--seed", "3") == 0
    return SimpleNamespace(root=root, data=data, config=config,
                           manifest=data / "manifest.csv", run=run_dir,
                           weights=run_dir / "model.akmw")


class TestParsing:

    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 2

    def test_unknown_variant_is_usage_error(self, workdir, tmp_path, capsys):
        code = run("train", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--out", tmp_path, "--variant", "s999")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        assert run("train", "--manifest", tmp_path / "nope.csv",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_config_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run("train", "--config", bad, "--manifest", bad,
                   "--out", tmp_path / "out") == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": 1}))
        assert run("train", "--config", bad, "--manifest", bad,
                   "--out", tmp_path / "out") == 2


class TestSynth:

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--out", a, "--seed", "7", *SYNTH_ARGS) == 0
        assert run("synth", "--out", b, "--seed", "7", *SYNTH_ARGS) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_pgm_format(self, tmp_path):
        out = tmp_path / "pgm"
        assert run("synth", "--out", out, "--seed", "1", "--frame-format",
                   "pgm", *SYNTH_ARGS) == 0
        clip_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert clip_dirs and any(clip_dirs[0].glob("frame_*.pgm"))

    def test_rejects_bad_spec(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--t-min", "3",
                   "--signal-len", "5") == 2


class TestTrain:

    def test_artifacts_present(self, workdir):
        for name in ("model.akmw", "history.jsonl", "metrics.json",
                     "resolved_config.json"):
            assert (workdir.run / name).is_file(), name

    def test_history_schema(self, workdir):
        lines = (workdir.run / "history.jsonl").read_text().splitlines()
        assert len(lines) == MICRO_CONFIG["train"]["epochs"]
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"epoch", "lr", "mean_objective",
                                "mean_classification", "mean_sparsity",
                                "mean_margin", "mean_selected_fraction"}

    def test_metrics_schema(self, workdir):
        metrics = json.loads((workdir.run / "metrics.json").read_text())
        assert set(metrics) == {"n_clips", "n_epochs", "final", "variant",
                                "preset", "precision", "seed"}
        assert metrics["n_clips"] == 6 and metrics["n_epochs"] == 2

    def test_snapshot_schema_and_flag_precedence(self, workdir):
        snap = json.loads((workdir.run / "resolved_config.json").read_text())
        assert set(snap) == {"command", "version", "config", "label_map",
                            "manifest"}
        assert snap["command"] == "train"
        assert snap["config"]["seed"] == 3          # flag beat the default
        assert snap["config"]["variant"] == "s123"
        assert snap["label_map"] == {"class0": 0, "class1": 1}

    def test_config_file_seed_used_without_flag(self, workdir, tmp_path):
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps({**MICRO_CONFIG, "seed": 11,
                                      "train": {"epochs": 1}}))
        out = tmp_path / "out"
        assert run("train", "--config", config, "--manifest",
                   workdir.manifest, "--out", out) == 0
        snap = json.loads((out / "resolved_config.json").read_text())
        assert snap["config"]["seed"] == 11

    def test_divergence_exit_code(self, workdir, tmp_path, capsys):
        config = tmp_path / "blowup.json"
        config.write_text(json.dumps({
            "model": MICRO_CONFIG["model"],
            "train": {"epochs": 6, "init_lr": 1e9}}))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run("train", "--config", config, "--manifest",
                       workdir.manifest, "--out", tmp_path / "out")
        assert code == 4
        assert "error: divergence:" in capsys.readouterr().err


class TestEval:

    def test_artifacts_and_schema(self, workdir, tmp_path):
        out = tmp_path / "eval"
        assert run("eval", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--weights", workdir.weights,
                   "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"accuracy", "n_clips", "n_rounds", "variant",
                                "seed"}
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["n_rounds"] == 1
        with open(out / "confusion.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "class0", "class1"]
        assert len(rows) == 3
        total = sum(int(x) for row in rows[1:] for x in row[1:])
        assert total == metrics["n_clips"]

    def test_missing_weights_flag(self, workdir, tmp_path):
        assert run("eval", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--out", tmp_path / "out") == 2

    def test_weight_shape_mismatch_is_artifact_error(self, workdir, tmp_path,
                                                     capsys):
        other = dict(MICRO_CONFIG)
        other["model"] = {**MICRO_CONFIG["model"],
                         "backbone": {**MICRO_CONFIG["model"]["backbone"],
                                      "stage_widths": [2, 4]}}
        config = tmp_path / "other.json"
        config.write_text(json.dumps(other))
        code = run("eval", "--config", config, "--manifest", workdir.manifest,
                   "--weights", workdir.weights, "--out", tmp_path / "out")
        assert code == 3
        assert "error: weights:" in capsys.readouterr().err


class TestMine:

    def mine(self, workdir, out, extra=()):
        assert run("mine", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--weights", workdir.weights,
                   "--out", out, *extra) == 0
        with open(out / "mine.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return rows

    def test_header_and_row_invariants(self, workdir, tmp_path):
        rows = self.mine(workdir, tmp_path / "mine")
        assert rows[0] == ["clip_id", "T", "N", "indices", "beta", "fallback"]
        assert len(rows) == 7
        for row in rows[1:]:
            t, n = int(row[1]), int(row[2])
            indices = [int(x) for x in row[3].split()]
            beta = [float(x) for x in row[4].split()]
            assert 1 <= n <= t
            assert indices == sorted(indices) and len(set(indices)) == n
            assert all(1 <= i <= t for i in indices)
            assert len(beta) == t
            assert row[5] in ("0", "1")

    def test_deterministic(self, workdir, tmp_path):
        a = self.mine(workdir, tmp_path / "a")
        b = self.mine(workdir, tmp_path / "b")
        assert a == b

    def test_constant_clip_falls_back(self, workdir, tmp_path):
        data = tmp_path / "flat"
        data.mkdir()
        save_packed(data / "flat.akmt",
                    np.full((4, 8, 8), 0.5, dtype=np.float32))
        with open(data / "manifest.csv", "w", newline="") as fh:
            fh.write("clip_id,subject_id,label,frames_path,onset,apex,offset,"
                     "framerate\n")
            fh.write("flat,subjA,class0,flat.akmt,,,,\n")
        config = tmp_path / "labels.json"
        config.write_text(json.dumps({**MICRO_CONFIG,
                                      "labels": ["class0", "class1"]}))
        out = tmp_path / "mine"
        assert run("mine", "--config", config, "--manifest",
                   data / "manifest.csv", "--weights", workdir.weights,
                   "--out", out) == 0
        with open(out / "mine.csv", newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert row[5] == "1"          # no score above the mean: fallback
        assert row[2] == "1" and row[3] == "1"


class TestLoso:

    def test_sequential_matches_parallel(self, workdir, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert run("loso", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--out", seq, "--seed", "3") == 0
        assert run("loso", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--out", par, "--seed", "3",
                   "--folds-parallel", "3") == 0
        assert ((seq / "loso_report.json").read_bytes()
                == (par / "loso_report.json").read_bytes())
        report = json.loads((seq / "loso_report.json").read_text())
        assert set(report) == {"folds", "pooled_accuracy", "macro_accuracy",
                               "confusion"}
        assert len(report["folds"]) == 3
        tested = [r["clip_id"] for f in report["folds"] for r in f["records"]]
        assert len(tested) == 6 and len(set(tested)) == 6


class TestApex:

    def test_artifacts_and_schema(self, workdir, tmp_path):
        out = tmp_path / "apex"
        assert run("apex", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--weights", workdir.weights,
                   "--out", out) == 0
        overlap = json.loads((out / "apex_overlap.json").read_text())
        assert set(overlap) == {"ratio", "ratio_high", "n_evaluated",
                                "n_excluded"}
        assert overlap["n_evaluated"] == 6
        with open(out / "apex_distance.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["clip_id", "distance"]
        assert len(rows) == 7
        for row in rows[1:]:
            assert float(row[1]) >= 0.0


class TestAblate:

    def test_report_covers_requested_variants(self, workdir, tmp_path):
        out = tmp_path / "abl"
        wanted = "s123,va-all,va-last10"
        assert run("ablate", "--config", workdir.config, "--manifest",
                   workdir.manifest, "--out", out, "--seed", "3",
                   "--variants", wanted) == 0
        report = json.loads((out / "ablation_report.json").read_text())
        assert set(report) == {"variants", "n_clips"}
        assert set(report["variants"]) == set(wanted.split(","))
        for name, entry in report["variants"].items():
            assert set(entry) == {"seed", "accuracy", "n_rounds", "final",
                                  "records"}
            assert 0.0 <= entry["accuracy"] <= 1.0
            assert len(entry["records"]) == 6


class TestGradcheckCommand:

    def test_passes_by_default(self, capsys):
        assert run("gradcheck", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        for group in ("backbone", "akm", "gru", "head"):
            assert f"model group {group}:" in out

    def test_injected_fault_is_caught_and_named(self, capsys):
        assert run("gradcheck", "--seed", "1", "--inject-fault",
                   "conv2d") == 1
        out = capsys.readouterr().out
        assert "gradcheck FAILED" in out and "conv2d" in out
        # one case per conv2d lowering, narrow and wide planes
        failed = out.splitlines()[-1].removeprefix("gradcheck FAILED: ").split(", ")
        assert {"primitive conv2d", "primitive conv2d_wide"} <= set(failed)

    def test_injected_gru_fault_names_primitive_and_group(self, capsys):
        assert run("gradcheck", "--seed", "1", "--inject-fault",
                   "gru_encode") == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("gradcheck FAILED")]
        assert len(failed) == 1
        assert "primitive gru_encode" in failed[0]
        assert "model group gru" in failed[0]

    def test_unknown_fault_target(self):
        assert run("gradcheck", "--inject-fault", "made_up") == 2

    def test_reader_closing_early_leaves_no_traceback(self):
        # as with ``akmnet gradcheck | head``: the pipe closes before the
        # first line is written
        src = str(Path(akmnet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen([sys.executable, "-m", "akmnet", "gradcheck", "--seed", "1"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""
