import csv
import dataclasses
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from advmtl import cli
from advmtl import data as D
from advmtl import models as M
from advmtl import nn
from advmtl import train as T
from advmtl.errors import ConfigError

from test_data import NEGATIVE_SPECS


SYNTH_SPEC = """
tasks = 2
shared_tokens = 24
private_tokens = 6
filler_tokens = 12
sentences_per_task = 80
unlabeled_per_task = 10
min_len = 4
max_len = 6
seed = 11
"""


def _child_env(**extra):
    """This process's environment with the package on PYTHONPATH, plus ``extra``."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])), **extra)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "synth.cfg"
    spec.write_text(SYNTH_SPEC)
    out = root / "corpus"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(["train", "--scheme", "asp", "--data", str(corpus_dir),
                   "--out", str(out), "--seed", "7", "--max-epochs", "2",
                   "--patience", "2", "--hidden-size", "6", "--embed-size", "6"])
    assert rc == 0
    return out


class TestSynth:
    def test_creates_task_directories(self, corpus_dir):
        tasks = sorted(d for d in os.listdir(corpus_dir)
                       if os.path.isdir(corpus_dir / d))
        assert tasks == ["task00", "task01"]
        for t in tasks:
            for fname in ("train.tsv", "dev.tsv", "test.tsv", "unlabeled.tsv"):
                assert (corpus_dir / t / fname).is_file()
        assert (corpus_dir / "provenance.tsv").is_file()
        assert (corpus_dir / "manifest.json").is_file()

    def test_same_spec_identical_files(self, corpus_dir, tmp_path):
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        out = tmp_path / "again"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        for t in ("task00", "task01"):
            for fname in ("train.tsv", "dev.tsv", "test.tsv"):
                assert (out / t / fname).read_bytes() == \
                    (corpus_dir / t / fname).read_bytes()

    def test_invalid_spec_exits_3(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("tasks = 1\n")
        assert cli.main(["synth", "--spec", str(spec), "--out",
                         str(tmp_path / "x")]) == 3

    def test_one_polarity_spec_exits_3(self, tmp_path, capsys):
        # one positive shared token, and sentences too short to reach the margin:
        # padding once wanted a negative token that does not exist
        spec = tmp_path / "bad.cfg"
        spec.write_text("tasks = 2\nshared_tokens = 1\nprivate_tokens = 0\nfiller_tokens = 1\n"
                        "min_len = 1\nmax_len = 1\nmin_margin = 2\ncontaminant_rate = 0.0\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 3
        assert "both polarities" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(D.SynthSpec)
                                     if isinstance(f.default, float)])
    def test_non_finite_float_exits_3(self, tmp_path, capsys, key, value):
        spec = tmp_path / "bad.cfg"
        spec.write_text(f"tasks = 2\n{key} = {value}\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value", [("embedding_scale", "nan"),
                                           ("embedding_scale", "inf"),
                                           ("embedding_scale", "-1"),
                                           ("embedding_dim", "-3")])
    def test_bad_embedding_key_exits_3(self, tmp_path, capsys, key, value):
        spec = tmp_path / "bad.cfg"
        spec.write_text(f"tasks = 2\nembedding_dim = 3\n{key} = {value}\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_zero_embedding_dim_writes_no_vectors(self, tmp_path):
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC + "embedding_dim = 0\nembedding_scale = 0\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 0
        assert not (tmp_path / "x" / "vectors.txt").exists()

    @pytest.mark.parametrize("key,fields", NEGATIVE_SPECS, ids=[k for k, _ in NEGATIVE_SPECS])
    def test_negative_count_or_fraction_exits_3(self, tmp_path, capsys, key, fields):
        spec = tmp_path / "bad.cfg"
        spec.write_text("tasks = 2\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_key_exits_3(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("tasks = 2\nbananas = 4\n")
        assert cli.main(["synth", "--spec", str(spec), "--out",
                         str(tmp_path / "x")]) == 3

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("tasks = 2\nseed = -1\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_corpus_hash_ignores_its_manifest(self, tmp_path):
        # synth's manifest.json records the run (its duration), not the corpus
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        hashes = []
        for name in ("c1", "c2"):
            corpus, out = tmp_path / name, tmp_path / f"run_{name}"
            assert cli.main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
            assert cli.main(["train", "--scheme", "fs", "--data", str(corpus), "--out", str(out),
                             "--max-epochs", "1", "--patience", "1", "--hidden-size", "2",
                             "--embed-size", "2"]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())
                          ["input_hashes"][str(corpus)])
        assert hashes[0] == hashes[1]

    def test_every_synthspec_field_accepted(self, tmp_path):
        values = dict(tasks=2, shared_tokens=24, private_tokens=6,
                      conflict_fraction=0.5, filler_tokens=12,
                      sentences_per_task=40, unlabeled_per_task=5, min_len=4,
                      max_len=6, min_margin=1, noise_rate=0.0, shared_rate=0.5,
                      own_rate=0.25, contaminant_rate=0.1, domain_bias=3.0, seed=5)
        assert set(values) == {f.name for f in dataclasses.fields(D.SynthSpec)}
        spec = tmp_path / "full.cfg"
        spec.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        want = tmp_path / "direct"
        D.write_corpus(want, D.generate_synthetic(D.SynthSpec(**values))[0])
        for fname in ("train.tsv", "dev.tsv", "test.tsv", "unlabeled.tsv"):
            assert (out / "task01" / fname).read_bytes() == \
                (want / "task01" / fname).read_bytes()


class TestTrain:
    def test_artifacts_written(self, trained_dir):
        for fname in ("checkpoint.bin", "history.csv", "manifest.json",
                      "config.resolved.cfg"):
            assert (trained_dir / fname).is_file()
        header = (trained_dir / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,task,train_loss,dev_error,disc_acc,l_adv,l_diff"

    def test_config_keys_declare_every_train_config_field(self):
        declared = [field for _, _, field, _ in cli.CONFIG_KEYS.values() if field]
        assert len(declared) == len(set(declared))
        assert set(declared) | {"alpha"} == {f.name for f in dataclasses.fields(T.TrainConfig)}

    def test_lambda_meaningless_for_fs_exits_3(self, corpus_dir, tmp_path, capsys):
        rc = cli.main(["train", "--scheme", "fs", "--lambda", "0.05",
                       "--data", str(corpus_dir), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "lambda" in capsys.readouterr().err

    def test_gamma_meaningless_for_sp_exits_3(self, corpus_dir, tmp_path):
        rc = cli.main(["train", "--scheme", "sp", "--gamma", "0.01",
                       "--data", str(corpus_dir), "--out", str(tmp_path / "x")])
        assert rc == 3

    @pytest.mark.parametrize("alpha", ["1,x", "1,-0.5", "1,nan"])
    def test_bad_alpha_exits_3(self, corpus_dir, tmp_path, capsys, alpha):
        rc = cli.main(["train", "--scheme", "sp", "--alpha", alpha,
                       "--data", str(corpus_dir), "--out", str(tmp_path / "x")])
        assert rc == 3
        captured = capsys.readouterr()
        assert "alpha" in captured.err
        # only the number of weights waits for the corpus
        assert "task " not in captured.out

    def test_alpha_count_checked_against_the_corpus(self, corpus_dir, tmp_path, capsys):
        rc = cli.main(["train", "--scheme", "sp", "--alpha", "1,1,1",
                       "--data", str(corpus_dir), "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == "error: alpha: expected 2 weights, got 3\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags,key", [
        (["--scheme", "bogus"], "scheme"),
        (["--scheme", "asp", "--diff-mode", "bogus"], "diff_mode"),
        (["--scheme", "sp", "--grid", "learning_rate=0.1,x"], "grid"),
        (["--scheme", "asp", "--unlabeled", "--unlabeled-ratio", "-1"], "unlabeled_ratio"),
        (["--scheme", "asp", "--unlabeled", "--unlabeled-ratio", "nan"], "unlabeled_ratio"),
        (["--scheme", "fs", "--max-len", "0"], "max_len"),
        (["--scheme", "asp", "--clip-norm", "nan"], "clip_norm"),
        (["--scheme", "asp", "--learning-rate", "nan"], "learning_rate"),
        (["--scheme", "asp", "--learning-rate", "inf"], "learning_rate"),
        (["--scheme", "asp", "--gamma", "nan"], "gamma"),
        (["--scheme", "asp", "--lambda", "nan"], "lambda"),
        (["--scheme", "asp", "--grid", "learning_rate=nan,0.1"], "learning_rate"),
        (["--scheme", "asp", "--grid", "gamma=nan,0.01"], "gamma"),
        (["--scheme", "fs", "--grid", "lambda=0.1,0.2"], "lambda"),
        (["--scheme", "sp", "--grid", "gamma=0.5"], "gamma"),
        (["--scheme", "fs", "--hidden-size", "0"], "hidden_size"),
        (["--scheme", "fs", "--embed-size", "-3"], "embed_size"),
        (["--scheme", "asp", "--grid", "learning_rate=0.1,0.2", "--jobs", "0"], "jobs"),
        (["--scheme", "fs", "--jobs", "-2"], "jobs"),
        (["--scheme", "sp", "--alternating"], "alternating"),
        (["--scheme", "sp", "--diff-mode", "batch"], "diff_mode"),
        (["--scheme", "fs", "--unlabeled-ratio", "0.5"], "unlabeled_ratio"),
        (["--scheme", "fs", "--seed", "-1"], "seed"),
        (["--scheme", "fs", "--learning-rate", "abc"], "learning_rate"),
        (["--scheme", "fs", "--batch-size", "x"], "batch_size"),
        (["--scheme", "sp", "--grid", "learning_rate="], "learning_rate"),
        (["--scheme", "sp", "--grid", "learning_rate=0.1;learning_rate=0.3"], "learning_rate"),
        (["--scheme", "sp", "--grid", "learning_rate=0.1,,0.3"], "learning_rate"),
        (["--scheme", "sp", "--alpha", "1,,1"], "alpha"),
    ], ids=["scheme", "diff_mode", "grid", "unlabeled_ratio_negative",
            "unlabeled_ratio_nan", "max_len", "clip_norm_nan", "learning_rate_nan",
            "learning_rate_inf", "gamma_nan", "lambda_nan", "grid_learning_rate_nan",
            "grid_gamma_nan", "grid_lambda_fs", "grid_gamma_sp", "hidden_size_zero",
            "embed_size_negative", "jobs_zero", "jobs_negative", "alternating_sp",
            "diff_mode_sp", "unlabeled_ratio_fs", "seed_negative", "learning_rate_text",
            "batch_size_text", "grid_no_values", "grid_repeated_key", "grid_empty_entry",
            "alpha_empty_entry"])
    def test_bad_value_exits_3(self, corpus_dir, tmp_path, capsys, flags, key):
        rc = cli.main(["train", *flags, "--data", str(corpus_dir),
                       "--out", str(tmp_path / "x")])
        assert rc == 3
        captured = capsys.readouterr()
        assert key in captured.err
        # rejected before the corpus loads and its per-task counts print
        assert "task " not in captured.out

    def test_bad_config_file_value_exits_before_loading(self, corpus_dir, tmp_path,
                                                        capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("scheme = asp\ndiff_mode = bogus\n")
        rc = cli.main(["train", "--config", str(config), "--data", str(corpus_dir),
                       "--out", str(tmp_path / "x")])
        assert rc == 3
        captured = capsys.readouterr()
        assert "diff_mode" in captured.err and "task " not in captured.out

    def test_non_finite_embedding_exits_2(self, corpus_dir, tmp_path, capsys):
        token = (corpus_dir / "task00" / "train.tsv").read_text().split("\t")[1].split()[0]
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"{token} nan 0.5\n")
        rc = cli.main(["train", "--scheme", "sp", "--embed-size", "2", "--max-epochs", "1",
                       "--embeddings", str(vectors), "--data", str(corpus_dir),
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "vectors.txt:1" in err and f"'{token}'" in err

    def test_empty_dev_split_exits_2(self, corpus_dir, tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        for task in ("task00", "task01"):
            (data / task / "dev.tsv").write_text("")
        rc = cli.main(["train", "--scheme", "sp", "--data", str(data), "--out",
                       str(tmp_path / "x"), "--max-epochs", "6", "--patience", "2"])
        assert rc == 2
        assert "task 'task00': empty dev split" in capsys.readouterr().err
        assert not (tmp_path / "x" / "checkpoint.bin").exists()

    def test_missing_data_exits_2(self, tmp_path):
        rc = cli.main(["train", "--scheme", "fs", "--data",
                       str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_same_seed_identical_history(self, corpus_dir, tmp_path):
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            rc = cli.main(["train", "--scheme", "sp", "--data", str(corpus_dir),
                           "--out", str(out), "--seed", "7", "--max-epochs", "2",
                           "--patience", "2", "--hidden-size", "5",
                           "--embed-size", "5"])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "history.csv").read_bytes() == \
            (outs[1] / "history.csv").read_bytes()
        assert (outs[0] / "checkpoint.bin").read_bytes() == \
            (outs[1] / "checkpoint.bin").read_bytes()

    def test_env_override_changes_seed(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVMTL_SEED", "99")
        out = tmp_path / "env"
        rc = cli.main(["train", "--scheme", "fs", "--data", str(corpus_dir),
                       "--out", str(out), "--max-epochs", "1", "--patience", "1",
                       "--hidden-size", "4", "--embed-size", "4"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_manifest_records_the_environment(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "env"
        assert cli.main(["train", "--scheme", "fs", "--data", str(corpus_dir),
                         "--out", str(out), "--max-epochs", "1", "--patience", "1",
                         "--hidden-size", "4", "--embed-size", "4"]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_threads", "cpus"}
        assert env["cpus"] == len(os.sched_getaffinity(0)) >= 1
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}

    def test_resolved_config_replays_bitwise(self, corpus_dir, tmp_path):
        first = tmp_path / "first"
        rc = cli.main(["train", "--scheme", "sp", "--data", str(corpus_dir),
                       "--out", str(first), "--seed", "3", "--max-epochs", "1",
                       "--patience", "1", "--hidden-size", "4", "--embed-size", "4"])
        assert rc == 0
        replay = tmp_path / "replay"
        rc = cli.main(["train", "--config", str(first / "config.resolved.cfg"),
                       "--data", str(corpus_dir), "--out", str(replay)])
        assert rc == 0
        assert (first / "history.csv").read_bytes() == (replay / "history.csv").read_bytes()
        assert (first / "checkpoint.bin").read_bytes() == \
            (replay / "checkpoint.bin").read_bytes()

    def test_grid_mode_writes_grid_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "grid"
        rc = cli.main(["train", "--scheme", "sp", "--data", str(corpus_dir),
                       "--out", str(out), "--seed", "1", "--max-epochs", "1",
                       "--patience", "1", "--hidden-size", "4", "--embed-size", "4",
                       "--grid", "learning_rate=0.3,0.05"])
        assert rc == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("cell,mean_dev_error")

    def test_diverging_run_reports_one_line(self, corpus_dir, tmp_path):
        # the step's own checks report the failure; no numpy warning escapes
        proc = subprocess.run(
            [sys.executable, "-m", "advmtl", "train", "--scheme", "sp", "--data",
             str(corpus_dir), "--out", str(tmp_path / "div"), "--learning-rate", "1e9",
             "--max-epochs", "2", "--patience", "2", "--hidden-size", "4",
             "--embed-size", "4"], env=_child_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 5
        assert proc.stderr == ("training diverged at epoch 0, step 2, task 'task00': training "
                               "loss is not finite; best checkpoint before divergence retained\n")


class TestEval:
    def test_table_shape_and_avg(self, corpus_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--split", "test",
                       "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "task,error"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["task00", "task01", "AVG"]
        errs = [float(r[1]) for r in rows]
        assert errs[2] == pytest.approx(np.mean(errs[:2]))
        assert (out / "eval_test.csv").is_file()

    def test_mismatched_data_exits_4(self, trained_dir, tmp_path):
        root = tmp_path / "other"
        tdir = root / "different_task"
        tdir.mkdir(parents=True)
        lines = [f"{i % 2}\tw{i} w{(i * 3) % 7}" for i in range(20)]
        (tdir / "labeled.tsv").write_text("\n".join(lines) + "\n")
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(root)])
        assert rc == 4

    def test_missing_checkpoint_exits_2(self, corpus_dir, tmp_path):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                       "--data", str(corpus_dir)])
        assert rc == 2

    def test_empty_split_named(self, corpus_dir, trained_dir, tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        (data / "task01" / "test.tsv").write_text("")
        rc = cli.main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(data), "--split", "test"])
        assert rc == 2
        assert capsys.readouterr().err == "error: task 'task01': empty test split\n"

    def test_json_without_out_prints_the_json_file(self, corpus_dir, trained_dir, tmp_path,
                                                   capsys):
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(corpus_dir), "--format", "json"]
        assert cli.main(argv + ["--out", str(tmp_path / "ev")]) == 0
        capsys.readouterr()
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == (tmp_path / "ev" / "eval_test.json").read_text()
        assert set(json.loads(printed)) == {"task00", "task01", "AVG"}

    @pytest.mark.parametrize("key,value", [("max_len", 2.5), ("seed", "x"), ("seed", 1.5),
                                           ("seed", -1), ("swap_dev_test", "maybe")],
                             ids=["max_len_float", "seed_text", "seed_float", "seed_negative",
                                  "swap_dev_test_text"])
    def test_malformed_stored_setting_exits_2(self, corpus_dir, trained_dir, tmp_path, capsys,
                                              key, value):
        params, config, extra = M.load_checkpoint(trained_dir / "checkpoint.bin")
        bad = tmp_path / "bad.bin"
        M.save_checkpoint(bad, params, config, extra={**extra, key: value})
        assert cli.main(["eval", "--checkpoint", str(bad), "--data", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} from checkpoint {bad}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "dump-activations"])
    def test_reads_only_the_reload_keys(self, corpus_dir, trained_dir, tmp_path,
                                        monkeypatch, command):
        monkeypatch.setenv("ADVMTL_LEARNING_RATE", "fast")  # a setting neither reads
        monkeypatch.setenv("ADVMTL_SCHEME", "fs")
        sentences = tmp_path / "sents.txt"
        sentences.write_text("sh000 sh001\n")
        extra = (["--sentences", str(sentences), "--task", "task00"]
                 if command == "dump-activations" else [])
        out = tmp_path / "out"
        assert cli.main([command, "--checkpoint", str(trained_dir / "checkpoint.bin"),
                         "--data", str(corpus_dir), "--out", str(out), *extra]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == set(cli.RELOAD_KEYS)


class TestTransfer:
    def test_all_targets_table(self, corpus_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "tr"
        rc = cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--all-targets", "--mode", "bc",
                       "--out", str(out), "--max-epochs", "1", "--patience", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "task,error"
        assert len(lines) == 4  # 2 targets + AVG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "transfer"
        ckpt = out / "transfer_bc_task00.bin"
        assert ckpt.is_file()
        params, config, extra = M.load_checkpoint(ckpt)
        assert extra["transfer_mode"] == "bc"
        assert extra["head_input_size"] == 2 * config.hidden_size
        assert extra["frozen_sha256"]

    def test_manifest_records_only_settings_transfer_reads(
            self, corpus_dir, trained_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVMTL_HIDDEN_SIZE", "99")
        out = tmp_path / "tr_env"
        rc = cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--target", "task00",
                       "--mode", "sc", "--out", str(out), "--max-epochs", "1",
                       "--patience", "1"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["config"]) == set(cli.TRANSFER_KEYS)
        assert "hidden_size" not in manifest["config"]
        _, config, _ = M.load_checkpoint(out / "transfer_sc_task00.bin")
        assert config.hidden_size == 6

    def test_frozen_layer_hash_stable(self, corpus_dir, trained_dir, tmp_path):
        import hashlib
        out = tmp_path / "tr2"
        rc = cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--target", "task00",
                       "--mode", "sc", "--out", str(out), "--max-epochs", "1",
                       "--patience", "1"])
        assert rc == 0
        def shared_sha256(path):
            t = M.load_checkpoint(path)[0].tensors
            return hashlib.sha256(t["shared.W"].tobytes() + t["shared.b"].tobytes()).hexdigest()
        extra = M.load_checkpoint(out / "transfer_sc_task00.bin")[2]
        want = shared_sha256(trained_dir / "checkpoint.bin")
        assert shared_sha256(out / "transfer_sc_task00.bin") == want == extra["frozen_sha256"]

    def test_eval_reproduces_the_transfer_error(self, corpus_dir, trained_dir, tmp_path,
                                                monkeypatch, capsys):
        # a labeled.tsv corpus, which --swap-dev-test partitions differently
        data = tmp_path / "labeled"
        for task in ("task00", "task01"):
            (data / task).mkdir(parents=True)
            (data / task / "labeled.tsv").write_text("".join(
                (corpus_dir / task / f).read_text() for f in ("train.tsv", "dev.tsv",
                                                              "test.tsv")))
        monkeypatch.setenv("ADVMTL_SWAP_DEV_TEST", "true")
        out = tmp_path / "tr"
        assert cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                         "--data", str(data), "--target", "task01", "--mode", "sc",
                         "--out", str(out), "--max-epochs", "2", "--patience", "2"]) == 0
        transferred = capsys.readouterr().out
        ckpt = out / "transfer_sc_task01.bin"
        monkeypatch.delenv("ADVMTL_SWAP_DEV_TEST")
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        assert capsys.readouterr().out == transferred
        extra = M.load_checkpoint(ckpt)[2]
        assert {k: extra[k] for k in cli.RELOAD_KEYS} == {
            "seed": 0, "swap_dev_test": True, "max_len": D.DEFAULT_MAX_LEN}

    def test_empty_test_split_fails_before_training(self, corpus_dir, trained_dir,
                                                    tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        (data / "task01" / "test.tsv").write_text("")
        rc = cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(data), "--all-targets", "--mode", "sc",
                       "--out", str(tmp_path / "tr"), "--max-epochs", "1", "--patience", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: task 'task01': empty test split\n"
        assert not (tmp_path / "tr").exists()  # task00 was not trained either

    def test_negative_seed_exits_3(self, corpus_dir, trained_dir, tmp_path, capsys):
        rc = cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--target", "task00", "--mode", "sc",
                       "--out", str(tmp_path / "tr"), "--seed", "-1"])
        assert rc == 3
        assert capsys.readouterr().err == "error: seed from --seed: must be >= 0, got -1\n"
        assert not (tmp_path / "tr").exists()

    @pytest.mark.parametrize("targets", [[], ["--target", "task00", "--all-targets"]],
                             ids=["neither", "both"])
    def test_one_target_flag_required(self, corpus_dir, tmp_path, capsys, targets):
        rc = cli.main(["transfer", "--checkpoint", str(tmp_path / "missing.bin"),
                       "--data", str(corpus_dir), *targets, "--mode", "sc",
                       "--out", str(tmp_path / "tr"), "--max-epochs", "1"])
        assert rc == 3  # before the checkpoint is read: it does not exist
        assert capsys.readouterr().err == (
            "error: transfer: give one of --target and --all-targets\n")
        assert not (tmp_path / "tr").exists()

    def test_unknown_target_exits_4(self, corpus_dir, trained_dir, tmp_path):
        rc = cli.main(["transfer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--target", "nope",
                       "--mode", "sc", "--out", str(tmp_path / "x")])
        assert rc == 4


class TestDumpActivations:
    def test_rows_columns_and_consistency(self, corpus_dir, trained_dir, tmp_path):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("sh000 sh001 pv00_00\nsh002 sh003\n")
        out = tmp_path / "dump"
        rc = cli.main(["dump-activations", "--checkpoint",
                       str(trained_dir / "checkpoint.bin"), "--data", str(corpus_dir),
                       "--sentences", str(sentences), "--task", "task00",
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "activations.csv").read_text().splitlines()
        header = lines[0].split(",")
        d = 6
        assert header[:3] == ["sentence", "t", "token"]
        assert sum(c.startswith("shared_") for c in header) == d
        assert sum(c.startswith("private_") for c in header) == d
        assert sum(c.startswith("prob_") for c in header) == 2
        assert len(lines) - 1 == 3 + 2  # T rows per sentence

        # final-row probabilities equal a fresh forward pass for that sentence
        from advmtl import data as D, train as T
        from advmtl.autodiff import Tape
        params, config, _ = M.load_checkpoint(trained_dir / "checkpoint.bin")
        datasets, vocab = D.load_corpus(corpus_dir)
        ids = vocab.encode(["sh000", "sh001", "pv00_00"])
        tape = Tape()
        res = M.forward(tape, params.bind(tape), config, ids, 0, want_disc=False)
        last = lines[3].split(",")
        got = [float(v) for v in last[-2:]]
        np.testing.assert_allclose(got, res.class_probs.value, rtol=0, atol=1e-12)

    def test_one_fold_call_per_chunk(self, corpus_dir, trained_dir, tmp_path, monkeypatch):
        datasets, vocab = D.load_corpus(corpus_dir)
        sentences = [[vocab.id_to_token[i] for i in ex.tokens]
                     for ds in datasets.values() for ex in ds.test[:12]]
        path = tmp_path / "sents.txt"
        path.write_text("".join(" ".join(s) + "\n" for s in sentences))
        monkeypatch.setattr(T, "ENCODE_TOKENS", 20)  # several chunks of several sentences
        chunks = [sum(map(len, c)) for c in T.chunks(sentences)]
        assert len(chunks) >= 4 and len(chunks) < len(sentences)
        calls, states = [], nn.lstm_states

        def spy(X, layers, packing):
            calls.append(len(X))
            return states(X, layers, packing)

        monkeypatch.setattr(nn, "lstm_states", spy)
        out = tmp_path / "dump"
        assert cli.main(["dump-activations", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                         "--data", str(corpus_dir), "--sentences", str(path),
                         "--task", "task01", "--out", str(out)]) == 0
        assert calls == chunks
        monkeypatch.undo()
        # the rows of each sentence alone, in the same order, within 1e-12
        params, config, _ = M.load_checkpoint(trained_dir / "checkpoint.bin")
        lines = (out / "activations.csv").read_text().splitlines()
        assert len(lines) == 1 + sum(chunks)
        d, rows = config.hidden_size, iter(lines[1:])
        for si, s in enumerate(sentences):
            states, probs = M.dump_activations(params, config, [vocab.encode(s)], 1)
            values = np.concatenate([states[:, -d:], states[:, :d], probs], axis=1)
            for t, (token, want) in enumerate(zip(s, values), 1):
                row = next(rows).split(",")
                assert row[:3] == [str(si), str(t), token]
                np.testing.assert_allclose([float(v) for v in row[3:]], want, rtol=0, atol=1e-12)

    def test_memory_follows_the_chunk_budget(self, corpus_dir, trained_dir, tmp_path,
                                             monkeypatch):
        datasets, vocab = D.load_corpus(corpus_dir)
        lines = [" ".join(vocab.id_to_token[i] for i in ex.tokens) + "\n"
                 for ex in datasets["task00"].test]
        monkeypatch.setattr(T, "ENCODE_TOKENS", 40)

        def peak(n):
            path = tmp_path / f"sents{n}.txt"
            path.write_text("".join(lines[i % len(lines)] for i in range(n)))
            tracemalloc.start()
            try:
                assert cli.main(["dump-activations", "--checkpoint",
                                 str(trained_dir / "checkpoint.bin"), "--data", str(corpus_dir),
                                 "--sentences", str(path), "--task", "task00",
                                 "--out", str(tmp_path / f"dump{n}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the rows of 4x the sentences pass through memory one chunk at a time
        assert peak(1000) < 1.5 * peak(250)

    def test_checkpoint_max_len_restored(self, corpus_dir, tmp_path):
        run = tmp_path / "short"
        assert cli.main(["train", "--scheme", "fs", "--data", str(corpus_dir),
                         "--out", str(run), "--max-len", "3", "--max-epochs", "1",
                         "--patience", "1", "--hidden-size", "4",
                         "--embed-size", "4"]) == 0
        sentences = tmp_path / "sents.txt"
        sentences.write_text("sh000 sh001\n")
        rc = cli.main(["dump-activations", "--checkpoint", str(run / "checkpoint.bin"),
                       "--data", str(corpus_dir), "--sentences", str(sentences),
                       "--task", "task00", "--out", str(tmp_path / "dump")])
        assert rc == 0
        manifest = json.loads((tmp_path / "dump" / "manifest.json").read_text())
        assert manifest["config"]["max_len"] == 3


def _csv_rows(path) -> list:
    """The rows of a CSV file after its header, each as wide as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows), path
    return rows


def test_tables_quote_commas_and_quotes(corpus_dir, tmp_path):
    # a task named "task,01", and the tokens 'a,b' and '"hi"', read back whole
    data = tmp_path / "corpus"
    shutil.copytree(corpus_dir, data)
    (data / "task01").rename(data / "task,01")
    run = tmp_path / "run"
    assert cli.main(["train", "--scheme", "sp", "--data", str(data), "--out", str(run),
                     "--seed", "1", "--max-epochs", "1", "--patience", "1",
                     "--hidden-size", "4", "--embed-size", "4"]) == 0
    checkpoint = str(run / "checkpoint.bin")
    assert cli.main(["eval", "--checkpoint", checkpoint, "--data", str(data),
                     "--split", "test", "--out", str(tmp_path / "eval")]) == 0
    sentences = tmp_path / "sents.txt"
    sentences.write_text('sh003 a,b "hi"\n')
    assert cli.main(["dump-activations", "--checkpoint", checkpoint, "--data", str(data),
                     "--sentences", str(sentences), "--task", "task,01",
                     "--out", str(tmp_path / "dump")]) == 0
    assert {row[1] for row in _csv_rows(run / "history.csv")} == {"task,01", "task00"}
    assert [row[0] for row in _csv_rows(tmp_path / "eval" / "eval_test.csv")] == [
        "task,01", "task00", "AVG"]
    assert [row[2] for row in _csv_rows(tmp_path / "dump" / "activations.csv")] == [
        "sh003", "a,b", '"hi"']


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "run.cfg"],
    ["dump-activations", "--config", "run.cfg", "--sentences", "s.txt",
     "--task", "task00", "--out", "dump"],
    ["transfer", "--hidden-size", "99", "--mode", "sc", "--out", "tr"],
    ["transfer", "--embed-size", "77", "--mode", "sc", "--out", "tr"],
], ids=["eval-config", "dump-activations-config", "transfer-hidden-size",
        "transfer-embed-size"])
def test_flags_nothing_reads_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--checkpoint", "model.bin", "--data", "corpus"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "grid", "eval", "transfer",
                                     "dump-activations"])
def test_manifest_outputs_are_the_files_written(corpus_dir, trained_dir, tmp_path, command):
    if command in ("synth", "train"):  # the module's fixtures ran these two
        out = corpus_dir if command == "synth" else trained_dir
    else:
        out = tmp_path / "out"
        sentences = tmp_path / "sents.txt"
        sentences.write_text("sh000 sh001\n")
        reload = ["--checkpoint", str(trained_dir / "checkpoint.bin"), "--data",
                  str(corpus_dir)]
        argv = {"grid": ["train", "--scheme", "sp", "--data", str(corpus_dir),
                         "--max-epochs", "1", "--hidden-size", "4", "--embed-size", "4",
                         "--grid", "learning_rate=0.3,0.05"],
                "eval": ["eval", *reload, "--format", "json"],
                "transfer": ["transfer", *reload, "--all-targets", "--mode", "sc",
                             "--max-epochs", "1", "--patience", "1"],
                "dump-activations": ["dump-activations", *reload, "--task", "task00",
                                     "--sentences", str(sentences)]}[command]
        assert cli.main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == ("train" if command == "grid" else command)
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert {os.path.relpath(p, out) for p in manifest["outputs"]} == \
        written - {"manifest.json"}


def test_cli_demo_runs(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    shim = tmp_path / "bin" / "advmtl"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m advmtl "$@"\n')
    shim.chmod(0o755)
    env = _child_env(PATH=f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
                     PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run(["bash", str(repo / "demos" / "05_cli_workflow.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(list((tmp_path / "demo_run").rglob("manifest.json"))) == 5


@pytest.mark.parametrize("command", ["train", "eval", "transfer", "synth", "dump-activations"])
def test_help_lists_the_readme_flags(command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    row = re.search(rf"^\| `{command}` \| (.*) \|$", readme, re.M).group(1)
    want = set(re.findall(r"--[a-z-]+", row))
    if "one flag per key" in row:
        want |= {"--" + key.replace("_", "-") for key in cli.CONFIG_KEYS}
    proc = subprocess.run([sys.executable, "-m", "advmtl", command, "--help"],
                          env=_child_env(PYTHONWARNINGS="error"), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(re.findall(r"--[a-z-]+", proc.stdout)) - {"--help"} == want


def test_console_entry_point(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tasks = 1\n")
    rc = subprocess.run([sys.executable, "-m", "advmtl", "synth", "--spec",
                         str(bad), "--out", str(tmp_path / "x")],
                        env=_child_env(), capture_output=True)
    assert rc.returncode == 3


DROP = object()  # a manifest entry _edit_manifest removes


def _edit_manifest(src, dst, **changes):
    """Copy a checkpoint, replacing the given manifest entries (removing the DROP ones)."""
    blob = Path(src).read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    manifest = json.loads(blob[16:16 + hlen])
    manifest.update(changes)
    manifest = {k: v for k, v in manifest.items() if v is not DROP}
    header = json.dumps(manifest).encode()
    Path(dst).write_bytes(blob[:8] + len(header).to_bytes(8, "little") + header
                          + blob[16 + hlen:])


@pytest.mark.parametrize("changes", [{"extra": 3}, {"embeddings_trainable": None},
                                     {"hidden_size": 6.0}, {"gate_block_order": "i,f,o,cbar"},
                                     {"input_order": DROP}, {"concat_order": "shared,private"}],
                         ids=["extra", "embeddings_trainable", "float_hidden_size",
                              "gate_block_order", "missing_input_order", "concat_order"])
def test_mistyped_manifest_exits_2_without_traceback(corpus_dir, trained_dir, tmp_path,
                                                     changes):
    bad = tmp_path / "bad.bin"
    _edit_manifest(trained_dir / "checkpoint.bin", bad, **changes)
    proc = subprocess.run([sys.executable, "-m", "advmtl", "eval", "--checkpoint", str(bad),
                           "--data", str(corpus_dir)], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert next(iter(changes)) in proc.stderr


@pytest.mark.parametrize("error", ["ShapeError", "ContractError", "AdvMtlError"])
def test_shape_and_contract_errors_exit_2(monkeypatch, tmp_path, capsys, error):
    from advmtl import errors

    def fail(args):
        raise getattr(errors, error)("operands disagree")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC)
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: operands disagree\n"


@pytest.mark.parametrize("target", ["train.tsv", "unlabeled.tsv", "embeddings", "config",
                                    "sentences"])
def test_non_utf8_input_exits_with_one_error_line(corpus_dir, trained_dir, tmp_path, capsys,
                                                  target):
    data = tmp_path / "corpus"
    shutil.copytree(corpus_dir, data)
    out = str(tmp_path / "out")
    train = ["train", "--scheme", "asp", "--max-epochs", "1", "--hidden-size", "4",
             "--embed-size", "2", "--data", str(data), "--out", out]
    code = 2
    if target in ("train.tsv", "unlabeled.tsv"):
        bad = data / "task00" / target
        line = len(bad.read_bytes().splitlines()) + 1
        with open(bad, "ab") as fh:
            fh.write(b"1\tgood \xff token\n")
        argv = train
    elif target == "embeddings":
        bad, line = tmp_path / "vectors.txt", 2
        bad.write_bytes(b"zzz 0.1 0.2\n\xff 0.3 0.4\n")
        argv = train + ["--embeddings", str(bad)]
    elif target == "config":
        bad, line, code = tmp_path / "run.cfg", 2, 3
        bad.write_bytes(b"scheme = asp\nseed = 1  # \xff\n")
        argv = ["train", "--config", str(bad), "--data", str(data), "--out", out]
    else:
        bad, line = tmp_path / "sentences.txt", 2
        bad.write_bytes(b"good\n\xff\n")
        argv = ["dump-activations", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(corpus_dir), "--sentences", str(bad), "--task", "task00",
                "--out", str(tmp_path / "acts.csv")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{bad}:{line}: not UTF-8 text (byte 0xff)" in err


CONFIG_SETTINGS = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])
CONFIG_FRAGMENTS = st.sampled_from([b"key", b"=", b" ", b"#", b"\n", b"\r", b"\t", b"1.5",
                                    b"\x00", b"\xc3\xa9", b"\xff", b"\xed\xa0\x80"])


@CONFIG_SETTINGS
@given(st.one_of(st.binary(max_size=200),
                 st.lists(CONFIG_FRAGMENTS, max_size=40).map(b"".join)))
def test_config_bytes_parse_or_raise_a_config_error(tmp_path, raw):
    path = tmp_path / "any.cfg"
    path.write_bytes(raw)
    try:
        out = cli.parse_flat_config(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in out.items())


@CONFIG_SETTINGS
@given(st.dictionaries(
    st.text(st.characters(blacklist_categories=("Z", "C"), blacklist_characters="=#"),
            min_size=1, max_size=8),
    st.text(st.characters(blacklist_categories=("C",), blacklist_characters="#"),
            max_size=12),
    max_size=8))
def test_well_formed_config_round_trips(tmp_path, values):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n" + "".join(f"{k} = {v}  # note\n" for k, v in values.items()),
                    encoding="utf-8")
    assert cli.parse_flat_config(path) == {k: v.strip() for k, v in values.items()}


def test_config_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\ufeffscheme = asp\nseed = 3\n", encoding="utf-8")
    assert cli.parse_flat_config(path) == {"scheme": "asp", "seed": "3"}


NON_BOOLEAN_KEYS = [key for key, (cast, *_) in cli.CONFIG_KEYS.items() if cast is not cli._bool]
SETTING_TEXT = st.one_of(
    st.sampled_from(["", "nan", "-inf", "0", "-1", "7", "2.5", "1e-3", "abc", "0x10", "1_000",
                     "true", "asp", "learning_rate=0.1,0.2"]),
    st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{0,3})?(e-?[0-9])?", fullmatch=True),
    st.text(st.characters(blacklist_categories=("C", "Z"), blacklist_characters="#"),
            max_size=8))


@CONFIG_SETTINGS
@given(st.sampled_from(NON_BOOLEAN_KEYS), SETTING_TEXT)
@example(key="scheme", text="--")  # argparse hands a bare "--" value over as []
def test_flag_file_and_environment_cast_alike(tmp_path, key, text):
    def outcome(flag_values, config_path, environ):
        try:
            return repr(cli.resolve_config(config_path, flag_values, environ)[key])
        except ConfigError as exc:
            assert key in str(exc)
            return ConfigError

    flag = "--" + key.replace("_", "-")
    args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o", f"{flag}={text}"])
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n", encoding="utf-8")
    outcomes = {outcome(vars(args), None, {}),
                outcome({}, config, {}),
                outcome({}, {}, {cli.ENV_PREFIX + key.upper(): text})}
    assert len(outcomes) == 1
