"""End-to-end command-line tests driven through main(argv)."""

import contextlib
import io
import os
from pathlib import Path
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from vidcap import __version__
from vidcap.cli import main
from vidcap.features import write_feature_file
from vidcap.model import (ModelConfig, ModelParams, _write_tensor,
                          load_checkpoint, save_checkpoint)
from vidcap.tokenizer import Tokenizer

SRC = Path(__file__).resolve().parent.parent / "src"
MODEL_ARGS = ["--frames", "8", "--feature-dim", "16", "--latent", "8",
              "--vocab", "40"]


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as e:  # argparse-level exits
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A fixture corpus, prepared splits, and a short training run."""
    root = tmp_path_factory.mktemp("ws")
    data, run = root / "data", root / "run"
    code, _, err = run_cli("make-fixture", "--out", str(data))
    assert code == 0, err
    base = ["--descriptions", str(data / "descriptions.txt"),
            "--manifest", str(data / "manifest.tsv"), "--out", str(run)]
    code, _, err = run_cli("prepare", *base, "--vocab", "40", "--seed", "42")
    assert code == 0, err
    code, _, err = run_cli("train", *base, *MODEL_ARGS, "--epochs", "3",
                           "--batch-size", "4", "--lr", "0.001", "--seed", "11")
    assert code == 0, err
    return {"data": data, "run": run, "base": base,
            "ckpt": run / "ckpt-3.sq2s", "tok": run / "tokenizer.txt"}


# ---------------------------------------------------------------------------
# Version and usage
# ---------------------------------------------------------------------------

def test_version_flag():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.strip() == f"vidcap {__version__} (checkpoint format 1)"


def test_version_subprocess():
    proc = subprocess.run([sys.executable, "-m", "vidcap", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"vidcap {__version__} (checkpoint format 1)"


def test_unknown_flag_exits_2():
    code, _, _ = run_cli("prepare", "--bogus", "x")
    assert code == 2


def test_missing_required_option_exits_2(tmp_path):
    code, _, err = run_cli("prepare", "--out", str(tmp_path))
    assert code == 2
    assert "missing required option" in err


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_writes_artifacts(ws):
    for name in ("train.keys", "val.keys", "test.keys", "tokenizer.txt",
                 "summary.txt"):
        assert (ws["run"] / name).exists()
    summary = (ws["run"] / "summary.txt").read_text(encoding="utf-8")
    assert "videos: 6" in summary
    assert "split sizes: train=5 val=1 test=0" in summary
    assert "videos missing features: 0" in summary


def test_prepare_rerun_is_byte_identical(ws, tmp_path):
    code, _, _ = run_cli("prepare", "--descriptions",
                         str(ws["data"] / "descriptions.txt"),
                         "--manifest", str(ws["data"] / "manifest.tsv"),
                         "--out", str(tmp_path), "--vocab", "40", "--seed", "42")
    assert code == 0
    for name in ("train.keys", "val.keys", "test.keys", "tokenizer.txt",
                 "summary.txt"):
        assert (tmp_path / name).read_bytes() == (ws["run"] / name).read_bytes()


def test_prepare_rejects_empty_corpus(ws, tmp_path):
    desc = tmp_path / "empty.txt"
    desc.write_text("v1 too short\n", encoding="utf-8")  # filtered out
    code, _, err = run_cli("prepare", "--descriptions", str(desc),
                           "--manifest", str(ws["data"] / "manifest.tsv"),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "no captions survived filtering" in err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_metrics_and_checkpoint(ws):
    lines = (ws["run"] / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 4  # header + one row per epoch
    assert all(line.startswith(f"{i},") for i, line in enumerate(lines[1:], 1))
    assert ws["ckpt"].exists()


def test_train_logs_progress_and_final_path(ws):
    code, out, _ = run_cli("train", "--descriptions",
                           str(ws["data"] / "descriptions.txt"),
                           "--manifest", str(ws["data"] / "manifest.tsv"),
                           "--out", str(ws["run"]), *MODEL_ARGS,
                           "--epochs", "1", "--lr", "0", "--seed", "11")
    assert code == 0
    assert "epoch 1: train_loss=" in out
    assert "final checkpoint:" in out


def test_train_lr_zero_checkpoint_equals_init(ws):
    run_cli("train", *ws["base"], *MODEL_ARGS,
            "--epochs", "1", "--lr", "0", "--seed", "5")
    cfg, params, _ = load_checkpoint(str(ws["run"] / "ckpt-1.sq2s"))
    fresh = ModelParams.init(cfg, seed=5)
    for name, tensor in fresh.tensors().items():
        assert np.array_equal(params.tensors()[name], tensor)
    # leave the module checkpoint in a known state for later tests
    run_cli("train", *ws["base"], *MODEL_ARGS, "--epochs", "3",
            "--batch-size", "4", "--lr", "0.001", "--seed", "11")


def test_train_validation_divergence_exits_1_without_traceback(ws, tmp_path):
    # one batch holds every sample, so the first non-finite value appears
    # in the validation pass after the only Adam step
    base = ["--descriptions", str(ws["data"] / "descriptions.txt"),
            "--manifest", str(ws["data"] / "manifest.tsv"), "--out", str(tmp_path)]
    assert run_cli("prepare", *base, "--vocab", "40", "--seed", "42")[0] == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "vidcap", "train", *base, *MODEL_ARGS,
         "--batch-size", "100", "--epochs", "1", "--lr", "1e38"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert errors == ["error: epoch 1: non-finite probabilities in cross_entropy"]
    assert not (tmp_path / "ckpt-1.sq2s").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_train_divergence_prints_only_the_error_line(ws, tmp_path, threads):
    # the overflowing kernels must not add numpy RuntimeWarnings, from
    # the main thread or from the worker threads
    base = ["--descriptions", str(ws["data"] / "descriptions.txt"),
            "--manifest", str(ws["data"] / "manifest.tsv"), "--out", str(tmp_path)]
    assert run_cli("prepare", *base, "--vocab", "40", "--seed", "42")[0] == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "vidcap", "train", *base, *MODEL_ARGS,
         "--batch-size", "100", "--epochs", "1", "--lr", "1e38",
         "--threads", threads],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: epoch 1: non-finite probabilities in cross_entropy"]


@pytest.mark.parametrize("lr", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_non_finite_lr_exits_2(ws, tmp_path, lr, source):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"lr = {lr}\n", encoding="utf-8")
    extra = ["--lr", lr] if source == "flag" else ["--config", str(cfg)]
    code, out, err = run_cli("train", *ws["base"], *MODEL_ARGS, "--epochs", "1", *extra)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: lr must be finite and >= 0, got {lr}"


def test_train_tokenizer_cap_mismatch_exits_1(ws):
    code, _, err = run_cli("train", *ws["base"], "--frames", "8",
                           "--feature-dim", "16", "--latent", "8",
                           "--vocab", "12", "--epochs", "1")
    assert code == 1
    assert "does not match" in err


# ---------------------------------------------------------------------------
# caption
# ---------------------------------------------------------------------------

def test_caption_by_video_id(ws):
    code, out, _ = run_cli("caption", "--checkpoint", str(ws["ckpt"]),
                           "--tokenizer", str(ws["tok"]),
                           "--manifest", str(ws["data"] / "manifest.tsv"),
                           "--video-id", "vid000")
    assert code == 0
    words = out.strip().split()
    assert 0 < len(words) <= 10
    tok = Tokenizer.load(str(ws["tok"]))
    assert all(w in tok.word_to_index for w in words)
    assert "bos" not in words and "eos" not in words


def test_caption_by_feature_file(ws):
    code, out, _ = run_cli("caption", "--checkpoint", str(ws["ckpt"]),
                           "--tokenizer", str(ws["tok"]),
                           "--features", str(ws["data"] / "feat" / "vid001.vfm"))
    assert code == 0
    assert out.strip()


def test_caption_requires_an_input_source(ws):
    code, _, err = run_cli("caption", "--checkpoint", str(ws["ckpt"]),
                           "--tokenizer", str(ws["tok"]))
    assert code == 2
    assert "--features" in err


def test_caption_rejects_wrong_feature_shape(ws, tmp_path):
    bad = tmp_path / "bad.vfm"
    write_feature_file(str(bad), np.zeros((3, 16), dtype=np.float32))
    code, _, err = run_cli("caption", "--checkpoint", str(ws["ckpt"]),
                           "--tokenizer", str(ws["tok"]),
                           "--features", str(bad))
    assert code == 1
    assert "shape" in err


def test_caption_missing_checkpoint_exits_1(ws, tmp_path):
    code, _, _ = run_cli("caption", "--checkpoint", str(tmp_path / "none.sq2s"),
                         "--tokenizer", str(ws["tok"]),
                         "--features", str(ws["data"] / "feat" / "vid001.vfm"))
    assert code == 1


def _corrupt_checkpoint(ws, tmp_path, kind):
    path = tmp_path / f"{kind}.sq2s"
    if kind == "name":
        blob = bytearray(ws["ckpt"].read_bytes())
        blob[30] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(blob))
    else:
        cfg, params, _ = load_checkpoint(str(ws["ckpt"]))
        params.encoder.W[0, 0] = np.nan
        save_checkpoint(str(path), cfg, params)
    return path


@pytest.mark.parametrize("kind", ["name", "nan"])
def test_caption_corrupt_checkpoint_exits_2(ws, tmp_path, kind):
    code, out, err = run_cli("caption", "--checkpoint",
                             str(_corrupt_checkpoint(ws, tmp_path, kind)),
                             "--tokenizer", str(ws["tok"]),
                             "--features", str(ws["data"] / "feat" / "vid001.vfm"))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert ("not valid UTF-8" if kind == "name" else "'encoder.W' has non-finite") in err


def test_caption_unknown_tensor_checkpoint_exits_2(ws, tmp_path):
    path = tmp_path / "unknown.sq2s"
    path.write_bytes(ws["ckpt"].read_bytes())
    _, params, _ = load_checkpoint(str(ws["ckpt"]))
    with open(path, "ab") as fh:
        _write_tensor(fh, "encoder.Wx", params.encoder.W)
    code, out, err = run_cli("caption", "--checkpoint", str(path),
                             "--tokenizer", str(ws["tok"]),
                             "--features", str(ws["data"] / "feat" / "vid001.vfm"))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "unknown tensor 'encoder.Wx'" in err


def test_caption_zero_dim_checkpoint_exits_2(ws, tmp_path):
    path = tmp_path / "zero.sq2s"
    blob = bytearray(ws["ckpt"].read_bytes())
    struct.pack_into("<I", blob, 20, 0)  # header max_words
    path.write_bytes(bytes(blob))
    code, out, err = run_cli("caption", "--checkpoint", str(path),
                             "--tokenizer", str(ws["tok"]),
                             "--features", str(ws["data"] / "feat" / "vid001.vfm"))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "max_words must be positive, got 0" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_writes_reports(ws):
    code, out, _ = run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
                           "--split", "train")
    assert code == 0
    assert "train: 5 videos, mean BLEU-2" in out
    report = (ws["run"] / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "split,video_id,bleu2,prediction"
    assert len(report) == 6
    hist = (ws["run"] / "histogram.csv").read_text(encoding="utf-8").splitlines()
    assert len(hist) == 11
    summary = (ws["run"] / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[1].startswith("train,5,")


def test_eval_rerun_is_byte_identical(ws):
    run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
            "--split", "train")
    first = {n: (ws["run"] / n).read_bytes()
             for n in ("report.csv", "summary.csv", "histogram.csv")}
    run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
            "--split", "train", "--threads", "3")
    for name, blob in first.items():
        assert (ws["run"] / name).read_bytes() == blob


def test_eval_unknown_split_exits_2(ws):
    code, _, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
                           "--split", "dev")
    assert code == 2
    assert "unknown split" in err


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_cli_wins(ws, tmp_path):
    cfg = tmp_path / "prep.cfg"
    cfg.write_text("vocab = 12\nseed = 42\n", encoding="utf-8")
    args = ["--descriptions", str(ws["data"] / "descriptions.txt"),
            "--manifest", str(ws["data"] / "manifest.tsv")]

    code, _, _ = run_cli("prepare", *args, "--out", str(tmp_path / "a"),
                         "--config", str(cfg))
    assert code == 0
    head = (tmp_path / "a" / "tokenizer.txt").read_text().splitlines()[0]
    assert head == "V=12"

    code, _, _ = run_cli("prepare", *args, "--out", str(tmp_path / "b"),
                         "--config", str(cfg), "--vocab", "9")
    assert code == 0
    head = (tmp_path / "b" / "tokenizer.txt").read_text().splitlines()[0]
    assert head == "V=9"


def test_config_rejects_unknown_keys(ws, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 3\n", encoding="utf-8")  # not a prepare option
    code, _, err = run_cli("prepare", *ws["base"], "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'epochs'" in err


def test_config_boolean_coercion(ws, tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("no-cache = yes\nsplit = train\n", encoding="utf-8")
    code, _, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
                           "--config", str(good))
    assert code == 0, err

    bad = tmp_path / "bad.cfg"
    bad.write_text("no-cache = maybe\n", encoding="utf-8")
    code, _, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
                           "--config", str(bad))
    assert code == 2
    assert "not a boolean" in err


@pytest.mark.parametrize("name", ["tokenizer", "config", "descriptions",
                                  "manifest", "keys"])
def test_non_utf8_text_file_exits_2(ws, tmp_path, name):
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(ws["data"], data)
    shutil.copytree(ws["run"], run)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("split = train\n", encoding="utf-8")
    bad = {"tokenizer": run / "tokenizer.txt", "config": cfg,
           "descriptions": data / "descriptions.txt",
           "manifest": data / "manifest.tsv", "keys": run / "train.keys"}[name]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    code, out, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]),
                             "--descriptions", str(data / "descriptions.txt"),
                             "--manifest", str(data / "manifest.tsv"),
                             "--out", str(run), "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"{bad}: not valid UTF-8" in err


def test_config_missing_file_exits_2(ws):
    code, _, err = run_cli("prepare", *ws["base"], "--config", "/no/such/file")
    assert code == 2
    assert "cannot read config file" in err
