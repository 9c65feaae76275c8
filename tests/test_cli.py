"""End-to-end command-line tests driven through main(argv)."""

import ast
import contextlib
import csv
import io
import os
from pathlib import Path
import re
import shlex
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from vidcap import __version__
from vidcap import model as mdl
from vidcap.cli import build_parser, main
from vidcap.features import MAGIC, write_feature_file
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "vidcap", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"vidcap {__version__} (checkpoint format 1)"


def test_readme_commands_parse():
    # every `vidcap` command in README's sh blocks, continuations joined
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("vidcap ")]
    assert {argv[1] for argv in commands} >= {"make-fixture", "prepare", "train",
                                              "caption", "eval"}
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"{' '.join(argv)}: {err.getvalue().splitlines()[-1]}")


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


def test_train_divergence_prints_only_the_error_line(ws, tmp_path):
    # the overflowing kernels must not add numpy RuntimeWarnings
    base = ["--descriptions", str(ws["data"] / "descriptions.txt"),
            "--manifest", str(ws["data"] / "manifest.tsv"), "--out", str(tmp_path)]
    assert run_cli("prepare", *base, "--vocab", "40", "--seed", "42")[0] == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "vidcap", "train", *base, *MODEL_ARGS,
         "--batch-size", "100", "--epochs", "1", "--lr", "1e38"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: epoch 1: non-finite probabilities in cross_entropy"]


def test_train_rerun_is_byte_identical_at_two_blas_threads(tmp_path):
    # reproducibility holds for a given seed and BLAS thread count: two
    # full-width runs with OpenBLAS on two threads write the same bytes
    data = tmp_path / "data"
    assert run_cli("make-fixture", "--out", str(data), "--n-videos", "40",
                   "--frames", "8", "--feature-dim", "256")[0] == 0
    inputs = ["--descriptions", str(data / "descriptions.txt"),
              "--manifest", str(data / "manifest.tsv")]
    assert run_cli("prepare", *inputs, "--out", str(tmp_path / "a"),
                   "--vocab", "1500")[0] == 0
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2")
    for run in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "vidcap", "train", *inputs, "--out", str(tmp_path / run),
             "--frames", "8", "--feature-dim", "256", "--latent", "512",
             "--vocab", "1500", "--epochs", "2", "--batch-size", "50"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in ("metrics.csv", "ckpt-2.sq2s"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_threads_below_one_exits_2(ws, tmp_path, command, source, threads):
    cfg = tmp_path / "threads.cfg"
    cfg.write_text(f"threads = {threads}\n", encoding="utf-8")
    extra = ["--threads", threads] if source == "flag" else ["--config", str(cfg)]
    if command == "train":
        args = ["train", *ws["base"], *MODEL_ARGS, "--epochs", "1"]
    else:
        args = ["eval", "--checkpoint", str(ws["ckpt"]), *ws["base"], "--split", "train"]
    code, out, err = run_cli(*args, *extra)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: threads must be >= 1, got {threads}"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["prepare", "train", "make-fixture"])
def test_negative_seed_exits_2_before_writing(ws, tmp_path, command, source):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n", encoding="utf-8")
    extra = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out"
    if command == "train":
        shutil.copytree(ws["run"], out)
    args = {"prepare": ["prepare", *ws["base"][:4], "--vocab", "40"],
            "train": ["train", *ws["base"][:4], *MODEL_ARGS, "--epochs", "1"],
            "make-fixture": ["make-fixture"]}[command]
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli(*args, "--out", str(out), *extra)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flag", ["--frames", "--feature-dim"])
def test_make_fixture_empty_features_exit_2_before_writing(tmp_path, flag):
    code, stdout, err = run_cli("make-fixture", "--out", str(tmp_path / "data"), flag, "0")
    assert code == 2
    assert stdout == ""
    dims = "0 x 16" if flag == "--frames" else "8 x 0"
    assert err.splitlines() == [f"error: frames and feature_dim must be >= 1, got {dims}"]
    assert not (tmp_path / "data").exists()


def test_train_starts_no_threads_and_ignores_threads(ws, tmp_path, monkeypatch):
    def refuse(self):
        raise RuntimeError(f"training started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    outputs = {}
    for name, extra in (("1", ["--threads", "1"]), ("4", ["--threads", "4"])):
        out = tmp_path / name
        shutil.copytree(ws["run"], out)
        code, _, err = run_cli(
            "train", "--descriptions", str(ws["data"] / "descriptions.txt"),
            "--manifest", str(ws["data"] / "manifest.tsv"), "--out", str(out),
            "--frames", "8", "--feature-dim", "16", "--latent", "32", "--vocab", "40",
            "--epochs", "20", "--batch-size", "6", "--lr", "0.001", *extra)
        assert code == 0, err
        outputs[name] = [(out / f).read_bytes()
                         for f in ("metrics.csv", "ckpt-20.sq2s")]
    assert outputs["4"] == outputs["1"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_no_cache_option_is_gone(ws, command):
    code, _, err = run_cli(command, *ws["base"], "--no-cache")
    assert code == 2
    assert "--no-cache" in err


def train_writes_nothing(ws, tmp_path, *extra):
    """Run a 1-epoch train into a copy of the prepared run directory;
    return (exit code, stdout, stderr), asserting no file there changed."""
    out = tmp_path / "out"
    shutil.copytree(ws["run"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    result = run_cli("train", *ws["base"][:4], "--out", str(out), *MODEL_ARGS,
                     "--epochs", "1", *extra)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    return result


@pytest.mark.parametrize("option", ["prefix-expansion", "no-mask-padding"])
def test_deleted_training_modes_exit_2_before_writing(ws, tmp_path, option):
    code, out, err = train_writes_nothing(ws, tmp_path, f"--{option}")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --{option}" in err
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"{option} = true\n", encoding="utf-8")
    code, out, err = train_writes_nothing(ws, tmp_path / "config", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: unknown config key '{option.replace('-', '_')}' "
                                "for command 'train'"]


@pytest.mark.parametrize("option,value,message", [
    ("batch-size", "0", "batch_size must be >= 1, got 0"),
    ("epochs", "0", "epochs must be >= 1, got 0"),
    ("lr", "nan", "lr must be finite and >= 0, got nan"),
    ("checkpoint-every", "-1", "checkpoint_every must be >= 0, got -1"),
])
def test_bad_train_config_exits_2_before_model_init(ws, tmp_path, monkeypatch,
                                                    option, value, message):
    def refuse(*args, **kwargs):
        raise AssertionError("ModelParams.init ran before TrainConfig was validated")

    monkeypatch.setattr(ModelParams, "init", refuse)
    code, out, err = train_writes_nothing(ws, tmp_path, f"--{option}", value)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_option_prefixes_do_not_parse(ws, tmp_path):
    # a unique prefix of --batch-size is not accepted, as in config files
    code, out, err = train_writes_nothing(ws, tmp_path, "--batch", "6")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --batch 6" in err


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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_wrong_feature_shape_exits_2_before_writing(ws, tmp_path, command):
    # train and eval read through a FeatureStore that checks the shape
    # (an InputError, exit 2); caption checks it itself (exit 1, above)
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(ws["data"], data)
    run.mkdir()
    for name in ("train.keys", "val.keys", "test.keys", "tokenizer.txt"):
        shutil.copy(ws["run"] / name, run / name)
    write_feature_file(str(data / "feat" / "vid004.vfm"), np.zeros((9, 16), dtype=np.float32))
    base = ["--descriptions", str(data / "descriptions.txt"),
            "--manifest", str(data / "manifest.tsv"), "--out", str(run)]
    if command == "train":
        args = ["train", *base, *MODEL_ARGS, "--epochs", "1"]
    else:
        args = ["eval", *base, "--checkpoint", str(ws["ckpt"]), "--split", "train"]
    code, _, err = run_cli(*args)
    assert code == 2
    assert err.splitlines() == [
        "error: features for 'vid004' have shape (9, 16), expected (8, 16)"]
    assert not list(run.glob("*.sq2s"))
    assert not (run / "report.csv").exists() and not (run / "metrics.csv").exists()


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
    assert ("record at byte 28 is not tensor 'encoder.W'" if kind == "name"
            else "'encoder.W' has non-finite") in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_caption_non_finite_features_exit_2(ws, tmp_path, bad):
    m = np.zeros((8, 16), dtype="<f4")
    m[3, 5] = bad
    path = tmp_path / "bad.vfm"
    path.write_bytes(MAGIC + struct.pack("<II", 8, 16) + m.tobytes())
    code, out, err = run_cli("caption", "--checkpoint", str(ws["ckpt"]),
                             "--tokenizer", str(ws["tok"]), "--features", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {path}: non-finite feature entries"]


def test_caption_zero_row_features_exit_1(ws, tmp_path):
    # a 0-row .vfm reads, then fails the checkpoint's shape without a traceback
    path = tmp_path / "empty.vfm"
    write_feature_file(str(path), np.zeros((0, 16), dtype=np.float32))
    code, out, err = run_cli("caption", "--checkpoint", str(ws["ckpt"]),
                             "--tokenizer", str(ws["tok"]), "--features", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: features have shape (0, 16), "
                                "checkpoint expects (8, 16)"]


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
    assert "trailing bytes after tensor 'head.b'" in err


# quick-start header (8/16/32/10/40), then one encoder.W record whose dims
# once escaped numpy as ValueError: rank 65 with 65 zero dims, and a
# rank-4 shape of 0 x (2**32 - 1)**3 elements
_BAD_DIMS = {"rank65": [0] * 65, "huge": [0] + [2**32 - 1] * 3}


@pytest.mark.parametrize("kind", sorted(_BAD_DIMS))
def test_caption_bad_record_dims_exit_2(ws, tmp_path, kind):
    dims = _BAD_DIMS[kind]
    path = tmp_path / f"{kind}.sq2s"
    path.write_bytes(b"SQ2S" + struct.pack("<6I", 1, 8, 16, 32, 10, 40)
                     + struct.pack("<H", 9) + b"encoder.W"
                     + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
    code, out, err = run_cli("caption", "--checkpoint", str(path),
                             "--tokenizer", str(ws["tok"]),
                             "--features", str(ws["data"] / "feat" / "vid001.vfm"))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "tensor 'encoder.W' is missing or truncated" in err


def test_caption_huge_max_words_checkpoint_exits_2(ws, tmp_path):
    # a subprocess with a timeout: an uncapped max_words decodes for hours
    path = tmp_path / "huge.sq2s"
    blob = bytearray(ws["ckpt"].read_bytes())
    struct.pack_into("<I", blob, 20, 2**32 - 1)  # header max_words
    path.write_bytes(bytes(blob))
    proc = subprocess.run(
        [sys.executable, "-m", "vidcap", "caption", "--checkpoint", str(path),
         "--tokenizer", str(ws["tok"]),
         "--features", str(ws["data"] / "feat" / "vid001.vfm")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {path}: max_words must be at most 1024, got {2**32 - 1}"]


def test_train_max_words_above_cap_exits_2(ws):
    code, out, err = run_cli("train", *ws["base"], *MODEL_ARGS, "--epochs", "1",
                             "--max-words", "1025")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: max_words must be at most 1024, got 1025"]


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


def test_eval_report_quotes_odd_video_ids(tmp_path):
    # a video id with a comma and a quote still reads back as one column
    data, run = tmp_path / "data", tmp_path / "run"
    assert run_cli("make-fixture", "--out", str(data))[0] == 0
    odd = 'vid,"001'
    for name in ("descriptions.txt", "manifest.tsv"):
        f = data / name
        f.write_text(f.read_text(encoding="utf-8").replace("vid001\t", odd + "\t"),
                     encoding="utf-8")
    base = ["--descriptions", str(data / "descriptions.txt"),
            "--manifest", str(data / "manifest.tsv"), "--out", str(run)]
    assert run_cli("prepare", *base, "--vocab", "40")[0] == 0
    code, _, err = run_cli("train", *base, *MODEL_ARGS, "--epochs", "1")
    assert code == 0, err
    split = next(s for s in ("train", "val", "test")
                 if odd in (run / f"{s}.keys").read_text(encoding="utf-8").splitlines())
    code, _, err = run_cli("eval", "--checkpoint", str(run / "ckpt-1.sq2s"), *base,
                           "--split", split)
    assert code == 0, err
    with open(run / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert odd in [r["video_id"] for r in rows]
    assert all(r["split"] == split and None not in r and float(r["bleu2"]) >= 0
               for r in rows)


def test_eval_starts_no_threads_and_ignores_threads(ws, tmp_path, monkeypatch):
    def refuse(self):
        raise RuntimeError(f"eval started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / threads
        shutil.copytree(ws["run"], out)
        code, _, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]),
                               "--descriptions", str(ws["data"] / "descriptions.txt"),
                               "--manifest", str(ws["data"] / "manifest.tsv"),
                               "--out", str(out), "--split", "train",
                               "--threads", threads)
        assert code == 0, err
        outputs[threads] = [(out / f).read_bytes()
                            for f in ("report.csv", "summary.csv", "histogram.csv")]
    assert outputs["4"] == outputs["1"]


def test_no_module_imports_threads():
    # the package runs on one thread; more cores come from OpenBLAS
    for path in sorted((SRC / "vidcap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("threading", "concurrent"), \
                    f"{path.name} imports {name}"


def test_eval_unknown_split_exits_2(ws):
    code, _, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]), *ws["base"],
                           "--split", "dev")
    assert code == 2
    assert "unknown split" in err


@pytest.mark.parametrize("missing", ["descriptions", "manifest"])
def test_eval_checks_split_keys_before_decoding(ws, tmp_path, monkeypatch, missing):
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(ws["data"], data)
    run.mkdir()
    for name in ("train.keys", "val.keys", "test.keys", "tokenizer.txt"):
        shutil.copy(ws["run"] / name, run / name)
    key = (run / "train.keys").read_text(encoding="utf-8").split()[2]
    path = data / ("descriptions.txt" if missing == "descriptions" else "manifest.tsv")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith(key + "\t")),
                    encoding="utf-8")
    steps, decode_step = [], mdl.decode_step
    monkeypatch.setattr(mdl, "decode_step", lambda *a: steps.append(1) or decode_step(*a))
    code, out, err = run_cli("eval", "--checkpoint", str(ws["ckpt"]),
                             "--descriptions", str(data / "descriptions.txt"),
                             "--manifest", str(data / "manifest.tsv"),
                             "--out", str(run), "--split", "train")
    assert code == 2
    assert out == ""
    want = "no descriptions" if missing == "descriptions" else "no feature manifest entry"
    assert err.splitlines() == [f"error: video '{key}' has {want}"]
    assert steps == []
    assert not any((run / name).exists()
                   for name in ("report.csv", "summary.csv", "histogram.csv"))


def traced_eval_peak(tmp_path, n_videos):
    """tracemalloc peak of one in-process `eval --split train` above what
    was live before it, on 16 x 2048 features with an untrained model."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert run_cli("make-fixture", "--out", str(data), "--n-videos", str(n_videos),
                   "--frames", "16", "--feature-dim", "2048")[0] == 0
    base = ["--descriptions", str(data / "descriptions.txt"),
            "--manifest", str(data / "manifest.tsv"), "--out", str(run)]
    assert run_cli("prepare", *base, "--vocab", "40")[0] == 0
    cfg = ModelConfig(frames=16, feature_dim=2048, latent=8, max_words=10, vocab=40)
    save_checkpoint(str(run / "init.sq2s"), cfg, ModelParams.init(cfg, seed=3))
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        code, _, err = run_cli("eval", "--checkpoint", str(run / "init.sq2s"),
                               *base, "--split", "train")
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert code == 0, err
    return peak


def test_eval_peak_memory_does_not_grow_with_the_split(tmp_path):
    # 5 against 27 train-split videos; a 16 x 2048 feature matrix is
    # 128 KB, so keeping every decoded video's matrix would add ~2.8 MB
    small = traced_eval_peak(tmp_path / "a", n_videos=6)
    large = traced_eval_peak(tmp_path / "b", n_videos=30)
    assert large <= small + 256 * 1024, (small, large)


def _overflowing_checkpoint(ws, path):
    """Finite weights whose head logits overflow at every decode step of
    every video: the encoder is zero, saturated decoder gates give
    h = tanh(1) in every unit, and each logit sums 8 x tanh(1) x 3e38."""
    cfg, params, _ = load_checkpoint(str(ws["ckpt"]))
    for tensor in params.tensors().values():
        tensor[...] = 0
    params.decoder.b[:] = 100
    params.head.W[:] = 3e38
    save_checkpoint(str(path), cfg, params)


@pytest.mark.parametrize("command", ["caption", "eval-threads-1", "eval-threads-2"])
def test_decode_divergence_prints_only_the_error_line(ws, tmp_path, command):
    ckpt, run = tmp_path / "overflow.sq2s", tmp_path / "run"
    _overflowing_checkpoint(ws, ckpt)
    run.mkdir()
    for name in ("train.keys", "val.keys", "test.keys", "tokenizer.txt"):
        shutil.copy(ws["run"] / name, run / name)
    manifest = str(ws["data"] / "manifest.tsv")
    if command == "caption":
        args = ["caption", "--tokenizer", str(run / "tokenizer.txt"),
                "--manifest", manifest, "--video-id", "vid003"]
    else:
        args = ["eval", "--descriptions", str(ws["data"] / "descriptions.txt"),
                "--manifest", manifest, "--out", str(run), "--split", "train",
                "--threads", command[-1]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "vidcap", *args, "--checkpoint", str(ckpt)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: decode step 1: non-finite probabilities"]
    assert not (run / "report.csv").exists()


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
