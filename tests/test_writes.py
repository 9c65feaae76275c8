"""Every artifact is written whole or not at all (util.write_atomic)."""

import ast
import builtins
import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from vidcap import evaluation
from vidcap.cli import main
from vidcap.corpus import SplitAssignment, save_split
from vidcap.features import write_feature_file
from vidcap.fixture import make_fixture
from vidcap.model import ModelConfig, ModelParams, save_checkpoint
from vidcap.tokenizer import Tokenizer
from vidcap.training import EpochMetrics, MetricsHistory

SRC = Path(__file__).resolve().parent.parent / "src"
CFG = ModelConfig(frames=3, feature_dim=2, latent=4, max_words=4, vocab=9)


class FailingFile:
    """A file object that raises OSError("disk full") at its second write
    (point "write") or when it is closed, after closing the real file
    (point "close": the final flush)."""

    def __init__(self, fh, point):
        self.fh, self.point, self.writes = fh, point, 0

    def write(self, data):
        if self.point == "write" and self.writes:
            raise OSError("disk full")
        self.writes += 1
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def close(self):
        self.fh.close()
        if self.point == "close":
            raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def fail_writes_to(monkeypatch, target, point):
    """Every file opened for writing whose name starts with target's
    (target itself or a temporary file next to it) fails at point."""
    real_open = builtins.open

    def opener(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.fspath(file).startswith(os.fspath(target)):
            return FailingFile(fh, point)
        return fh

    monkeypatch.setattr(builtins, "open", opener)


def run_cli(*args):
    """main(args) with its output captured; a failure raises OSError
    carrying its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(args))
    if code:
        raise OSError(f"exit {code}: {err.getvalue()}")


def _report(version):
    row = evaluation.EvalRow("train", "vid000", 0.25 * version, ["a", "dog"])
    return evaluation.EvalReport([row, row], "train")


def _prepare(out, version):
    data = out / "data"
    if not data.exists():
        make_fixture(data)
    run_cli("prepare", "--descriptions", str(data / "descriptions.txt"),
            "--manifest", str(data / "manifest.tsv"), "--out", str(out),
            "--vocab", str(30 + version))


def _tokenizer(out, version):
    tok = Tokenizer(10)
    tok.fit([["a", "dog", "runs"][:version + 1]])
    tok.save(out / "tokenizer.txt")


# Each writer writes its file(s) into a directory; version 1 and 2 write
# different bytes to every target.
WRITERS = {
    "save_checkpoint": lambda out, v: save_checkpoint(
        out / "model.sq2s", CFG, ModelParams.init(CFG, seed=v)),
    "write_feature_file": lambda out, v: write_feature_file(
        out / "v.vfm", np.full((3, 2), v, dtype=np.float32)),
    "Tokenizer.save": _tokenizer,
    "save_split": lambda out, v: save_split(SplitAssignment(
        [f"t{v}", "t"], [f"v{v}", "v"], [f"s{v}", "s"]), out),
    "MetricsHistory.to_csv": lambda out, v: MetricsHistory(
        [EpochMetrics(1, v, 0.5, v, 0.5)]).to_csv(out / "metrics.csv"),
    "write_report_csv": lambda out, v: evaluation.write_report_csv(
        out / "report.csv", _report(v)),
    "write_summary_csv": lambda out, v: evaluation.write_summary_csv(
        out / "summary.csv", _report(v)),
    "write_histogram_csv": lambda out, v: evaluation.write_histogram_csv(
        out / "histogram.csv", _report(v)),
    "cmd_prepare": _prepare,
    "make_fixture": lambda out, v: make_fixture(out, n_videos=3 + v, seed=v),
}
CASES = [("save_checkpoint", "model.sq2s"), ("write_feature_file", "v.vfm"),
         ("Tokenizer.save", "tokenizer.txt"), ("save_split", "train.keys"),
         ("save_split", "val.keys"), ("save_split", "test.keys"),
         ("MetricsHistory.to_csv", "metrics.csv"),
         ("write_report_csv", "report.csv"), ("write_summary_csv", "summary.csv"),
         ("write_histogram_csv", "histogram.csv"), ("cmd_prepare", "summary.txt"),
         ("make_fixture", "manifest.tsv"), ("make_fixture", "descriptions.txt")]


def files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("previous", [True, False], ids=["over-old", "new"])
@pytest.mark.parametrize("point", ["write", "close"])
@pytest.mark.parametrize("writer, target", CASES, ids=[t for _, t in CASES])
def test_failed_write_leaves_previous_file_and_no_tmp(tmp_path, monkeypatch, writer,
                                                      target, point, previous):
    write = WRITERS[writer]
    (tmp_path / "new").mkdir()
    for version in (1, 2):  # a new file, then a successful write over it
        write(tmp_path / "new", version)
    new = files(tmp_path / "new")
    assert not [name for name in new if name.endswith(".tmp")]
    out = tmp_path / "out"
    out.mkdir()
    if previous:
        write(out, 1)
    before = files(out)
    assert before.get(target) != new[target]
    with monkeypatch.context() as m:
        fail_writes_to(m, out / target, point)
        with pytest.raises(OSError, match="disk full"):
            write(out, 2)
    after = files(out)
    assert after.get(target) == before.get(target)
    # every other file is whole: its old bytes or its new ones
    for name, data in after.items():
        assert data in (before.get(name), new.get(name)), name
    assert not [name for name in after if name.endswith(".tmp")]


def test_prepare_failing_mid_tokenizer_keeps_the_previous_run(tmp_path, monkeypatch):
    # a tokenizer.txt cut after some lines once trained without a message
    data, run = tmp_path / "data", tmp_path / "run"
    make_fixture(data)
    inputs = ["--descriptions", str(data / "descriptions.txt"),
              "--manifest", str(data / "manifest.tsv")]
    run_cli("prepare", *inputs, "--out", str(run), "--vocab", "40", "--seed", "42")
    run_cli("train", *inputs, "--out", str(run), "--frames", "8", "--feature-dim", "16",
            "--latent", "8", "--vocab", "40", "--epochs", "2", "--batch-size", "6")
    run_cli("prepare", *inputs, "--out", str(tmp_path / "seed7"), "--vocab", "40",
            "--seed", "7")
    before = (run / "tokenizer.txt").read_bytes()
    assert (tmp_path / "seed7" / "tokenizer.txt").read_bytes() != before
    with monkeypatch.context() as m, pytest.raises(OSError) as failure:
        fail_writes_to(m, run / "tokenizer.txt", "write")
        run_cli("prepare", *inputs, "--out", str(run), "--vocab", "40", "--seed", "7")
    assert str(failure.value) == "exit 1: error: disk full\n"
    assert (run / "tokenizer.txt").read_bytes() == before
    assert not list(run.glob("*.tmp"))


def test_only_write_atomic_opens_files_for_writing():
    # a new writer must go through util.write_atomic, so that a failed or
    # killed write never leaves a cut artifact at its final path
    writers = []
    for path in sorted((SRC / "vidcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):  # outer functions first: inner ones win
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[1] if len(node.args) > 1 else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
                writers.append(f"{path.name}:{owner.get(id(node))}")
    assert writers == ["util.py:write_atomic"]


def test_only_util_writes_text_through_write_atomic():
    # a line file goes through util.write_lines, which owns the line end;
    # elsewhere write_atomic is for the binary formats only
    text_writers = []
    for path in sorted((SRC / "vidcap").glob("*.py")):
        if path.name == "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and "write_atomic" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                continue
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[1] if len(node.args) > 1 else None)
            if not (isinstance(mode, ast.Constant) and mode.value == "wb"):
                text_writers.append(f"{path.name}:{node.lineno}")
    assert text_writers == []
