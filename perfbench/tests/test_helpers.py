"""Tests for the benchmark's own helpers: python3 -m pytest perfbench/tests"""

import math
import sys
import types

import pytest

import layers
import worker
from spans import Tracer
from stats import Tally, percentile, self_times, tail_percentile
from workloads import WORKLOADS


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - math.ceil(n * expected / 100) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([7.0], 90) == 7.0


def test_self_time_subtracts_direct_children_once():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),      # child holding a grandchild
        (2.0, 3.0, 1),      # grandchild: counted in its parent, not the root
        (5.0, 6.0, 0),
        (5.5, 7.0, 0),      # overlaps the previous child
        (9.0, 12.0, 0),     # runs past the root's end: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2 - 1, 2, 1, 1, 1.5, 3])


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.check(True, "unused")
    assert not tally.check(False, "second run differs")
    assert (tally.attempted, tally.failed, tally.messages) == (2, 1, ["second run differs"])
    assert tally.as_dict() == {"attempted": 2, "failed": 1,
                               "messages": ["second run differs"]}


def _write_run(tmp_path, name, loss, ckpt):
    out = tmp_path / name
    out.mkdir()
    (out / "metrics.csv").write_text(
        f"epoch,train_loss,train_acc,val_loss,val_acc\n1,{loss},0.5,7.3,0\n")
    (out / "ckpt-1.sq2s").write_bytes(ckpt)
    return str(out)


def test_training_checks_flag_reruns_that_differ_and_nan_losses(tmp_path):
    workload = WORKLOADS["train_full"]
    ok = {"codes": [0, 0]}
    state, tally = {}, Tally()
    for name, loss, ckpt in (("a", "7.2", b"x"), ("b", "7.2", b"x"),
                             ("c", "7.2", b"y"), ("d", "nan", b"x")):
        out = _write_run(tmp_path, name, loss, ckpt)
        tally.check(not worker.check_training(workload, out, ok, state), name)
    tally.check(not worker.check_training(workload, out, {"codes": [0, 1]}, state), "rc")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.messages == ["c", "d", "rc"]
    assert state["loss_final"] == 7.2


def test_eval_checks_flag_missing_rows_and_bad_captions(tmp_path):
    workload = WORKLOADS["eval_full"]
    (tmp_path / "report.csv").write_text(
        'split,video_id,bleu2,prediction\n'
        'train,v1,0,"a man plays"\n'
        'train,v2,0,"a bos man"\n'
        'train,v3,0,"' + " ".join(["dog"] * 11) + '"\n')
    problems = worker.check_eval(workload, str(tmp_path), {"codes": [0, 0]},
                                 ["v1", "v2", "v3", "v4"], {})
    assert len(problems) == 3
    assert worker.check_eval(workload, str(tmp_path), {"codes": [0, 0]},
                             ["v1", "v2", "v3"], {})[0].startswith("caption")


def test_greedy_choices_follow_fed_tokens_and_last_step():
    words = ["bos", "eos", "a", "dog", "runs"]
    tok = types.SimpleNamespace(word_to_index={w: i + 1 for i, w in enumerate(words)},
                                index_to_word={i + 1: w for i, w in enumerate(words)})
    # stopped early: the last step chose eos
    assert worker.greedy_choices([1, 3, 4], ["a", "dog"], tok, 10) == [{3}, {4}, {2}]
    # max_words steps with a word emitted at the last step
    assert worker.greedy_choices([1, 3], ["a", "dog"], tok, 2) == [{3}, {4}]
    # max_words steps ending on eos or a degenerate bos; a bos fed mid-caption
    assert worker.greedy_choices([1, 1, 3], ["a"], tok, 3) == [{1}, {3}, {2, 1}]
    # words that the fed tokens cannot produce
    assert worker.greedy_choices([1, 3], ["dog"], tok, 10) is None
    assert worker.greedy_choices([1], ["a", "dog"], tok, 10) is None


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    nn = types.ModuleType("fakepkg.nn")
    exec("def kernel(p, x):\n    return helper(x) + 1\n"
         "def helper(x):\n    return x * 2\n"
         "class Store:\n    def get(self, key):\n        return len(key)\n", vars(nn))
    for obj in (nn.kernel, nn.helper, nn.Store):
        obj.__module__ = "fakepkg.nn"
    pkg.nn = nn
    pkg.kernel = nn.kernel  # a `from .nn import kernel` copy
    sys.modules.update({"fakepkg": pkg, "fakepkg.nn": nn})
    yield pkg
    del sys.modules["fakepkg"], sys.modules["fakepkg.nn"]


def test_tracer_records_nested_spans_items_and_restores(fake_package):
    nn = fake_package.nn
    original = nn.kernel
    tracer = Tracer(label={"nn.kernel": lambda args: f"p{args[0]}"},
                    measure={"nn.helper": lambda a, k, r: r},
                    item={"nn.Store.get": lambda args: args[1]})
    names = tracer.install([nn])
    assert names == ["nn.Store.get", "nn.helper", "nn.kernel"]
    assert fake_package.kernel is nn.kernel is not original
    nn.Store().get("vid7")
    assert fake_package.kernel(1, 5) == 11
    tracer.uninstall()
    assert fake_package.kernel is nn.kernel is original
    got = [(name, parent, item, value) for name, _, _, parent, item, value in tracer.spans]
    assert got == [("nn.Store.get", None, "vid7#1", None),
                   ("nn.kernel[p1]", None, "vid7#1", None),
                   ("nn.helper", 1, "vid7#1", 10)]


def test_layer_metrics_from_spans_and_absent_functions():
    run = [
        ["training.train", 0.0, 1.0, None, None, None],
        ["nn.lstm_forward[enc]", 0.1, 0.3, 0, "v#1", None],
        ["nn.lstm_forward[dec]", 0.3, 0.35, 0, "v#1", None],
        ["nn.adam_step", 0.4, 0.5, 0, "v#1", None],
    ]
    traced = ["training.train", "nn.lstm_forward", "nn.adam_step", "model.save_checkpoint"]
    metrics = layers.compute([run, run], traced)
    assert metrics["nn.enc_forward_ms"][0] == pytest.approx(200.0)
    assert metrics["nn.dec_forward_ms"][0] == pytest.approx(50.0)
    assert metrics["model.save_checkpoint_ms"][0] == 0.0  # wrapped, never called
    assert metrics["nn.adam_calls"][0] == 1
    assert metrics["training.train_self_ms"][0] == pytest.approx(650.0)
    assert "nn.enc_backward_ms" not in metrics  # lstm_backward was not wrapped
    assert "features.hit_ratio" not in metrics
