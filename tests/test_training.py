"""Training loop tests: sample layout, batching, determinism, divergence."""

import os
import tracemalloc

import numpy as np
import pytest

from vidcap import features, training
from vidcap import model as mdl
from vidcap import nn
from vidcap.corpus import DescriptionCorpus, build_corpus, parse_descriptions
from vidcap.features import FeatureStore
from vidcap.fixture import make_fixture
from vidcap.model import ModelConfig, ModelParams, _params_from_tensors
from vidcap.tokenizer import Tokenizer
from vidcap.training import (EpochMetrics, MetricsHistory, TrainConfig,
                             TrainingDiverged, accuracy, build_samples,
                             evaluate_samples, make_batches, train)
from vidcap.util import InputError, fisher_yates

from memtrace import traced
import oracles

MCFG = ModelConfig(frames=8, feature_dim=16, latent=8, max_words=10, vocab=40)
# float32 tolerance between a batch and the same samples one at a time:
# a batched h @ U row differs from a mat-vec by up to 5e-7
BATCH_TOL = 5e-7


def pipeline(tmp_path, n_videos=6):
    paths = make_fixture(str(tmp_path), n_videos=n_videos, seed=1)
    corp = build_corpus(parse_descriptions(paths["descriptions"]))
    keys = sorted(corp.entries)
    tok = Tokenizer(cap=40).fit(c for k in keys for c in corp.entries[k])
    store = FeatureStore(paths["manifest"])
    return corp, tok, store, keys


def run_training(tmp_path, lr=1e-3, epochs=3, seed=11, out_dir=None,
                 checkpoint_every=0):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=seed)
    tcfg = TrainConfig(batch_size=4, epochs=epochs, lr=lr, seed=seed,
                       checkpoint_every=checkpoint_every)
    return train(params, tcfg, MCFG, keys[:5], keys[5:], corp, tok, store,
                 out_dir=out_dir)


def tensor_bytes(params):
    return {k: v.tobytes() for k, v in params.tensors().items()}


def count_reads_and_encoder_rows(monkeypatch, store):
    """Record the key of every store.get and the row count of every
    encoder recurrence (the MCFG LSTM that reads feature_dim inputs)."""
    gets, rows = [], []
    get, lstm_forward = store.get, nn.lstm_forward

    def counting(p, XW, *args):
        if p.input_dim == MCFG.feature_dim:
            rows.append(XW.shape[1])  # XW is time-major (T x rows x 4 latent)
        return lstm_forward(p, XW, *args)

    monkeypatch.setattr(store, "get", lambda key: gets.append(key) or get(key))
    monkeypatch.setattr(nn, "lstm_forward", counting)
    return gets, rows


# ---------------------------------------------------------------------------
# Sample construction
# ---------------------------------------------------------------------------

def nine_token_setup():
    caption = ["bos", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "eos"]
    corp = DescriptionCorpus({"v": [list(caption)]})
    tok = Tokenizer(cap=12).fit([caption])  # indices follow caption order: 1..9
    return corp, tok


def test_build_samples_shift_by_one_layout():
    corp, tok = nine_token_setup()
    keys, video, dec_in, target = build_samples(["v"], corp, tok, max_words=10)
    assert keys == ["v"] and video.tolist() == [0]
    assert dec_in.shape == target.shape == (1, 10)
    dec, tgt = dec_in[0], target[0]
    assert np.count_nonzero(dec) == 8 and np.count_nonzero(tgt) == 8
    for r in range(8):
        assert dec[r] == r + 1       # token r
        assert tgt[r] == r + 2       # token r+1
    assert not dec[8:].any() and not tgt[8:].any()              # padding steps


def test_build_samples_skips_captions_below_two_indices():
    tok = Tokenizer(cap=8).fit([["bos", "a", "b", "eos"]])
    corp = DescriptionCorpus({"v": [
        ["u1", "u2", "u3", "u4", "u5", "u6"],      # fully out of vocabulary
        ["bos", "u1", "u2", "u3", "u4", "u5"],     # one index survives
        ["bos", "a", "u1", "u2", "u3", "eos"],     # three survive: kept
    ]})
    _, video, dec_in, _ = build_samples(["v"], corp, tok, max_words=10)
    assert len(video) == len(dec_in) == 1
    assert np.count_nonzero(dec_in[0]) == 2


def test_build_samples_follows_key_order():
    corp, tok = nine_token_setup()
    corp.entries["w"] = [list(corp.entries["v"][0])] * 2
    keys, video, _, _ = build_samples(["w", "v"], corp, tok, 10)
    assert [keys[v] for v in video] == ["w", "w", "v"]
    assert (np.diff(video) >= 0).all()  # evaluate_samples' passes rely on it


def test_build_samples_keeps_at_most_256_bytes_per_sample():
    # the table holds 8 B of video index and 2 x 10 x 8 B of word indices
    # per sample (168 B); a list of per-sample objects, each holding its
    # own two vectors, measured 490 B here, and collecting per-row vectors
    # in lists before copying them into the table peaked at 610 B
    words = [f"w{i}" for i in range(20)]
    entries = {f"v{i:03d}": [["bos"] + words[j:j + 6] + ["eos"] for j in range(8)]
               for i in range(250)}
    corp, keys = DescriptionCorpus(entries), list(entries)
    tok = Tokenizer(cap=40).fit(c for caps in entries.values() for c in caps)
    n = 250 * 8
    table, kept, peak = traced(build_samples, keys, corp, tok, 10)
    assert len(table[1]) == n
    assert kept <= 256 * n, kept / n
    assert peak <= 256 * n, peak / n


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

def test_make_batches_sizes_and_coverage():
    batches = list(make_batches(7, 3, seed=0, epoch=1))
    assert [len(b) for b in batches] == [3, 3, 1]
    assert sorted(np.concatenate(batches).tolist()) == list(range(7))
    # the Fisher-Yates stream seeded by (seed, epoch), so orders stay bitwise
    want = fisher_yates(list(range(7)), np.random.default_rng([0, 1]))
    assert np.concatenate(batches).tolist() == want


def test_epoch_order_is_a_deterministic_permutation():
    def order(seed, epoch):
        return np.concatenate(list(make_batches(20, 6, seed, epoch))).tolist()

    a = order(42, 1)
    assert a == order(42, 1)
    assert sorted(a) == list(range(20))
    assert a != order(42, 2)
    assert a != order(43, 1)


# ---------------------------------------------------------------------------
# Accuracy
# ---------------------------------------------------------------------------

def random_instance(seed, rows=6, cols=5, pad_rows=2):
    """Row-normalized P and a target index vector (1-based, 0 = padding)."""
    rng = np.random.default_rng(seed)
    P = rng.random((rows, cols))
    P /= P.sum(axis=1, keepdims=True)
    Y = np.zeros(rows, dtype=int)
    for r in range(rows - pad_rows):
        Y[r] = rng.integers(cols) + 1
    return P, Y


@pytest.mark.parametrize("padded", [True, False])
def test_accuracy_matches_scalar_oracle(padded):
    for seed in range(30):
        P, Y = random_instance(seed, pad_rows=2 if padded else 0)
        assert accuracy(P, Y) == pytest.approx(
            oracles.accuracy_scalar(P, oracles.one_hot_rows(Y, 5)), abs=1e-12)


@pytest.mark.parametrize("padded", [True, False])
def test_accuracy_of_a_batch_is_the_mean_over_sequences(padded):
    parts = [random_instance(seed, pad_rows=seed % 4 if padded else 0) for seed in range(4)]
    P = np.stack([p for p, _ in parts], axis=1)  # time-major T x B x V
    Y = np.stack([y for _, y in parts], axis=1)
    want = sum(accuracy(p, y) for p, y in parts) / len(parts)
    assert accuracy(P, Y) == pytest.approx(want, abs=1e-12)


def test_accuracy_ties_go_to_lowest_index():
    P = np.full((1, 4), 0.25)
    assert accuracy(P, np.array([1])) == 1.0   # hit: column 0
    assert accuracy(P, np.array([3])) == 0.0   # miss: column 2


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_parameters_untouched(tmp_path):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=11)
    before = tensor_bytes(params)
    tcfg = TrainConfig(batch_size=4, epochs=2, lr=0.0, seed=11)
    params, history = train(params, tcfg, MCFG, keys[:5], keys[5:],
                            corp, tok, store)
    assert tensor_bytes(params) == before
    assert len(history.rows) == 2


def test_training_reduces_loss(tmp_path):
    params, history = run_training(tmp_path, epochs=5)
    assert history.rows[-1].train_loss < history.rows[0].train_loss
    assert [r.epoch for r in history.rows] == [1, 2, 3, 4, 5]


def test_reruns_are_bitwise_identical(tmp_path):
    p1, h1 = run_training(tmp_path / "a")
    p2, h2 = run_training(tmp_path / "b")
    assert tensor_bytes(p1) == tensor_bytes(p2)
    assert h1.rows == h2.rows


def test_evaluation_does_not_mutate_parameters(tmp_path):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=3)
    before = tensor_bytes(params)
    samples = build_samples(keys, corp, tok, MCFG.max_words)
    loss, acc = evaluate_samples(params, store, samples)
    assert tensor_bytes(params) == before
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0


def test_evaluate_samples_empty_table():
    corp, tok = nine_token_setup()
    empty = build_samples([], corp, tok, 10)
    keys, video, dec_in, target = empty
    assert keys == [] and video.shape == (0,) and dec_in.shape == target.shape == (0, 10)
    assert evaluate_samples(None, None, empty) == (0.0, 0.0)


def per_sample_means(params, store, samples):
    """evaluate_samples' (loss, accuracy), one training_forward per row."""
    keys, video, dec_in, target = samples
    losses, accs = [], []
    for v, dec, tgt in zip(video, dec_in, target):
        P, _ = mdl.training_forward(params, store.get(keys[v]), dec)
        losses.append(nn.cross_entropy(P, tgt)[0])
        accs.append(accuracy(P, tgt))
    return sum(losses) / len(video), sum(accs) / len(video)


@pytest.mark.parametrize("mixed_lengths", [True, False])
def test_evaluate_samples_equals_per_sample_forward(tmp_path, mixed_lengths):
    corp, tok, store, keys = pipeline(tmp_path)
    if mixed_lengths:  # every video gets every fixture caption, 4 to 8 words
        corp = DescriptionCorpus({key: [corp.entries[k][0] for k in keys] for key in keys})
    params = ModelParams.init(MCFG, seed=4)
    samples = build_samples(keys, corp, tok, MCFG.max_words)
    _, video, _, target = samples
    lengths = np.count_nonzero(target[video == 0], axis=1)
    assert len(lengths) > 1 and (len(set(lengths.tolist())) > 1) == mixed_lengths
    expected = per_sample_means(params, store, samples)
    got = evaluate_samples(params, store, samples)
    assert got == pytest.approx(expected, rel=0, abs=BATCH_TOL)


def test_evaluate_samples_encodes_each_video_once(tmp_path, monkeypatch):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=4)
    samples = build_samples(keys[:4], corp, tok, MCFG.max_words)
    gets, encoded = count_reads_and_encoder_rows(monkeypatch, store)
    evaluate_samples(params, store, samples)
    _, video, _, _ = samples
    assert len(video) > 4
    # one pass: one read and one encoder row per video
    assert gets == keys[:4] and encoded == [4]


def test_evaluate_samples_over_several_passes(tmp_path, monkeypatch):
    # 35 videos are passes of 16, 16 and 3 (training.EVAL_CHUNK is 16)
    corp, tok, store, keys = pipeline(tmp_path, n_videos=35)
    params = ModelParams.init(MCFG, seed=7)
    samples = build_samples(keys, corp, tok, MCFG.max_words)
    expected = per_sample_means(params, store, samples)
    gets, encoded = count_reads_and_encoder_rows(monkeypatch, store)
    got = evaluate_samples(params, store, samples)
    assert got == pytest.approx(expected, rel=0, abs=BATCH_TOL)
    assert len(samples[1]) > 35 and training.EVAL_CHUNK == 16
    assert gets == keys and encoded == [16, 16, 3]


def test_evaluate_samples_holds_one_pass_at_a_time(tmp_path):
    # 16 x 2048 features (128 KB a video), so a pass of 16 videos holds
    # 2 MB of frames; a second pass alive with the first would add ~2 MB
    paths = make_fixture(str(tmp_path), n_videos=48, seed=1, frames=16, feature_dim=2048)
    corp = build_corpus(parse_descriptions(paths["descriptions"]))
    keys = sorted(corp.entries)
    tok = Tokenizer(cap=40).fit(c for k in keys for c in corp.entries[k])
    store = FeatureStore(paths["manifest"])
    mcfg = ModelConfig(frames=16, feature_dim=2048, latent=8, max_words=10, vocab=40)
    params = ModelParams.init(mcfg, seed=5)
    one, three = (traced(evaluate_samples, params, store,
                         build_samples(keys[:n], corp, tok, mcfg.max_words))[2]
                  for n in (16, 48))
    assert three <= one + 64 * 1024, (one, three)


def test_non_finite_loss_mid_batch_skips_the_adam_step(tmp_path, monkeypatch):
    # a batch is one training_backward call: poison the second batch's loss
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=8)
    calls, stepped = [], []
    backward, adam_step = mdl.training_backward, nn.adam_step

    def poisoned(*args, **kwargs):
        loss, grads = backward(*args, **kwargs)
        calls.append(loss)
        return (float("nan") if len(calls) == 2 else loss), grads

    def step(*args):
        adam_step(*args)
        stepped.append(tensor_bytes(params))

    monkeypatch.setattr(mdl, "training_backward", poisoned)
    monkeypatch.setattr(nn, "adam_step", step)
    tcfg = TrainConfig(batch_size=3, epochs=1, lr=1e-3, seed=8)
    with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 1"):
        train(params, tcfg, MCFG, keys[:5], keys[5:], corp, tok, store)
    # the first batch stepped; the second raised before its step
    assert len(calls) == 2 and len(stepped) == 1
    assert tensor_bytes(params) == stepped[0]


def test_training_equals_batch_list_reference(tmp_path):
    """train() against the per-sample loop it replaced: each sample's
    own forward and backward, gradients summed in sample order and
    divided, then the allocating Adam step.  Bitwise at batch size 1;
    at 4, where captions of one video share an encoder row, parameters
    and train losses within BATCH_TOL."""
    corp, tok, store, keys = pipeline(tmp_path)
    samples = build_samples(keys[:5], corp, tok, MCFG.max_words)
    n = len(samples[1])
    shared = []
    for batch_size in (1, 4):
        params = ModelParams.init(MCFG, seed=6)
        ref = ModelParams.init(MCFG, seed=6)
        tcfg = TrainConfig(batch_size=batch_size, epochs=3, lr=1e-3, seed=6)
        _, history = train(params, tcfg, MCFG, keys[:5], keys[5:], corp, tok, store)
        state, tensors = oracles.AdamReferenceState(lr=tcfg.lr), ref.tensors()
        for epoch, row in enumerate(history.rows, start=1):
            losses = []
            for rows in make_batches(n, tcfg.batch_size, tcfg.seed, epoch):
                shared.append(len(np.unique(samples[1][rows])) < len(rows))
                batch_losses, grads = oracles.batch_gradients_per_sample(
                    ref, store.get, samples, rows)
                losses += batch_losses
                oracles.adam_step_reference(state, tensors, grads)
            want = sum(losses) / len(losses)
            if batch_size == 1:
                assert row.train_loss == want
            else:
                assert abs(row.train_loss - want) <= BATCH_TOL
        if batch_size == 1:
            assert tensor_bytes(params) == tensor_bytes(ref)
        else:
            for name, t in params.tensors().items():
                assert np.max(np.abs(t - tensors[name])) <= BATCH_TOL, name
    assert any(shared)  # some batch of 4 holds two captions of one video


def test_train_runs_one_forward_and_backward_per_batch(tmp_path, monkeypatch):
    corp, tok, store, keys = pipeline(tmp_path)
    calls = {"forward": 0, "backward": 0}
    forward, backward = mdl.training_forward, mdl.training_backward

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mdl, "training_forward", counted("forward", forward))
    monkeypatch.setattr(mdl, "training_backward", counted("backward", backward))
    n = len(build_samples(keys[:5], corp, tok, MCFG.max_words)[1])
    tcfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=2)
    train(ModelParams.init(MCFG, seed=2), tcfg, MCFG, keys[:5], [], corp, tok, store)
    batches = -(-n // 4)
    assert n == 15 and calls == {"forward": 2 * batches, "backward": 2 * batches}


def test_every_batch_writes_the_runs_one_gradient_buffer(tmp_path, monkeypatch):
    corp, tok, store, keys = pipeline(tmp_path)
    seen, backward = [], mdl.training_backward

    def kept(*args):
        loss, grads = backward(*args)
        seen.append(grads)  # holds every batch's dict, the first one included
        return loss, grads

    monkeypatch.setattr(mdl, "training_backward", kept)
    params = ModelParams.init(MCFG, seed=4)
    tcfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=4)
    train(params, tcfg, MCFG, keys[:5], [], corp, tok, store)
    first = seen[0]
    assert len(seen) == 8 and list(first) == list(params.tensors())
    for grads in seen[1:]:
        for name, g in grads.items():
            assert np.shares_memory(g, first[name]), name
    assert not any(np.shares_memory(g, params.flat) for g in first.values())


def test_batch_reads_and_encodes_each_distinct_video_once(tmp_path, monkeypatch):
    corp, tok, store, keys = pipeline(tmp_path)
    _, video, _, _ = build_samples(keys[:5], corp, tok, MCFG.max_words)
    gets, encoded = count_reads_and_encoder_rows(monkeypatch, store)
    monkeypatch.setattr(training, "RESIDENT_BYTES", 0)  # the per-use path
    for batch_size, epochs in ((len(video), 1), (4, 2)):
        gets.clear()
        encoded.clear()
        tcfg = TrainConfig(batch_size=batch_size, epochs=epochs, lr=1e-3, seed=5)
        train(ModelParams.init(MCFG, seed=5), tcfg, MCFG, keys[:5], [], corp, tok, store)
        distinct = [np.unique(video[rows]) for epoch in range(1, epochs + 1)
                    for rows in make_batches(len(video), batch_size, tcfg.seed, epoch)]
        # each batch reads its distinct videos once, in index order, and
        # encodes one row per distinct video
        assert gets == [keys[v] for d in distinct for v in d]
        assert encoded == [len(d) for d in distinct]
        if batch_size == len(video):
            # 15 captions of 5 videos in one batch: five reads, five rows
            assert len(video) == 15 and encoded == [5]
        else:  # some batch of 4 shares a row between captions
            assert sum(encoded) < 2 * len(video)


def count_file_reads(monkeypatch):
    """Record the path of every read_feature_file call, and the number
    of training_forward calls made before each."""
    reads, forwards = [], []
    read, forward = features.read_feature_file, mdl.training_forward

    def counting(path, *args, **kwargs):
        reads.append((path, len(forwards)))
        return read(path, *args, **kwargs)

    monkeypatch.setattr(features, "read_feature_file", counting)
    monkeypatch.setattr(mdl, "training_forward",
                        lambda *a, **k: forwards.append(1) or forward(*a, **k))
    return reads


def split_bytes(keys, mcfg=MCFG):
    return len(keys) * mcfg.frames * mcfg.feature_dim * 4


def test_splits_within_the_bound_are_read_once_per_run(tmp_path, monkeypatch):
    # 5 training and 1 validation video of 8 x 16 floats: 3 KiB, read
    # once each before the first batch, however many batches use them
    corp, tok, store, keys = pipeline(tmp_path)
    assert split_bytes(keys) <= training.RESIDENT_BYTES
    reads = count_file_reads(monkeypatch)
    tcfg = TrainConfig(batch_size=4, epochs=3, lr=1e-3, seed=5)
    train(ModelParams.init(MCFG, seed=5), tcfg, MCFG, keys[:5], keys[5:], corp, tok, store)
    assert reads == [(store.entries[k], 0) for k in keys]
    # the bound is inclusive: at exactly the splits' bytes they stay resident
    reads.clear()
    monkeypatch.setattr(training, "RESIDENT_BYTES", split_bytes(keys))
    train(ModelParams.init(MCFG, seed=5), tcfg, MCFG, keys[:5], keys[5:], corp, tok, store)
    assert len(reads) == len(keys)


def test_splits_over_the_bound_are_read_once_per_use(tmp_path, monkeypatch):
    # 16 x 2048 features: six videos are 768 KiB, over the bound, so each
    # batch reads its distinct videos and each validation pass its video
    mcfg = ModelConfig(frames=16, feature_dim=2048, latent=8, max_words=10, vocab=40)
    paths = make_fixture(str(tmp_path), n_videos=6, seed=1, frames=16, feature_dim=2048)
    corp = build_corpus(parse_descriptions(paths["descriptions"]))
    keys = sorted(corp.entries)
    tok = Tokenizer(cap=40).fit(c for k in keys for c in corp.entries[k])
    store = FeatureStore(paths["manifest"])
    assert split_bytes(keys, mcfg) > training.RESIDENT_BYTES
    _, video, _, _ = build_samples(keys[:5], corp, tok, mcfg.max_words)
    reads = count_file_reads(monkeypatch)
    tcfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=5)
    train(ModelParams.init(mcfg, seed=5), tcfg, mcfg, keys[:5], keys[5:], corp, tok, store)
    per_epoch = [[keys[v] for rows in make_batches(len(video), 4, tcfg.seed, epoch)
                  for v in np.unique(video[rows])] + keys[5:] for epoch in (1, 2)]
    assert [path for path, _ in reads] == [store.entries[k] for k in sum(per_epoch, [])]
    # one byte below the quick-start-sized splits' bytes: read per use too
    corp, tok, store, keys = pipeline(tmp_path / "small")
    reads.clear()
    monkeypatch.setattr(training, "RESIDENT_BYTES", split_bytes(keys) - 1)
    train(ModelParams.init(MCFG, seed=5), tcfg, MCFG, keys[:5], keys[5:], corp, tok, store)
    assert len(reads) > 2 * len(keys)


def test_resident_splits_write_the_bytes_of_per_use_reads(tmp_path, monkeypatch):
    files = []
    for name, bound in (("resident", training.RESIDENT_BYTES), ("per-use", 0)):
        monkeypatch.setattr(training, "RESIDENT_BYTES", bound)
        out = tmp_path / name
        out.mkdir()
        _, history = run_training(tmp_path / f"data-{name}", epochs=4, out_dir=str(out))
        history.to_csv(str(out / "metrics.csv"))
        files.append([(out / f).read_bytes() for f in ("metrics.csv", "ckpt-4.sq2s")])
    assert files[0] == files[1]


@pytest.mark.parametrize("path, bad", [("resident", 1), ("per-use", 0), ("per-use", 4),
                                       ("resident", 5), ("per-use", 5)])
def test_misshaped_video_stops_training_before_the_pass_that_reads_it(
        tmp_path, monkeypatch, path, bad):
    # a store built without an expected shape reads a 1 x 16 matrix,
    # which numpy would broadcast into all 8 frames of its row; per use,
    # the 15 samples are one batch, whose first video is keys[0], and
    # keys[5] is the validation video
    corp, tok, store, keys = pipeline(tmp_path)
    features.write_feature_file(store.entries[keys[bad]], np.ones((1, 16), np.float32))
    if path == "per-use":
        monkeypatch.setattr(training, "RESIDENT_BYTES", 0)
    passes, forward = [], mdl.training_forward
    monkeypatch.setattr(mdl, "training_forward",
                        lambda *a: passes.append(len(a[2])) or forward(*a))
    tcfg = TrainConfig(batch_size=15, epochs=2, lr=1e-3, seed=5)
    with pytest.raises(InputError) as err:
        train(ModelParams.init(MCFG, seed=5), tcfg, MCFG, keys[:5], keys[5:],
              corp, tok, store)
    # the message a store with the model's expected shape gives
    assert str(err.value) == f"features for '{keys[bad]}' have shape (1, 16), expected (8, 16)"
    # only a validation video read per use lets epoch 1's batch run
    assert passes == ([15] if (path, bad) == ("per-use", 5) else [])


# (misshaped video, the video the error is raised for, its shape, the
# first video's shape)
@pytest.mark.parametrize("bad, named, got, like", [
    pytest.param(0, 1, (8, 16), (1, 16), id="first"),
    pytest.param(2, 2, (1, 16), (8, 16), id="third"),
])
def test_read_batch_without_a_shape_names_both_videos(tmp_path, bad, named, got, like):
    # no shape and a store without an expected shape hold each video to
    # the batch's first, so a misshaped first video must not be reported
    # as the next one's fault alone: the error names both
    _, _, store, keys = pipeline(tmp_path)
    features.write_feature_file(store.entries[keys[bad]], np.ones((1, 16), np.float32))
    with pytest.raises(InputError) as err:
        training.read_batch(store, keys, np.array([0, 1, 2, 2]))
    assert str(err.value) == (f"features for '{keys[named]}' have shape {got}, "
                              f"but those for '{keys[0]}' have {like}")


def test_batch_gradient_equals_per_sample_oracle_float64():
    cfg = ModelConfig(frames=5, feature_dim=3, latent=4, max_words=6, vocab=7)
    params = ModelParams.init(cfg, seed=9, dtype=np.float64)
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((2, cfg.frames, cfg.feature_dim))
    video = np.array([0, 1, 0, 0, 1])  # video 0 three times, video 1 twice
    lengths = [6, 2, 4, 5, 1]
    dec_in = np.zeros((len(video), cfg.max_words), dtype=int)
    target = np.zeros_like(dec_in)
    for i, n in enumerate(lengths):
        dec_in[i, :n] = rng.integers(1, cfg.vocab + 1, size=n)
        target[i, :n] = rng.integers(1, cfg.vocab + 1, size=n)
    _, caches = mdl.training_forward(params, feats, dec_in, video)
    loss, grads = mdl.training_backward(params, caches, target)
    samples = ([0, 1], video, dec_in, target)
    losses, want = oracles.batch_gradients_per_sample(params, feats.__getitem__, samples,
                                                      range(len(video)))
    assert abs(loss - sum(losses) / len(losses)) < 1e-12
    for name, g in grads.items():
        assert np.max(np.abs(g - want[name])) < 1e-10, name

    def batch_nll(tensors):
        # the batch-mean loss in long double, as test_model's extended_loss
        wide = _params_from_tensors({k: v.astype(np.longdouble) for k, v in tensors.items()})
        P, _ = mdl.training_forward(wide, feats.astype(np.longdouble), dec_in, video)
        total = 0
        for i, row in enumerate(target):
            steps = np.flatnonzero(row)
            total += -np.log(P[steps, i, row[steps] - 1]).sum() / steps.size
        return total / len(target)

    assert nn.finite_difference_check(batch_nll, params.tensors(), grads) < 1e-6


def test_batch_gradient_follows_a_cyclic_row_map_float64():
    # one caption per video (B = Bv), whose row map is a 3-cycle: the
    # Bv x B owner matrix is square, so its transpose would still
    # broadcast and route each caption's state gradient to another video
    cfg = ModelConfig(frames=4, feature_dim=3, latent=4, max_words=5, vocab=7)
    params = ModelParams.init(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((3, cfg.frames, cfg.feature_dim))
    video = np.array([2, 0, 1])
    dec_in = rng.integers(1, cfg.vocab + 1, size=(3, cfg.max_words))
    target = rng.integers(1, cfg.vocab + 1, size=(3, cfg.max_words))
    _, caches = mdl.training_forward(params, feats, dec_in, video)
    loss, grads = mdl.training_backward(params, caches, target)
    samples = ([0, 1, 2], video, dec_in, target)
    losses, want = oracles.batch_gradients_per_sample(params, feats.__getitem__, samples,
                                                      range(len(video)))
    assert abs(loss - sum(losses) / len(losses)) < 1e-12
    for name, g in grads.items():
        assert np.max(np.abs(g - want[name])) < 1e-10, name


def traced_peak(tmp_path, batch_size, n_videos=6,
                mcfg=ModelConfig(frames=8, feature_dim=256, latent=64,
                                 max_words=10, vocab=40)):
    """tracemalloc peak of one train() call above what was live before it.

    The last of the n_videos videos is the validation split."""
    paths = make_fixture(str(tmp_path), n_videos=n_videos, seed=1,
                         frames=mcfg.frames, feature_dim=mcfg.feature_dim)
    corp = build_corpus(parse_descriptions(paths["descriptions"]))
    keys = sorted(corp.entries)
    tok = Tokenizer(cap=40).fit(c for k in keys for c in corp.entries[k])
    store = FeatureStore(paths["manifest"])
    params = ModelParams.init(mcfg, seed=3)
    tcfg = TrainConfig(batch_size=batch_size, epochs=2, lr=1e-3, seed=3)
    return traced(train, params, tcfg, mcfg, keys[:-1], keys[-1:], corp, tok, store)[2]


def test_peak_memory_does_not_grow_with_batch_size(tmp_path):
    # 15 training samples: one batch of 15 against 15 batches of one.  A
    # per-sample gradient set is ~0.43 MB here; keeping all of a batch's
    # sets until it ends measured 14.2 MB at batch size 15 against 2.8 MB.
    # Batch activations do grow with B.  Per caption, the decoder's
    # (T, B, 4 latent) input rows, gates and gate gradients are
    # 3 x 10 x 256 x 4 B = 30 KB, and per distinct video in the batch an
    # encoder row holds frames x (D + 3 x 4 latent) x 4 B = 32 KB of
    # features, projected rows, gates and gate gradients.  The bound
    # lets the 14 further captions add both, though the one batch of 15
    # has only 5 encoder rows (1.71 MB at batch size 1 against 2.02 MB
    # at 15 measured).
    one = traced_peak(tmp_path / "a", batch_size=1)
    whole = traced_peak(tmp_path / "b", batch_size=15)
    activations = 14 * (3 * 10 * (4 * 64) + 8 * (256 + 3 * 4 * 64)) * 4
    assert whole <= one + 256 * 1024 + activations, (one, whole)


def test_peak_memory_does_not_grow_with_the_split(tmp_path):
    # a 16 x 2048 feature matrix is 128 KB, so keeping the 24 extra
    # videos' matrices alive would add ~3 MB to the peak
    mcfg = ModelConfig(frames=16, feature_dim=2048, latent=8, max_words=10, vocab=40)
    small = traced_peak(tmp_path / "a", batch_size=4, n_videos=6, mcfg=mcfg)
    large = traced_peak(tmp_path / "b", batch_size=4, n_videos=30, mcfg=mcfg)
    assert large <= small + 256 * 1024, (small, large)


def test_batch_holds_its_frames_once(tmp_path, monkeypatch):
    # 15 captions of 5 videos in one batch: its frames are one 5 x 128 KB
    # array, a row per distinct video; a row per caption would be 15 x 128 KB
    seen, forward = [], mdl.training_forward

    def traced(params, feats, *args):
        seen.append((feats.nbytes, tracemalloc.get_traced_memory()[1]))
        return forward(params, feats, *args)

    monkeypatch.setattr(mdl, "training_forward", traced)
    mcfg = ModelConfig(frames=16, feature_dim=2048, latent=8, max_words=10, vocab=40)
    traced_peak(tmp_path, batch_size=15, mcfg=mcfg)
    frames, peak = seen[0]  # the first batch; tracing starts just before train
    assert frames == 5 * 16 * 2048 * 4
    # the batch array plus one read in flight, before the forward pass
    assert peak <= frames + 256 * 1024, (frames, peak)


def test_non_finite_parameters_abort_the_run(tmp_path):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=0)
    params.head.W[:] = np.nan
    tcfg = TrainConfig(batch_size=4, epochs=1, lr=1e-3, seed=0)
    with pytest.raises(TrainingDiverged):
        train(params, tcfg, MCFG, keys[:5], keys[5:], corp, tok, store)


def test_train_rejects_keys_without_features_or_captions(tmp_path):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=0)
    tcfg = TrainConfig(batch_size=4, epochs=1)
    with pytest.raises(InputError, match="manifest"):
        train(params, tcfg, MCFG, keys + ["ghost"], [], corp, tok, store)
    del corp.entries[keys[0]]
    with pytest.raises(InputError, match="descriptions"):
        train(params, tcfg, MCFG, keys, [], corp, tok, store)


def test_empty_training_split_rejected(tmp_path):
    corp, tok, store, keys = pipeline(tmp_path)
    params = ModelParams.init(MCFG, seed=0)
    with pytest.raises(InputError, match="no trainable samples"):
        train(params, TrainConfig(epochs=1), MCFG, [], [], corp, tok, store)


def test_checkpoint_cadence(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_training(tmp_path / "data", epochs=5, checkpoint_every=2,
                 out_dir=str(out))
    present = sorted(p.name for p in out.glob("ckpt-*.sq2s"))
    assert present == ["ckpt-2.sq2s", "ckpt-4.sq2s", "ckpt-5.sq2s"]


# ---------------------------------------------------------------------------
# Metrics and config validation
# ---------------------------------------------------------------------------

def test_metrics_csv_layout(tmp_path):
    history = MetricsHistory([EpochMetrics(1, 1.5, 0.25, 2.0, 0.125),
                              EpochMetrics(2, 1.0 / 3.0, 1.0, 0.5, 0.75)])
    path = tmp_path / "metrics.csv"
    history.to_csv(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert lines[1] == "1,1.5,0.25,2,0.125"
    assert lines[2] == "2,0.333333,1,0.5,0.75"


def test_train_config_validation():
    TrainConfig().validate()
    bad = [dict(batch_size=0), dict(epochs=0), dict(lr=-1.0),
           dict(checkpoint_every=-1)]
    for kwargs in bad:
        with pytest.raises(InputError):
            TrainConfig(**kwargs).validate()


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_lr(lr):
    with pytest.raises(InputError, match="lr must be finite"):
        TrainConfig(lr=lr).validate()
