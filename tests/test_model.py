"""Model assembly tests: counts, training pass, inference, checkpoints."""

import struct
import weakref

import numpy as np
import pytest

from vidcap import model, nn
from vidcap.features import FeatureStore, VideoFrames, write_feature_file
from vidcap.model import (CHECKPOINT_MAGIC, DecodeState, ModelConfig,
                          ModelParams, TENSOR_ORDER, _params_from_tensors,
                          _write_tensor, decode_step,
                          encode_video, greedy_decode, load_checkpoint,
                          param_count, save_checkpoint, training_backward,
                          training_forward)
from vidcap.tokenizer import Tokenizer
from vidcap.util import InputError

from memtrace import traced
import oracles

TOY = ModelConfig(frames=5, feature_dim=3, latent=4, max_words=4, vocab=7)


def toy_inputs(seed, cfg=TOY, dtype=np.float64, pad_rows=1):
    """Features of the given dtype plus input and target index vectors
    whose last pad_rows steps are padding (0)."""
    rng = np.random.default_rng(seed)
    feat = rng.standard_normal((cfg.frames, cfg.feature_dim)).astype(dtype)
    dec_in = np.zeros(cfg.max_words, dtype=int)
    target = np.zeros(cfg.max_words, dtype=int)
    for t in range(cfg.max_words - pad_rows):
        dec_in[t] = rng.integers(cfg.vocab) + 1
        target[t] = rng.integers(cfg.vocab) + 1
    return feat, dec_in, target


def small_tokenizer(n_words=5):
    words = ["bos", "eos"] + [f"w{i}" for i in range(n_words - 2)]
    return Tokenizer(cap=7).fit([words])


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------

def test_param_count_full_dimensions():
    enc, dec, head, total = param_count(ModelConfig())
    assert (enc, dec, head, total) == (9439232, 4122624, 769500, 14331356)


def test_param_count_unit_dimensions():
    cfg = ModelConfig(frames=1, feature_dim=1, latent=1, max_words=1, vocab=1)
    assert param_count(cfg) == (12, 12, 2, 26)


def test_param_count_quadratic_in_latent():
    small = param_count(ModelConfig(latent=64))
    big = param_count(ModelConfig(latent=128))
    assert big[0] > 2 * small[0] and big[1] > 2 * small[1]


def test_init_matches_counts():
    params = ModelParams.init(TOY, seed=0)
    total = sum(t.size for t in params.tensors().values())
    assert total == param_count(TOY)[3]
    assert params.encoder.W.shape == (3, 16)
    assert params.decoder.W.shape == (7, 16)
    assert params.head.W.shape == (4, 7)


# a config whose encoder.W (4096 x 256 float32) is a 4 MB tensor
WIDE = ModelConfig(frames=8, feature_dim=4096, latent=64, max_words=10, vocab=1500)


@pytest.mark.parametrize("seed", [42, 7])
def test_init_matches_householder_oracle(seed):
    # the README quick start's config is bitwise; float64 Cholesky QR and
    # Householder Q differ by ~1e-16, which rounds to float32 within 1 ulp
    quick = ModelConfig(frames=8, feature_dim=16, latent=32, max_words=10, vocab=40)
    for cfg, ulps in ((quick, 0), (ModelConfig(), 1)):
        got = ModelParams.init(cfg, seed).tensors()
        ref = oracles.init_params_reference(cfg, seed).tensors()
        for name in TENSOR_ORDER:
            assert got[name].dtype == np.float32 and got[name].shape == ref[name].shape
            differ = got[name] != ref[name]  # only these can be an ulp apart
            np.testing.assert_array_max_ulp(got[name][differ], ref[name][differ], ulps)


def test_init_peak_memory_is_the_tensors_it_keeps():
    # no tensor-sized float64 draw: one GLOROT_BLOCK of draws and the
    # float64 orthogonal factors (256 x 64 here) are the transients
    params, _, peak = traced(ModelParams.init, WIDE, seed=3)
    kept = sum(t.nbytes for t in params.tensors().values())
    assert params.encoder.W.nbytes == 4 * 2**20
    assert peak - kept <= 2 * 2**20


def assert_tiles_one_buffer(params):
    """The TENSOR_ORDER tensors are views that tile params.flat, one
    C-contiguous 1-D buffer, back to back in that order."""
    flat, tensors = params.flat, params.tensors()
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.base is None
    assert list(tensors) == list(TENSOR_ORDER)
    offset = 0
    for name, t in tensors.items():
        assert t.base is flat and t.flags.c_contiguous and t.dtype == flat.dtype, name
        assert t.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
        offset += t.size
    assert offset == flat.size == param_count(TOY)[3]


def test_init_load_and_copy_tile_one_buffer(tmp_path):
    params = ModelParams.init(TOY, seed=4)
    assert_tiles_one_buffer(params)
    save_checkpoint(tmp_path / "model.sq2s", TOY, params)
    loaded = load_checkpoint(tmp_path / "model.sq2s")[1]
    copied = _params_from_tensors({k: t.copy() for k, t in params.tensors().items()})
    for other in (loaded, copied):
        assert_tiles_one_buffer(other)
        assert np.array_equal(other.flat, params.flat)
        assert not np.shares_memory(other.flat, params.flat)
    wide = _params_from_tensors({k: t.astype(np.float64) for k, t in params.tensors().items()})
    assert wide.flat.dtype == np.float64
    assert_tiles_one_buffer(wide)


# ---------------------------------------------------------------------------
# Training forward / backward
# ---------------------------------------------------------------------------

def test_forward_zero_params_uniform_rows():
    params = ModelParams.init(TOY, seed=0)
    for t in params.tensors().values():
        t[...] = 0.0
    feat, dec_in, _ = toy_inputs(0, dtype=np.float32)
    P, _ = training_forward(params, feat, dec_in)
    assert P.shape == (TOY.max_words, TOY.vocab)
    assert np.allclose(P, 1.0 / TOY.vocab, atol=1e-7)


def test_forward_equals_kernel_composition():
    params = ModelParams.init(TOY, seed=1, dtype=np.float64)
    feat, dec_in, _ = toy_inputs(1)
    P, _ = training_forward(params, feat, dec_in)
    _, h, c, _ = nn.lstm_forward(params.encoder, feat @ params.encoder.W)
    onehot = oracles.one_hot_rows(dec_in, TOY.vocab)
    H, _, _, _ = nn.lstm_forward(params.decoder, onehot @ params.decoder.W, h, c)
    assert np.array_equal(P, nn.dense_softmax_forward(params.head, H))
    assert np.all(np.abs(P.sum(axis=1) - 1.0) < 1e-6)


def extended_loss(tensors, feat, dec_in, target):
    """Masked mean NLL evaluated at extended precision.

    Some coordinates sit in deeply saturated gate paths with gradients
    around 1e-13; a float64 difference quotient cannot resolve those and
    the relative-error floor turns its noise into ~1e-5.  Running the
    same forward math in long double pushes the measurement noise below
    the floor while the gradients under test stay 64-bit.
    """
    wide = _params_from_tensors(
        {k: v.astype(np.longdouble) for k, v in tensors.items()})
    P, _ = training_forward(wide, feat.astype(np.longdouble), dec_in)
    rows = target > 0
    nll = -np.log(P[rows, target[rows] - 1])
    return nll.sum() / rows.sum()


@pytest.mark.parametrize("seed", range(3))
def test_backward_finite_differences(seed):
    params = ModelParams.init(TOY, seed=seed, dtype=np.float64)
    feat, dec_in, target = toy_inputs(seed)
    tensors = params.tensors()

    def loss(t):
        return extended_loss(t, feat, dec_in, target)

    P, caches = training_forward(params, feat, dec_in)
    _, grads = training_backward(params, caches, target)
    assert nn.finite_difference_check(loss, tensors, grads) < 1e-6


def test_backward_ignores_trailing_padding_inputs():
    # garbage fed at masked steps must not change loss or any gradient
    params = ModelParams.init(TOY, seed=2, dtype=np.float64)
    feat, dec_in, target = toy_inputs(2, pad_rows=2)
    dirty = dec_in.copy()
    dirty[-2:] = 4
    out_clean = training_forward(params, feat, dec_in)
    out_dirty = training_forward(params, feat, dirty)
    loss_c, grads_c = training_backward(params, out_clean[1], target)
    loss_d, grads_d = training_backward(params, out_dirty[1], target)
    assert loss_c == loss_d
    for name in grads_c:
        assert np.array_equal(grads_c[name], grads_d[name])


def test_backward_fills_every_gradient_of_a_reused_buffer():
    # a buffer full of NaN from an earlier batch gives bitwise the
    # gradients of a fresh one, as views of it laid out as the parameters
    params = ModelParams.init(TOY, seed=5, dtype=np.float64)
    feat, dec_in, target = toy_inputs(5)
    loss, fresh = training_backward(params, training_forward(params, feat, dec_in)[1], target)
    grad = np.full_like(params.flat, np.nan)
    again, grads = training_backward(params, training_forward(params, feat, dec_in)[1],
                                     target, params.views(grad))
    assert again == loss and list(grads) == list(TENSOR_ORDER)
    offset = 0
    for name, g in grads.items():
        assert g.base is grad and g.ctypes.data == grad.ctypes.data + offset * 8, name
        assert np.array_equal(g, fresh[name]), name
        offset += g.size
    assert offset == grad.size


def test_backward_near_converged_gradients_vanish():
    params = ModelParams.init(TOY, seed=3, dtype=np.float64)
    feat, dec_in, _ = toy_inputs(3)
    params.head.b[...] = 0.0
    params.head.W[...] = 0.0
    params.head.b[2] = 50.0  # saturate every row onto class 2
    target = np.full(TOY.max_words, 3)  # index 3 is class 2
    P, caches = training_forward(params, feat, dec_in)
    loss, grads = training_backward(params, caches, target)
    assert loss < 1e-12
    assert max(np.max(np.abs(g)) for g in grads.values()) < 1e-12


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def test_encode_video_is_final_lstm_state():
    params = ModelParams.init(TOY, seed=4, dtype=np.float64)
    feat, _, _ = toy_inputs(4)
    h, c = encode_video(params, feat)
    H, hT, cT, _ = nn.lstm_forward(params.encoder, feat @ params.encoder.W)
    assert np.array_equal(h, H[-1]) and np.array_equal(h, hT)
    assert np.array_equal(c, cT)


def test_encode_video_is_order_sensitive():
    params = ModelParams.init(TOY, seed=5, dtype=np.float64)
    feat, _, _ = toy_inputs(5)
    h1, _ = encode_video(params, feat)
    h2, _ = encode_video(params, feat[::-1].copy())
    assert not np.allclose(h1, h2)


def test_encode_video_takes_one_video_only():
    params = ModelParams.init(TOY, seed=6)
    feats = _videos(3, seed=6)
    for bad in (feats, feats[0, 0]):
        with pytest.raises(ValueError, match="expected \\(frames, D\\)"):
            encode_video(params, bad)


def test_project_takes_stacked_videos_only():
    # one video (frames x D) is not laid out: at D = 1 its reshape would
    # be one step of `frames` rows
    cfg = ModelConfig(frames=5, feature_dim=1, latent=4, max_words=4, vocab=7)
    params = ModelParams.init(cfg, seed=6)
    feat = np.ones((cfg.frames, cfg.feature_dim), np.float32)
    for bad in (feat, feat[None, None]):
        with pytest.raises(ValueError, match="expected 3 axes"):
            model._project(params, bad)


def _chunk_states(monkeypatch, params, videos, max_words):
    """The encoder state greedy_decode hands each chunk's decoder."""
    starts, rows = [], model._greedy_rows

    def recording(params, tok, state, *args):
        starts.append((state.h.copy(), state.c.copy()))
        return rows(params, tok, state, *args)

    monkeypatch.setattr(model, "_greedy_rows", recording)
    greedy_decode(params, small_tokenizer(), iter(list(videos)), max_words)
    return starts


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 4, 16])
@pytest.mark.parametrize("frames", [1, 15, 16, 17, 40])
def test_sliced_encoder_state_is_bitwise_one_call(monkeypatch, frames, rows, dtype):
    # one video is one call; a chunk's 16-frame slices (the last ragged),
    # each one call chained on copies of the previous final state, round
    # as one stacked call; at latent 256, 4 rows take U in row panels
    # and 16 rows one product
    cfg = ModelConfig(frames=frames, feature_dim=8, latent=256, max_words=4, vocab=7)
    params = ModelParams.init(cfg, seed=frames + rows, dtype=dtype)
    assert len(nn.recurrent_panels(4, cfg.latent)) > 1
    assert len(nn.recurrent_panels(16, cfg.latent)) == 1
    shape = (rows, frames, cfg.feature_dim) if rows > 1 else (frames, cfg.feature_dim)
    feats = np.random.default_rng(rows).standard_normal(shape).astype(dtype)
    stack = feats if rows > 1 else feats[None]
    _, h_one, c_one, _ = nn.lstm_forward(params.encoder, model._project(params, stack))
    if rows == 1:
        h_one, c_one = h_one[0], c_one[0]
        h, c = encode_video(params, feats)
    else:
        monkeypatch.setattr(model, "_slice_rows", lambda frames: 16 * rows)
        calls, forward = [], nn.lstm_forward
        monkeypatch.setattr(nn, "lstm_forward",
                            lambda p, XW, *a: calls.append(len(XW)) or forward(p, XW, *a))
        (h, c), = _chunk_states(monkeypatch, params, feats, cfg.max_words)
        slices = [min(16, frames - t) for t in range(0, frames, 16)]
        assert calls[:len(slices)] == slices and calls[len(slices)] == 1
    assert h.dtype == c.dtype == dtype
    assert np.array_equal(h, h_one) and np.array_equal(c, c_one)


@pytest.mark.parametrize("n", [5, 8, 16, 19, 35, model.DECODE_CHUNK - 1, model.DECODE_CHUNK,
                               model.DECODE_CHUNK + 1, 2 * model.DECODE_CHUNK + 3])
def test_greedy_chunk_state_is_bitwise_one_stacked_call(monkeypatch, n):
    # each chunk is projected one slice of frames at a time (one GEMM per
    # slice) and encoded slice by slice: its decoder starts from the
    # state one call over the stacked chunk gives
    cfg = ModelConfig(frames=21, feature_dim=24, latent=16, max_words=4, vocab=7)
    params = ModelParams.init(cfg, seed=n)
    videos = np.random.default_rng(n).standard_normal(
        (n, cfg.frames, cfg.feature_dim)).astype(np.float32)
    starts = _chunk_states(monkeypatch, params, videos, cfg.max_words)
    chunks = range(0, n, model.DECODE_CHUNK)
    assert len(starts) == len(chunks)
    for (h, c), s in zip(starts, chunks):
        chunk = videos[s:s + model.DECODE_CHUNK]
        _, h_one, c_one, _ = nn.lstm_forward(params.encoder, model._project(params, chunk))
        assert np.array_equal(h, h_one) and np.array_equal(c, c_one)


def test_chunk_slices_hold_one_slices_states(monkeypatch):
    # each slice's call starts from copies of the last state, so the
    # previous slice's Hs and Cs are freed before the next call runs
    cfg = ModelConfig(frames=21, feature_dim=24, latent=16, max_words=4, vocab=7)
    params = ModelParams.init(cfg, seed=3)
    videos = np.random.default_rng(3).standard_normal(
        (5, cfg.frames, cfg.feature_dim)).astype(np.float32)
    monkeypatch.setattr(model, "_slice_rows", lambda frames: 4 * 5)
    states, forward = [], nn.lstm_forward

    def recording(p, XW, *args):
        if p is params.encoder:
            assert all(ref() is None for ref in states)
            out = forward(p, XW, *args)
            states.extend(weakref.ref(a) for a in out[3][:2])
            return out
        return forward(p, XW, *args)

    monkeypatch.setattr(nn, "lstm_forward", recording)
    greedy_decode(params, small_tokenizer(), iter(list(videos)), cfg.max_words)
    assert len(states) == 2 * 6  # 4-frame slices, the last of 1


def test_slice_rows_are_fixed_per_split():
    # 8 full-size videos' frames (6-frame slices for 101 videos), or one
    # row per video of a chunk; the count depends on the frames only
    assert model._slice_rows(80) == 640
    assert model._slice_rows(16) == model._slice_rows(5) == model.DECODE_CHUNK


def _store(tmp_path, videos):
    """A FeatureStore of videos, one .vfm file each (ids v0, v1, ...),
    expecting their shape, and its lazy sources in order."""
    lines = []
    for i, video in enumerate(videos):
        write_feature_file(str(tmp_path / f"v{i}.vfm"), video)
        lines.append(f"v{i}\tv{i}.vfm\n")
    (tmp_path / "manifest.tsv").write_text("".join(lines), encoding="utf-8")
    store = FeatureStore(str(tmp_path / "manifest.tsv"), expected_shape=videos.shape[1:])
    return store, [VideoFrames(store, f"v{i}") for i in range(len(videos))]


def test_greedy_few_video_chunk_peak_holds_no_staging_buffer(tmp_path):
    # 8 full-size videos step as one 80-frame slice of the 640-row slice
    # buffers (15 MiB); a lazy video's rows are its own 80 x 4096 read,
    # freed once copied, so lazy and array chunks both peak at the
    # buffers plus the recurrence's 2.8 MiB.  An 80 x 4096 staging
    # buffer held over the chunk (1.25 MiB) peaked at 4.06 MiB above them
    cfg = ModelConfig(frames=80, feature_dim=4096, latent=512, max_words=10, vocab=7)
    params = ModelParams.init(cfg, seed=3)
    videos = np.random.default_rng(3).standard_normal(
        (model.SLICE_VIDEOS, cfg.frames, cfg.feature_dim)).astype(np.float32)
    _, sources = _store(tmp_path, videos)
    buffers = model._slice_rows(cfg.frames) * (cfg.feature_dim + 4 * cfg.latent) * 4
    for feats in (sources, list(videos)):
        _, _, peak = traced(greedy_decode, params, small_tokenizer(), feats, cfg.max_words)
        assert peak <= buffers + 3.5 * 2**20, (peak - buffers) / 2**20


def test_greedy_slice_buffers_are_sized_to_the_chunk():
    # 2 full-size videos are one 80-frame slice of 160 rows, not of the
    # 640 rows _slice_rows allows: buffers of 3.75 MiB plus the
    # recurrence's Hs and Cs (0.6 MiB).  640-row buffers peaked at 15.7 MiB
    cfg = ModelConfig(frames=80, feature_dim=4096, latent=512, max_words=10, vocab=7)
    params = ModelParams.init(cfg, seed=4)
    videos = np.random.default_rng(4).standard_normal(
        (2, cfg.frames, cfg.feature_dim)).astype(np.float32)
    assert model._slice_rows(cfg.frames) >= 4 * len(videos) * cfg.frames
    buffers = len(videos) * cfg.frames * (cfg.feature_dim + 4 * cfg.latent) * 4
    _, _, peak = traced(greedy_decode, params, small_tokenizer(), list(videos), cfg.max_words)
    assert peak <= buffers + 1.25 * 2**20, (peak - buffers) / 2**20


@pytest.mark.parametrize("rows", [None, 2 * model.DECODE_CHUNK, 100 * model.DECODE_CHUNK])
@pytest.mark.parametrize("n", [1, model.DECODE_CHUNK - 1, model.DECODE_CHUNK,
                               model.DECODE_CHUNK + 1, 2 * model.DECODE_CHUNK + 3])
def test_greedy_split_from_file_slices_matches_arrays_and_oracle(tmp_path, monkeypatch,
                                                                  n, rows):
    # slice buffers of _slice_rows' DECODE_CHUNK rows (1-frame slices for
    # a full chunk), of 2 x DECODE_CHUNK (2-frame slices over 5 frames,
    # the last ragged) and of more than any chunk's frames (one slice)
    if rows is not None:
        monkeypatch.setattr(model, "_slice_rows", lambda frames: rows)
    tok, params, videos = small_tokenizer(), _diverse_params(), _videos(n)
    _, sources = _store(tmp_path, videos)
    want = [oracles.greedy_caption_per_video(params, tok, f, TOY.max_words)[0]
            for f in videos]
    assert greedy_decode(params, tok, list(videos), TOY.max_words) == want
    assert greedy_decode(params, tok, sources, TOY.max_words) == want


@pytest.mark.parametrize("S", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [5, model.DECODE_CHUNK + 1])
def test_sliced_chunk_state_is_bitwise_one_stacked_call(tmp_path, monkeypatch, n, S):
    # slices of S frames (of 7; the last chunk of 1 video takes all 7)
    # read from files, each projected with one GEMM and stepped from the
    # previous slice's state, give the state one lstm_forward over the
    # stacked chunk gives
    monkeypatch.setattr(model, "_slice_rows", lambda frames: S * min(n, model.DECODE_CHUNK))
    cfg = ModelConfig(frames=7, feature_dim=24, latent=16, max_words=4, vocab=7)
    params = ModelParams.init(cfg, seed=n + S)
    videos = np.random.default_rng(n).standard_normal(
        (n, cfg.frames, cfg.feature_dim)).astype(np.float32)
    _, sources = _store(tmp_path, videos)
    starts, rows = [], model._greedy_rows

    def recording(params, tok, state, *args):
        starts.append((state.h.copy(), state.c.copy()))
        return rows(params, tok, state, *args)

    monkeypatch.setattr(model, "_greedy_rows", recording)
    greedy_decode(params, small_tokenizer(), sources, cfg.max_words)
    chunks = range(0, n, model.DECODE_CHUNK)
    assert len(starts) == len(chunks)
    for (h, c), s in zip(starts, chunks):
        chunk = videos[s:s + model.DECODE_CHUNK]
        _, h_one, c_one, _ = nn.lstm_forward(params.encoder, model._project(params, chunk))
        assert np.array_equal(h, h_one) and np.array_equal(c, c_one)


def test_greedy_reads_each_frame_of_a_split_once(tmp_path, monkeypatch):
    # 2-frame slices over 5 frames (2, 2, 1) for the first chunk, one
    # slice for the 3-video second: every frame of every video is read
    # through FeatureStore.get exactly once, a chunk at a time
    C = model.DECODE_CHUNK
    monkeypatch.setattr(model, "_slice_rows", lambda frames: 2 * C)
    n = C + 3
    store, sources = _store(tmp_path, _videos(n))
    reads, get = [], FeatureStore.get

    def recording(self, video_id, rows=slice(None)):
        reads.append((int(video_id[1:]), rows))
        return get(self, video_id, rows)

    monkeypatch.setattr(FeatureStore, "get", recording)
    greedy_decode(_diverse_params(), small_tokenizer(), sources, TOY.max_words)
    frames = [(i, t) for i, rows in reads for t in range(*rows.indices(TOY.frames))]
    assert sorted(frames) == [(i, t) for i in range(n) for t in range(TOY.frames)]
    assert [i for i, _ in reads] == 3 * list(range(C)) + [C, C + 1, C + 2]


def test_decode_step_zero_params_uniform():
    params = ModelParams.init(TOY, seed=6)
    for t in params.tensors().values():
        t[...] = 0.0
    state = DecodeState(np.zeros(4, np.float32), np.zeros(4, np.float32))
    probs, new_state = decode_step(params, state, 1)
    assert np.allclose(probs, 1.0 / TOY.vocab, atol=1e-7)
    assert abs(float(probs.sum()) - 1.0) < 1e-6


def test_decode_step_rejects_bad_index():
    params = ModelParams.init(TOY, seed=6)
    state = DecodeState(np.zeros(4, np.float32), np.zeros(4, np.float32))
    with pytest.raises(InputError):
        decode_step(params, state, 0)
    with pytest.raises(InputError):
        decode_step(params, state, TOY.vocab + 1)
    rows = DecodeState(np.zeros((3, 4), np.float32), np.zeros((3, 4), np.float32))
    with pytest.raises(InputError):
        decode_step(params, rows, np.array([1, 0, 2]))


def test_stacked_encode_and_vector_decode_match_single_rows():
    # float32: the toy recurrences round exactly as one row at a time,
    # the 5-row head GEMM differs from the 1-row one by about an ulp
    params = ModelParams.init(TOY, seed=10)
    feats = _videos(5, seed=10)
    _, h, c, _ = nn.lstm_forward(params.encoder, model._project(params, feats))
    assert h.shape == c.shape == (5, TOY.latent)
    tokens = np.array([3, 1, 7, 3, 5])
    probs, state = decode_step(params, DecodeState(h, c), tokens)
    assert probs.shape == (5, TOY.vocab)
    for b in range(5):
        h1, c1 = encode_video(params, feats[b])
        assert np.array_equal(h[b], h1) and np.array_equal(c[b], c1)
        p1, s1 = decode_step(params, DecodeState(h1, c1), int(tokens[b]))
        assert np.max(np.abs(probs[b] - p1)) < 1e-6
        assert np.array_equal(state.h[b], s1.h) and np.array_equal(state.c[b], s1.c)


def test_decode_steps_match_teacher_forced_rows():
    params = ModelParams.init(TOY, seed=7)
    tok = small_tokenizer()
    rng = np.random.default_rng(7)
    feat = rng.standard_normal((TOY.frames, TOY.feature_dim)).astype(np.float32)
    prefix = [1, 3, 5, 2]
    dec_in = tok.pad(prefix, TOY.max_words)
    P, _ = training_forward(params, feat, dec_in)
    h, c = encode_video(params, feat)
    state = DecodeState(h, c)
    for t, token in enumerate(prefix):
        probs, state = decode_step(params, state, token)
        assert np.max(np.abs(probs - P[t])) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_step_row_gather_equals_one_hot_product(dtype):
    params = ModelParams.init(TOY, seed=13, dtype=dtype)
    rng = np.random.default_rng(13)
    state = DecodeState(rng.standard_normal(TOY.latent).astype(dtype),
                        rng.standard_normal(TOY.latent).astype(dtype))
    for k in range(1, TOY.vocab + 1):
        onehot = np.zeros(TOY.vocab, dtype=dtype)
        onehot[k - 1] = 1.0
        H, h, c, _ = nn.lstm_forward(params.decoder, onehot[None, :] @ params.decoder.W,
                                     state.h, state.c)
        probs = nn.softmax_rows(H @ params.head.W + params.head.b)[0]
        got_probs, got = decode_step(params, state, k)
        assert got_probs.dtype == dtype
        assert np.array_equal(got_probs, probs)
        assert np.array_equal(got.h, h) and np.array_equal(got.c, c)


# (latent, vocab): a toy size and one with the full 1500-word vocabulary
EXACT_SIZES = [(4, 7), (16, 1500)]


@pytest.mark.parametrize("size", range(len(EXACT_SIZES)))
def test_decoder_gather_and_scatter_equal_one_hot_products(size):
    latent, vocab = EXACT_SIZES[size]
    cfg = ModelConfig(frames=3, feature_dim=5, latent=latent, max_words=10,
                      vocab=vocab)
    params = ModelParams.init(cfg, seed=14)  # float32, as in training
    rng = np.random.default_rng(14)
    feat = rng.standard_normal((3, 5)).astype(np.float32)
    u, v, w = rng.choice(np.arange(1, vocab + 1), size=3, replace=False)
    dec_in = np.array([u, v, u, u, w, v, v, 0, 0, 0])  # repeats, then padding
    target = np.array([v, u, u, w, v, v, u, 0, 0, 0])
    P, caches = training_forward(params, feat, dec_in)
    _, grads = training_backward(params, caches, target)

    onehot = oracles.one_hot_rows(dec_in, vocab, np.float32)
    _, h, c, _ = nn.lstm_forward(params.encoder, feat @ params.encoder.W)
    H, _, _, dec_cache = nn.lstm_forward(params.decoder, onehot @ params.decoder.W,
                                         h, c)
    assert np.array_equal(P, nn.dense_softmax_forward(params.head, H))
    _, d_logits = nn.cross_entropy(P, target)
    _, _, dH = nn.dense_softmax_backward(params.head, H, d_logits)
    dXW, _, _, _, _ = nn.lstm_backward(params.decoder, dec_cache, dH)
    assert grads["decoder.W"].dtype == np.float32
    assert np.array_equal(grads["decoder.W"], onehot.T @ dXW)


def _rigged(col, value=50.0):
    params = ModelParams.init(TOY, seed=8)
    for t in params.tensors().values():
        t[...] = 0.0
    params.head.b[col] = value
    return params


def test_greedy_immediate_eos_gives_empty_caption():
    tok = small_tokenizer()
    eos = tok.word_to_index["eos"]
    feat = np.zeros((TOY.frames, TOY.feature_dim), np.float32)
    words = greedy_decode(_rigged(eos - 1), tok, feat, TOY.max_words)
    assert words == []


def test_greedy_without_eos_hits_word_cap():
    tok = small_tokenizer()
    w0 = tok.word_to_index["w0"]
    feat = np.zeros((TOY.frames, TOY.feature_dim), np.float32)
    words = greedy_decode(_rigged(w0 - 1), tok, feat, TOY.max_words)
    assert words == ["w0"] * TOY.max_words


def test_greedy_bos_argmax_terminates_without_emitting():
    tok = small_tokenizer()
    bos = tok.word_to_index["bos"]
    feat = np.zeros((TOY.frames, TOY.feature_dim), np.float32)
    words = greedy_decode(_rigged(bos - 1), tok, feat, TOY.max_words)
    assert words == []


def test_greedy_requires_sentinels():
    tok = Tokenizer(cap=7).fit([["x", "y", "z"]])
    feat = np.zeros((TOY.frames, TOY.feature_dim), np.float32)
    with pytest.raises(InputError):
        greedy_decode(ModelParams.init(TOY, seed=8), tok, feat)


def test_greedy_output_excludes_sentinels_and_respects_cap():
    tok = small_tokenizer()
    params = ModelParams.init(TOY, seed=9)
    rng = np.random.default_rng(9)
    for _ in range(10):
        feat = rng.standard_normal((TOY.frames, TOY.feature_dim)).astype(np.float32)
        words = greedy_decode(params, tok, feat, TOY.max_words)
        assert len(words) <= TOY.max_words
        assert "bos" not in words and "eos" not in words


def _diverse_params():
    """Seeded weights, scaled up so that over _videos(35) the greedy rows
    stop after 1, 2, 3 and 4 steps, some choose bos and some run to
    max_words (pinned by test_diverse_params_cover_every_stop_and_bos)."""
    params = ModelParams.init(TOY, seed=7)
    params.head.W *= 6
    params.encoder.W *= 3
    params.decoder.W *= 3
    return params


def _videos(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, TOY.frames, TOY.feature_dim)).astype(np.float32)


def test_diverse_params_cover_every_stop_and_bos():
    tok = small_tokenizer()
    params = _diverse_params()
    chosen = [oracles.greedy_caption_per_video(params, tok, f, TOY.max_words)[1]
              for f in _videos(35)]
    eos, bos = tok.word_to_index["eos"], tok.word_to_index["bos"]
    assert {len(c) for c in chosen if c[-1] == eos} == {1, 2, 3, 4}
    assert any(len(c) == TOY.max_words and c[-1] != eos for c in chosen)
    assert any(bos in c for c in chosen)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 35])
@pytest.mark.parametrize("weights", ["diverse", "init"])
def test_greedy_split_matches_per_video_oracle(n, weights):
    # chunks of DECODE_CHUNK rows leaving the batch at their own eos must
    # caption each video as the one-video loop does
    tok = small_tokenizer()
    params = _diverse_params() if weights == "diverse" else ModelParams.init(TOY, seed=9)
    videos = _videos(n)
    want = [oracles.greedy_caption_per_video(params, tok, f, TOY.max_words)[0]
            for f in videos]
    assert greedy_decode(params, tok, iter(list(videos)), TOY.max_words) == want
    assert [greedy_decode(params, tok, f, TOY.max_words) for f in videos] == want


def _recording_decode_step(monkeypatch, drawn):
    """Patch model.decode_step to log (videos drawn so far, token)."""
    calls, step = [], model.decode_step

    def recording(params, state, token):
        calls.append((len(drawn), np.array(token)))
        return step(params, state, token)

    monkeypatch.setattr(model, "decode_step", recording)
    return calls


def test_greedy_reads_a_split_one_chunk_at_a_time(monkeypatch):
    tok = small_tokenizer()
    drawn, C = [], model.DECODE_CHUNK

    def videos():
        for f in _videos(2 * C + 3):
            drawn.append(f)
            yield f

    calls = _recording_decode_step(monkeypatch, drawn)
    captions = greedy_decode(_diverse_params(), tok, videos(), TOY.max_words)
    assert len(captions) == len(drawn) == 2 * C + 3
    # each chunk's first step feeds bos to all of its rows, and no video
    # is drawn before the chunk that decodes it
    firsts = [(n, t) for i, (n, t) in enumerate(calls) if i == 0 or calls[i - 1][0] != n]
    assert [(n, t.size) for n, t in firsts] == [(C, C), (2 * C, C), (2 * C + 3, 3)]
    assert all((t == tok.word_to_index["bos"]).all() for _, t in firsts)
    assert all(t.ndim == 1 and 1 <= t.size <= model.DECODE_CHUNK for _, t in calls)


def test_greedy_one_video_feeds_scalar_tokens(monkeypatch):
    # perfbench's rescore check records these tokens as scalars
    tok = small_tokenizer()
    calls = _recording_decode_step(monkeypatch, [])
    greedy_decode(_diverse_params(), tok, _videos(1)[0], TOY.max_words)
    assert calls and all(t.ndim == 0 for _, t in calls)
    assert calls[0][1] == tok.word_to_index["bos"]


def test_greedy_empty_split_and_misshaped_video():
    tok = small_tokenizer()
    params = ModelParams.init(TOY, seed=9)
    assert greedy_decode(params, tok, iter([]), TOY.max_words) == []
    videos = [np.zeros((TOY.frames, TOY.feature_dim), np.float32),
              np.zeros((TOY.frames + 1, TOY.feature_dim), np.float32)]
    with pytest.raises(ValueError):
        greedy_decode(params, tok, videos, TOY.max_words)


def test_inference_and_training_passes_leave_the_weights_bitwise_unchanged():
    # lstm_forward activates its XW in place, so a gather that returned a
    # view of decoder.W (a scalar index's basic-indexing row) would
    # overwrite the embedding table with gates
    tok = small_tokenizer()
    params = _diverse_params()
    before = {name: t.tobytes() for name, t in params.tensors().items()}
    videos = _videos(17)
    decode_step(params, DecodeState(*encode_video(params, videos[0])), 3)
    stacked = nn.lstm_forward(params.encoder, model._project(params, videos[:3]))
    decode_step(params, DecodeState(*stacked[1:3]), np.array([3, 3, 5]))
    greedy_decode(params, tok, videos[0], TOY.max_words)
    greedy_decode(params, tok, iter(list(videos)), TOY.max_words)  # one chunk of 17
    feat, dec_in, _ = toy_inputs(15, dtype=np.float32)
    training_forward(params, feat, dec_in)
    training_forward(params, videos[:2], np.stack([dec_in, dec_in[::-1]]))
    assert {name: t.tobytes() for name, t in params.tensors().items()} == before
    dec = params.decoder
    with pytest.raises(ValueError, match="shares memory"):
        nn.lstm_forward(dec, dec.W[2][None])
    with pytest.raises(ValueError, match="dtype"):
        nn.lstm_forward(dec, dec.W[2][None].astype(np.float64))
    assert {name: t.tobytes() for name, t in params.tensors().items()} == before


def test_encode_video_peak_is_one_gate_array_and_the_states():
    # the projection XW becomes the gate array in place: one video's
    # call holds one (T, 4 latent) array and every step's Hs and Cs, not
    # two gate arrays
    cfg = ModelConfig(frames=80, feature_dim=8, latent=128, max_words=4, vocab=7)
    params = ModelParams.init(cfg, seed=11)
    feat = np.random.default_rng(11).standard_normal(
        (cfg.frames, cfg.feature_dim)).astype(np.float32)
    _, _, peak = traced(encode_video, params, feat)
    xw = 4 * cfg.frames * 4 * cfg.latent  # 160 KiB
    states = 2 * 4 * (cfg.frames + 1) * cfg.latent  # Hs and Cs, 81 KiB
    # slack: one step's rows and numpy's views and small-buffer caches
    # over 80 steps (~38 KiB here)
    assert peak <= xw + states + 48 * 2**10 < 2 * xw


def test_max_words_cap():
    ModelConfig(max_words=model.MAX_WORDS).validate()
    with pytest.raises(InputError, match="max_words must be at most 1024"):
        ModelConfig(max_words=model.MAX_WORDS + 1).validate()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = ModelParams.init(TOY, seed=10)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    cfg, loaded, adam = load_checkpoint(path)
    assert cfg == TOY and adam is None
    for name, t in params.tensors().items():
        assert np.array_equal(loaded.tensors()[name], t)


def test_checkpoint_bytes_match_the_tobytes_writer(tmp_path, monkeypatch):
    params = ModelParams.init(TOY, seed=12)
    save_checkpoint(tmp_path / "a.sq2s", TOY, params)
    monkeypatch.setattr(model, "_write_tensor", oracles.write_tensor_tobytes)
    save_checkpoint(tmp_path / "b.sq2s", TOY, params)
    assert (tmp_path / "a.sq2s").read_bytes() == (tmp_path / "b.sq2s").read_bytes()


def test_checkpoint_save_copies_no_tensor(tmp_path):
    # each payload goes to the file from the array's own buffer
    params = ModelParams.init(WIDE, seed=3)
    _, _, peak = traced(save_checkpoint, tmp_path / "model.sq2s", WIDE, params)
    assert params.encoder.W.nbytes >= 4 * 2**20
    assert peak <= 2**20


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.sq2s", tmp_path / "b.sq2s"
    save_checkpoint(a, TOY, ModelParams.init(TOY, seed=23))
    cfg, loaded, _ = load_checkpoint(a)
    save_checkpoint(b, cfg, loaded)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_load_peaks_at_its_tensors(tmp_path):
    # each payload is read straight into its view of the one buffer
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, WIDE, ModelParams.init(WIDE, seed=3))
    (_, params, _), _, peak = traced(load_checkpoint, path)
    assert params.flat.nbytes == param_count(WIDE)[3] * 4 > 4 * 2**20
    assert peak <= params.flat.nbytes + 2**20, (params.flat.nbytes, peak)


def test_checkpoint_rerun_is_byte_identical(tmp_path):
    params = ModelParams.init(TOY, seed=12)
    a, b = tmp_path / "a.sq2s", tmp_path / "b.sq2s"
    save_checkpoint(a, TOY, params)
    save_checkpoint(b, TOY, params)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.sq2s"
    path.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(InputError, match="bad magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", range(5))
def test_checkpoint_zero_dim_in_header(tmp_path, field):
    name = ("frames", "feature_dim", "latent", "max_words", "vocab")[field]
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, ModelParams.init(TOY, seed=13))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8 + 4 * field, 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match=f"{name} must be positive, got 0"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = ModelParams.init(TOY, seed=13)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.sq2s"
    clipped.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(InputError, match="truncated"):
        load_checkpoint(clipped)


def test_checkpoint_unsupported_version(tmp_path):
    params = ModelParams.init(TOY, seed=14)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="version"):
        load_checkpoint(path)


def test_checkpoint_config_tensor_mismatch(tmp_path):
    params = ModelParams.init(TOY, seed=15)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    blob = bytearray(path.read_bytes())
    blob[16] = TOY.latent + 1  # config latent no longer matches payloads
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_tensor_name_not_utf8(tmp_path):
    params = ModelParams.init(TOY, seed=16)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    blob = bytearray(path.read_bytes())
    blob[30] = 0xFF  # first byte of the first tensor name
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match=r"record at byte 28 is not tensor "
                                         r"'encoder.W' with shape \(3, 16\)"):
        load_checkpoint(path)


def test_checkpoint_duplicate_tensor(tmp_path):
    params = ModelParams.init(TOY, seed=17)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    with open(path, "ab") as fh:
        _write_tensor(fh, "head.b", params.head.b)
    with pytest.raises(InputError, match="trailing bytes after tensor 'head.b'"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["encoder.Wx", "m.head", "x", "m.encoder.W"])
def test_checkpoint_unknown_tensor(tmp_path, name):
    # m.encoder.W is a former Adam-moment record: no longer part of the format
    params = ModelParams.init(TOY, seed=17)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    extra = 3 + len(name) + 8 + params.encoder.W.nbytes  # one rank-2 record
    with open(path, "ab") as fh:
        _write_tensor(fh, name, params.encoder.W)
    with pytest.raises(InputError, match=f"{extra} trailing bytes after tensor 'head.b'"):
        load_checkpoint(path)


def test_checkpoint_swapped_records(tmp_path):
    params = ModelParams.init(TOY, seed=17)
    tensors = params.tensors()
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    with open(path, "r+b") as fh:
        fh.seek(28)
        _write_tensor(fh, "encoder.U", tensors["encoder.U"])
        _write_tensor(fh, "encoder.W", tensors["encoder.W"])
    with pytest.raises(InputError, match="record at byte 28 is not tensor 'encoder.W'"):
        load_checkpoint(path)


def test_checkpoint_record_layout_is_fixed(tmp_path):
    params = ModelParams.init(TOY, seed=17)
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    blob, pos = path.read_bytes(), 28
    for name, t in params.tensors().items():
        header = (struct.pack("<H", len(name)) + name.encode()
                  + struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape))
        assert blob[pos:pos + len(header)] == header
        pos += len(header)
        assert blob[pos:pos + t.nbytes] == t.astype("<f4").tobytes()
        pos += t.nbytes
    assert pos == len(blob)


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, ModelParams.init(TOY, seed=21))
    before = path.read_bytes()
    written = []

    def failing_write(fh, name, arr):
        if written:
            raise OSError("disk full")
        written.append(name)
        _write_tensor(fh, name, arr)

    monkeypatch.setattr(model, "_write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, TOY, ModelParams.init(TOY, seed=22))
    assert written == ["encoder.W"]
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sq2s"]


@pytest.mark.parametrize("name", TENSOR_ORDER)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_nonfinite_weights(tmp_path, name, bad):
    params = ModelParams.init(TOY, seed=18)
    params.tensors()[name].reshape(-1)[-1] = bad
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, params)
    with pytest.raises(InputError, match=f"tensor '{name}' has non-finite"):
        load_checkpoint(path)


def test_checkpoint_oversized_dims_rejected_before_allocation(tmp_path):
    # only encoder.W's record header is present; its payload would be
    # ~2**66 bytes (past int64) or 64 MB
    def rejected(path):
        with pytest.raises(InputError, match="'encoder.W' is missing or truncated"):
            load_checkpoint(path)

    path = tmp_path / "model.sq2s"
    for feature_dim, latent in [(2**32 - 1, 2**30 - 1), (4096, 1024)]:
        path.write_bytes(CHECKPOINT_MAGIC
                         + struct.pack("<6I", 1, 1, feature_dim, latent, 1, 1)
                         + model._record_header("encoder.W", (feature_dim, 4 * latent)))
        _, _, peak = traced(rejected, path)
        assert peak < 64 * 1024


def test_checkpoint_latent_beyond_32_bit_dims(tmp_path):
    # 4 * latent must fit a record's 32-bit dim, or no record could match
    path = tmp_path / "model.sq2s"
    save_checkpoint(path, TOY, ModelParams.init(TOY, seed=20))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 16, 2**30)
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match=r"latent must be below 2\*\*30"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor(tmp_path):
    path = tmp_path / "model.sq2s"
    import struct
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<5I", TOY.frames, TOY.feature_dim, TOY.latent,
                             TOY.max_words, TOY.vocab))
    with pytest.raises(InputError, match="missing"):
        load_checkpoint(path)
