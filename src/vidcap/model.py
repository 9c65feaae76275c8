"""Encoder-decoder captioning model: assembly, training pass, inference.

The encoder LSTM consumes a frames x feature_dim matrix; its final
hidden and cell state initialize the decoder LSTM, which consumes one
word index k in [1, V] per step (0 pads a caption).  A shared dense
softmax head maps every decoder hidden state to a distribution over
the vocabulary.  decoder.W (V x 4H) is the word-embedding table: word k
reads row k - 1, exactly its one-hot product, padding reads zeros, and
the backward pass scatter-adds each step's gradient into that row.
_decode is the one place it is read: training_forward runs it over a
batch's captions and decode_step over one step of greedy decoding.
"""

from dataclasses import dataclass
import itertools
import math
import os
import struct

import numpy as np

from . import nn
from .corpus import BOS, EOS
from .util import InputError, all_finite, read_header, write_atomic

CHECKPOINT_MAGIC = b"SQ2S"
CHECKPOINT_VERSION = 1
MAX_WORDS = 1024  # ~100x the paper's 10, so no header can decode without end
# videos per decoder batch when greedy_decode captions a split; eval's
# 101 full-size videos are one chunk, whose encoder and decoder steps
# each take all 101 rows through one product (h @ U at latent 512: 59 us
# per row at 16 rows, 26 at 101, 23 at 128; one BLAS thread, 2-core Xeon)
DECODE_CHUNK = 128
# a chunk of n videos is encoded S = rows // n frames at a time, rows
# being SLICE_VIDEOS videos' frames, at least DECODE_CHUNK; its two
# slice buffers (frames, and their projection) are allocated per chunk,
# S x n rows.  At full size rows is 640, 6 frames for eval's 101 videos
# (606 rows: 9.9 MB of frames, 5.0 MB of gates) and all 80 for 2 videos
# (160 rows); on 16 x 2048 features at latent 8, 128 rows (1 MB).
# greedy_decode over those 101 full-size videos peaked at 20.7 MiB
# (tracemalloc), in its encoder slices and decode steps alike
SLICE_VIDEOS = 8

# a checkpoint's eight records, in file order, and the shape the config
# gives each
_EXPECTED_SHAPES = {
    "encoder.W": lambda c: (c.feature_dim, 4 * c.latent),
    "encoder.U": lambda c: (c.latent, 4 * c.latent),
    "encoder.b": lambda c: (4 * c.latent,),
    "decoder.W": lambda c: (c.vocab, 4 * c.latent),
    "decoder.U": lambda c: (c.latent, 4 * c.latent),
    "decoder.b": lambda c: (4 * c.latent,),
    "head.W": lambda c: (c.latent, c.vocab),
    "head.b": lambda c: (c.vocab,),
}
TENSOR_ORDER = tuple(_EXPECTED_SHAPES)


@dataclass
class ModelConfig:
    frames: int = 80
    feature_dim: int = 4096
    latent: int = 512
    max_words: int = 10
    vocab: int = 1500

    def validate(self):
        for name in ("frames", "feature_dim", "latent", "max_words", "vocab"):
            value = getattr(self, name)
            if value < 1:
                raise InputError(f"{name} must be positive, got {value}")
        if self.latent >= 2 ** 30:  # 4 * latent is a 32-bit checkpoint dim
            raise InputError(f"latent must be below 2**30, got {self.latent}")
        if self.max_words > MAX_WORDS:
            raise InputError(f"max_words must be at most {MAX_WORDS}, "
                             f"got {self.max_words}")
        return self


def param_count(cfg):
    """Closed-form parameter counts: (encoder, decoder, head, total)."""
    enc = 4 * (cfg.feature_dim + cfg.latent + 1) * cfg.latent
    dec = 4 * (cfg.vocab + cfg.latent + 1) * cfg.latent
    head = (cfg.latent + 1) * cfg.vocab
    return enc, dec, head, enc + dec + head


@dataclass
class ModelParams:
    """The model's eight TENSOR_ORDER tensors, as views that tile one
    contiguous 1-D buffer, flat, back to back in that order.

    Adam updates flat in one pass (nn.adam_step), and a training run's
    gradients are one buffer of the same layout, whose named views
    views(buffer) gives.  Build one with init, _params_from_tensors or
    load_checkpoint; each fills the views of a new buffer in place.
    """

    encoder: nn.LstmParams
    decoder: nn.LstmParams
    head: nn.DenseParams
    flat: np.ndarray
    named: dict  # the same views, by name in TENSOR_ORDER

    @classmethod
    def empty(cls, shapes, dtype):
        """Uninitialized parameters: a new buffer that the TENSOR_ORDER
        shapes (a name -> shape dict) tile."""
        flat = np.empty(sum(math.prod(s) for s in shapes.values()), dtype=dtype)
        t = _tile(flat, shapes)
        return cls(nn.LstmParams(t["encoder.W"], t["encoder.U"], t["encoder.b"]),
                   nn.LstmParams(t["decoder.W"], t["decoder.U"], t["decoder.b"]),
                   nn.DenseParams(t["head.W"], t["head.b"]), flat, t)

    @classmethod
    def init(cls, cfg, seed, dtype=np.float32):
        """Seeded initialization; identical seeds give identical tensors.
        Each initializer fills its views of one new buffer in place, and
        the head's bias is zero."""
        params = cls.empty(_shapes(cfg), dtype)
        rng = np.random.default_rng(seed)
        nn.init_lstm_params(rng, params.encoder)
        nn.init_lstm_params(rng, params.decoder)
        nn.glorot_uniform(rng, params.head.W)
        params.head.b[...] = 0.0
        return params

    def tensors(self):
        """Named parameter tensors in the fixed checkpoint order (a copy
        of named: the dict is new, the tensors are the views)."""
        return dict(self.named)

    def views(self, buffer):
        """Named views of buffer (1-D, flat's size) laid out as the tensors."""
        return _tile(buffer, {k: t.shape for k, t in self.tensors().items()})


def _shapes(cfg):
    return {name: make_shape(cfg) for name, make_shape in _EXPECTED_SHAPES.items()}


def _tile(flat, shapes):
    """Named views of consecutive pieces of flat, one per shape, in order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def _params_from_tensors(t):
    """ModelParams holding copies of the TENSOR_ORDER tensors in dict t,
    in one buffer of their common dtype."""
    params = ModelParams.empty({k: t[k].shape for k in TENSOR_ORDER},
                               np.result_type(*t.values()))
    for name, view in params.tensors().items():
        view[...] = t[name]
    return params


def training_forward(params, feats, dec_in, video=slice(None)):
    """Teacher-forced pass over a batch: each feats column (a distinct
    video, as training.read_batch stacks them) encoded once, every
    caption decoded.

    feats stacks Bv videos time-major (frames x Bv x D), the layout
    _encode_chunk's slices have; dec_in holds B captions' decoder input
    word indices (B x T, 0 at padding steps) and video (B,) the feats
    column each caption reads, by default column i for caption i; an
    explicit row map must read every column (read_batch's does), else
    ValueError, which also catches most video-major stacks.  The
    captions' decoders start from their columns' final (h, c), and
    _decode runs them as one recurrence over decoder.W's embedding rows
    (a word k reads row k - 1); the head maps all T·B hidden states in
    one product.  Returns (P, caches), P time-major (T x B x V).  A 1-D
    dec_in is one caption and feats its video (frames x D): the B = 1
    case, whose P is T x V.
    """
    single = np.ndim(dec_in) == 1
    if single:
        feats, dec_in = np.asarray(feats)[:, None], np.asarray(dec_in)[None]
    n = np.shape(feats)[1]
    if not isinstance(video, slice) and not np.bincount(video, minlength=n).all():
        raise ValueError(f"row map {video} does not read all {n} feats columns: "
                         "is feats time-major (frames x Bv x D)?")
    _, h, c, enc_cache = nn.lstm_forward(params.encoder, _project(params, feats))
    steps = np.asarray(dec_in).T
    P, H, _, _, dec_cache = _decode(params, steps, h[video], c[video])
    return (P[:, 0] if single else P), (feats, video, enc_cache, steps, dec_cache, H, P)


def _decode(params, steps, h, c):
    """The decoder pass from state (h, c) over T steps of word indices
    (T, or T x B with (B, latent) state rows): each index k reads row
    k - 1 of decoder.W, the embedding table (0 pads, and reads zeros),
    one lstm_forward runs the recurrence and the softmax head maps every
    hidden state.  Returns (P, H, h_T, c_T, cache), P of shape T x [B x] V.
    """
    XW = params.decoder.W[steps - 1]  # a copying gather, which lstm_forward consumes
    XW[steps == 0] = 0  # padding reads zeros
    H, h, c, cache = nn.lstm_forward(params.decoder, XW, h, c)
    P = nn.dense_softmax_forward(params.head, H.reshape(-1, H.shape[-1]))
    return P.reshape(steps.shape + (-1,)), H, h, c, cache


def training_backward(params, caches, target, grads=None):
    """Batch-mean loss and parameter gradients for a cached training_forward pass.

    target ((B, T), or (T,) for one caption) holds each step's correct
    word index, 0 at padding steps, which nn.cross_entropy leaves out of
    the loss and its gradient.
    The (dh0, dc0) rows of captions that share a video are summed before
    the encoder's backward, which is exact: lstm_backward is linear in
    them.
    Every gradient is written in place into its view in grads, the
    named views params.views gives of a buffer laid out as params.flat
    (train passes those of its one buffer per run), or of a new buffer
    when grads is None.  Returns (loss, grads).
    """
    feats, video, enc_cache, steps, dec_cache, H, P = caches
    if grads is None:
        grads = params.views(np.empty_like(params.flat))
    loss, d_logits = nn.cross_entropy(P, np.atleast_2d(target).T)
    _, _, dH = nn.dense_softmax_backward(params.head, H.reshape(-1, H.shape[-1]),
                                         d_logits.reshape(-1, P.shape[-1]),
                                         out=(grads["head.W"], grads["head.b"]))
    dXW_d, _, _, dh0, dc0 = nn.lstm_backward(params.decoder, dec_cache,
                                             dH.reshape(H.shape),
                                             out=(grads["decoder.U"], grads["decoder.b"]))
    dW_d, words = grads["decoder.W"], steps > 0
    dW_d[...] = 0
    # row by row in step order, as the one-hot product sums; np.add.at
    # took 16x as long (200 rows of 2048 floats, numpy 2.4)
    for k, row in zip((steps[words] - 1).tolist(), dXW_d[words]):
        dW_d[k] += row
    owner = np.eye(feats.shape[1], dtype=dh0.dtype)[:, video]  # Bv x B, 1 where column feeds caption
    dXW_e, _, _, _, _ = nn.lstm_backward(params.encoder, enc_cache, None,
                                         owner @ dh0, owner @ dc0,
                                         out=(grads["encoder.U"], grads["encoder.b"]))
    np.matmul(feats.reshape(-1, feats.shape[-1]).T, dXW_e.reshape(-1, dXW_e.shape[-1]),
              out=grads["encoder.W"])
    return loss, grads


def _project(params, feat, out=None):
    """feat @ encoder.W in one GEMM, laid out as lstm_forward takes XW:
    feat is time-major (frames x B x D, a training batch or an encoder
    slice), and so is its product (frames x B x 4 latent, C-contiguous),
    written into out when given (a C-contiguous frames·B x 4 latent
    buffer) and returned as a view of it.  Any other rank raises
    ValueError."""
    feat = np.asarray(feat)
    if feat.ndim != 3:
        raise ValueError(f"features have shape {feat.shape}, expected 3 axes")
    XW = np.matmul(feat.reshape(-1, feat.shape[-1]), params.encoder.W, out=out)
    return XW.reshape(feat.shape[:2] + (-1,))


def _slice_rows(frames):
    """The most rows of a chunk's two slice buffers (frames, and their
    projection): SLICE_VIDEOS videos' frames, and at least one per video
    of a chunk."""
    return max(SLICE_VIDEOS * frames, DECODE_CHUNK)


def _encode_chunk(params, videos):
    """Final encoder state of a chunk of n videos (each frames x D:
    arrays, or lazy sources with shape that slice like them), streamed
    over time S = _slice_rows(frames) // n frames at a time.

    Two buffers are allocated for the chunk, X (S x n x D), time-major,
    and its projection XW (S·n x 4 latent).  For each slice of S frames
    (the last may be shorter), each video's rows, video[t:t + s], are
    copied into its column X[:s, j] (a lazy source's read is a new s x D
    array, freed once copied).  One GEMM projects the slice into XW's
    first s·n rows, and one lstm_forward call advances the chunk's
    recurrence over it from copies of the previous slice's final state,
    so only one slice's Hs and Cs are alive.  Each frame is
    read once.  A GEMM's rows round alike in either order, and chained
    calls as one call does, so the state is bitwise one stacked
    lstm_forward's.
    """
    (frames, dim), n, W = videos[0].shape, len(videos), params.encoder.W
    S = min(_slice_rows(frames) // n, frames)
    X = np.empty((S, n, dim), dtype=videos[0].dtype)
    XW = np.empty((S * n, W.shape[1]), dtype=np.result_type(X.dtype, W.dtype))
    h = c = None
    for t in range(0, frames, S):
        s = min(S, frames - t)
        x = X[:s]
        for j, video in enumerate(videos):
            x[:, j] = video[t:t + s]
        xw = _project(params, x, XW[:s * n])
        # copies, so that nothing keeps this slice's Hs and Cs alive
        h, c = [state.copy() for state in nn.lstm_forward(params.encoder, xw, h, c)[1:3]]
    return h, c


def encode_video(params, feat):
    """Final encoder state (h, c) of one video (frames x D): row 0 of
    _encode_chunk's state for the one-video chunk [feat], whose one
    slice holds every frame; frame outputs are dropped.  Any other rank
    raises ValueError."""
    if np.ndim(feat) != 2:
        raise ValueError(f"video has shape {np.shape(feat)}, expected (frames, D)")
    h, c = _encode_chunk(params, [np.asarray(feat)])
    return h[0], c[0]


@dataclass
class DecodeState:
    h: np.ndarray
    c: np.ndarray


def decode_step(params, state, token_index):
    """One decoder step on a token index, or on B indices with (B, latent)
    state rows: training_forward's decoder pass, _decode, at T = 1, which
    reads word k's embedding as row k - 1 of decoder.W and applies the
    same softmax head.  Returns (probs, state), probs (V,) or (B, V)."""
    V = params.decoder.input_dim
    index = np.asarray(token_index)
    if index.min() < 1 or index.max() > V:
        raise InputError(f"token index {token_index} outside [1, {V}]")
    P, _, h, c, _ = _decode(params, index[None], state.h, state.c)
    return P[0], DecodeState(h, c)


class DecodeDiverged(RuntimeError):
    """Greedy decoding produced non-finite probabilities."""


def greedy_decode(params, tok, feats, max_words=ModelConfig.max_words):
    """Greedy captioning: feed bos, take the argmax, re-feed, stop on eos.

    feats is one video's frames x D matrix, which gives its word list,
    or an iterable of videos, which gives their word lists.  A video is
    a frames x D array or a lazy source of one (features.VideoFrames:
    its shape, and video[rows] to read a range of frames).  The
    iterable is drawn DECODE_CHUNK videos per chunk, whose rows step
    together, each leaving the batch at its eos; every video must have
    the first one's shape.  _encode_chunk streams a chunk through the
    encoder one slice of frames at a time, in buffers sized to the
    chunk, so with lazy sources memory is bounded by one slice and one
    video's rows of it, not by the chunk or the split (arrays are held
    a chunk at a time, as drawn).

    At most max_words steps run and no list contains a sentinel.  The
    argmax runs over the fitted vocabulary (ties to the lowest index); a
    degenerate bos prediction is re-fed but left out of the caption.  A
    step whose probabilities are not all finite (finite weights can
    still overflow) raises DecodeDiverged instead of numpy warnings.
    """
    bos = tok.word_to_index.get(BOS)
    eos = tok.word_to_index.get(EOS)
    if bos is None or eos is None:
        raise InputError(f"tokenizer must contain '{BOS}' and '{EOS}'")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(feats, np.ndarray) and feats.ndim == 2:
            state = DecodeState(*encode_video(params, feats))
            return _greedy_rows(params, tok, state, bos, bos, eos, max_words)[0]
        captions, videos, shape = [], iter(feats), None
        while chunk := list(itertools.islice(videos, DECODE_CHUNK)):
            shape = shape or chunk[0].shape
            for video in chunk:
                if video.shape != shape:
                    raise ValueError(f"video shape {video.shape} is not {shape}")
            state = DecodeState(*_encode_chunk(params, chunk))
            captions += _greedy_rows(params, tok, state, np.full(len(chunk), bos),
                                     bos, eos, max_words)
    return captions


def _greedy_rows(params, tok, state, prev, bos, eos, max_words):
    """Greedy steps from state, feeding prev (a token, or one per state
    row), until every row has emitted eos or max_words steps have run;
    returns each row's words, without the bos and eos indices."""
    rows = np.arange(np.size(prev))  # the caption each remaining row extends
    words = [[] for _ in rows]
    for step in range(1, max_words + 1):
        probs, state = decode_step(params, state, prev)
        if not all_finite(probs):
            raise DecodeDiverged(f"decode step {step}: non-finite probabilities")
        prev = probs[..., :tok.size].argmax(axis=-1) + 1
        for row, k in zip(rows, np.atleast_1d(prev)):
            if k != eos and k != bos:
                words[row].append(tok.index_to_word[k])
        going = np.atleast_1d(prev != eos)
        if not going.all():
            rows = rows[going]
            if rows.size == 0:
                break
            prev, state = prev[going], DecodeState(state.h[going], state.c[going])
    return words


def _record_header(name, shape):
    """A tensor record's header: name length, UTF-8 name, rank, dims."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<H{len(encoded)}sB{len(shape)}I",
                       len(encoded), encoded, len(shape), *shape)


def _write_tensor(fh, name, arr):
    data = np.asarray(arr, dtype="<f4")  # a view of flat, contiguous
    fh.write(_record_header(name, data.shape))
    fh.write(data)  # the array's own buffer: no bytes copy of the tensor


def save_checkpoint(path, cfg, params):
    """Serialize the config header and the eight TENSOR_ORDER tensors.

    Tensors are written as float32 in that fixed order and nothing else
    follows (no optimizer state), so identical training runs produce
    byte-identical files.  The file is written whole or not at all
    (util.write_atomic): a failed save leaves any previous file at path
    untouched.
    """
    tensors = params.tensors()
    with write_atomic(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<5I", cfg.frames, cfg.feature_dim, cfg.latent,
                             cfg.max_words, cfg.vocab))
        for name in TENSOR_ORDER:
            _write_tensor(fh, name, tensors[name])


def load_checkpoint(path):
    """Read a checkpoint; returns (config, params, None).

    The file must be exactly what save_checkpoint writes: the 28-byte
    header, then the eight TENSOR_ORDER records in order, each with the
    shape the header's config implies, and no trailing bytes.  A first
    pass checks each record's size against the file before comparing its
    header, and then that nothing trails the last; only then is the
    parameter buffer allocated, and a second pass reads each payload
    straight into its view.  A header dimension of 0, any other layout
    or a non-finite value raises InputError.  The third slot is always
    None.
    """
    with open(path, "rb") as fh:
        head, size = read_header(fh, path, 28, CHECKPOINT_MAGIC)
        (version,) = struct.unpack_from("<I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise InputError(f"{path}: unsupported format version {version}")
        cfg = ModelConfig(*struct.unpack_from("<5I", head, 8))
        try:
            cfg.validate()
        except InputError as e:
            raise InputError(f"{path}: {e}") from None
        shapes, payloads = _shapes(cfg), []
        for name, shape in shapes.items():
            header = _record_header(name, shape)
            # math.prod: header dims near 2**32 overflow np.prod's int64
            nbytes = 4 * math.prod(shape)
            pos = fh.tell()
            if pos + len(header) + nbytes > size:
                raise InputError(f"{path}: tensor '{name}' is missing or truncated")
            if fh.read(len(header)) != header:
                raise InputError(f"{path}: record at byte {pos} is not tensor "
                                 f"'{name}' with shape {shape}")
            payloads.append(fh.tell())
            fh.seek(nbytes, os.SEEK_CUR)
        if fh.tell() != size:
            raise InputError(f"{path}: {size - fh.tell()} trailing bytes after "
                             f"tensor '{TENSOR_ORDER[-1]}'")
        params = ModelParams.empty(shapes, "<f4")
        for pos, (name, arr) in zip(payloads, params.tensors().items()):
            fh.seek(pos)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise InputError(f"{path}: tensor '{name}' is missing or truncated")
            if not all_finite(arr):
                raise InputError(f"{path}: tensor '{name}' has non-finite values")
    return cfg, params, None
