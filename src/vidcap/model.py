"""Encoder-decoder captioning model: assembly, training pass, inference.

The encoder LSTM consumes a frames x feature_dim matrix; its final
hidden and cell state initialize the decoder LSTM, which consumes one
word index k in [1, V] per step (0 pads a caption).  A shared dense
softmax head maps every decoder hidden state to a distribution over
the vocabulary.  decoder.W (V x 4H) is the word-embedding table: word k
reads row k - 1, exactly its one-hot product, padding reads zeros, and
the backward pass scatter-adds each step's gradient into that row.
"""

from dataclasses import dataclass
import itertools
import math
import os
import struct

import numpy as np

from . import nn
from .util import InputError

CHECKPOINT_MAGIC = b"SQ2S"
CHECKPOINT_VERSION = 1
MAX_WORDS = 1024  # ~100x the paper's 10, so no header can decode without end
# videos per encoder GEMM and decoder batch when greedy_decode captions
# a split.  At full size a chunk's working set is 16 x 80 x 4096 float32
# frames (21 MB), one 80 x 16 x 2048 gate array (10.5 MB, the projection
# that lstm_forward activates in place) and Hs and Cs (5.3 MB together)
EVAL_CHUNK = 16

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
    encoder: nn.LstmParams
    decoder: nn.LstmParams
    head: nn.DenseParams

    @classmethod
    def init(cls, cfg, seed, dtype=np.float32):
        """Seeded initialization; identical seeds give identical tensors."""
        rng = np.random.default_rng(seed)
        return cls(nn.init_lstm_params(rng, cfg.feature_dim, cfg.latent, dtype),
                   nn.init_lstm_params(rng, cfg.vocab, cfg.latent, dtype),
                   nn.init_dense_params(rng, cfg.latent, cfg.vocab, dtype))

    def tensors(self):
        """Named parameter tensors in the fixed checkpoint order."""
        return {"encoder.W": self.encoder.W, "encoder.U": self.encoder.U,
                "encoder.b": self.encoder.b,
                "decoder.W": self.decoder.W, "decoder.U": self.decoder.U,
                "decoder.b": self.decoder.b,
                "head.W": self.head.W, "head.b": self.head.b}


def _params_from_tensors(t):
    return ModelParams(
        nn.LstmParams(t["encoder.W"], t["encoder.U"], t["encoder.b"]),
        nn.LstmParams(t["decoder.W"], t["decoder.U"], t["decoder.b"]),
        nn.DenseParams(t["head.W"], t["head.b"]))


def training_forward(params, feats, dec_in, video=slice(None)):
    """Teacher-forced pass over a batch: each feats row (a distinct video,
    as training.read_batch stacks them) encoded once, every caption decoded.

    feats stacks Bv videos (Bv x frames x D), dec_in holds B captions'
    decoder input word indices (B x T, 0 at padding steps) and video
    (B,) the feats row each caption reads, by default row i for caption
    i.  The captions' decoders start from their rows' final (h, c) and
    step as one recurrence; the head maps all T·B hidden states in one
    product.  Returns (P, caches), P time-major (T x B x V).  A 1-D
    dec_in is one caption and feats its video (frames x D): the B = 1
    case, whose P is T x V.
    """
    single = np.ndim(dec_in) == 1
    if single:
        feats, dec_in = np.asarray(feats)[None], np.asarray(dec_in)[None]
    _, h, c, enc_cache = _encoder_forward(params, feats)
    dec, steps = params.decoder, np.asarray(dec_in).T
    XW = dec.W[steps - 1]  # a copying gather, which lstm_forward consumes
    XW[steps == 0] = 0  # padding reads zeros
    H, _, _, dec_cache = nn.lstm_forward(dec, XW, h[video], c[video])
    P = nn.dense_softmax_forward(params.head, H.reshape(-1, dec.hidden))
    P = P.reshape(steps.shape + (-1,))
    return (P[:, 0] if single else P), (feats, video, enc_cache, steps, dec_cache, H, P)


def training_backward(params, caches, target):
    """Batch-mean loss and parameter gradients for a cached training_forward pass.

    target ((B, T), or (T,) for one caption) holds each step's correct
    word index, 0 at padding steps, which nn.cross_entropy leaves out of
    the loss and its gradient.
    The (dh0, dc0) rows of captions that share a video are summed before
    the encoder's backward, which is exact: lstm_backward is linear in
    them.
    """
    feats, video, enc_cache, steps, dec_cache, H, P = caches
    loss, d_logits = nn.cross_entropy(P, np.atleast_2d(target).T)
    dW_h, db_h, dH = nn.dense_softmax_backward(params.head, H.reshape(-1, H.shape[-1]),
                                               d_logits.reshape(-1, P.shape[-1]))
    dXW_d, dU_d, db_d, dh0, dc0 = nn.lstm_backward(params.decoder, dec_cache,
                                                   dH.reshape(H.shape))
    dW_d = np.zeros_like(params.decoder.W)
    # row by row in step order, as the one-hot product sums; np.add.at
    # took 16x as long (200 rows of 2048 floats, numpy 2.4)
    for k, row in zip(steps[steps > 0] - 1, dXW_d[steps > 0]):
        dW_d[k] += row
    owner = np.eye(len(feats), dtype=dh0.dtype)[:, video]  # Bv x B, 1 where row feeds caption
    dXW_e, dU_e, db_e, _, _ = nn.lstm_backward(params.encoder, enc_cache, None,
                                               owner @ dh0, owner @ dc0)
    dXW_e = dXW_e.swapaxes(0, 1).reshape(-1, dXW_e.shape[-1])  # video-major, as feats
    grads = {"encoder.W": feats.reshape(-1, feats.shape[-1]).T @ dXW_e,
             "encoder.U": dU_e, "encoder.b": db_e,
             "decoder.W": dW_d, "decoder.U": dU_d, "decoder.b": db_d,
             "head.W": dW_h, "head.b": db_h}
    return loss, grads


def _encoder_forward(params, feat):
    """encode_video's pass; returns lstm_forward's (H, h, c, cache)."""
    feat = np.asarray(feat)
    XW = feat.reshape(-1, feat.shape[-1]) @ params.encoder.W
    if feat.ndim == 3:  # rows are video-major; the recurrence steps time
        XW = XW.reshape(feat.shape[0], feat.shape[1], -1).swapaxes(0, 1)
    return nn.lstm_forward(params.encoder, XW)


def encode_video(params, feat):
    """Final encoder state of one video (frames x D) or of B stacked ones
    (B x frames x D, one GEMM with encoder.W); frame outputs are dropped."""
    return _encoder_forward(params, feat)[1:3]


@dataclass
class DecodeState:
    h: np.ndarray
    c: np.ndarray


def decode_step(params, state, token_index):
    """One decoder step on a token index, or on B indices with (B, latent)
    state rows: a T = 1 lstm_forward over the words' embedding rows.
    Returns (probs, state), probs (V,) or (B, V)."""
    V = params.decoder.input_dim
    index = np.asarray(token_index)
    if index.min() < 1 or index.max() > V:
        raise InputError(f"token index {token_index} outside [1, {V}]")
    # np.take copies even for a scalar index, whose basic-indexing row
    # would be a view of the weights that lstm_forward's gates overwrite
    XW = np.take(params.decoder.W, index - 1, axis=0)[None]
    H, h, c, _ = nn.lstm_forward(params.decoder, XW, state.h, state.c)
    probs = nn.softmax_rows(H @ params.head.W + params.head.b)[0]
    return probs, DecodeState(h, c)


class DecodeDiverged(RuntimeError):
    """Greedy decoding produced non-finite probabilities."""


def greedy_decode(params, tok, feats, max_words=10):
    """Greedy captioning: feed bos, take the argmax, re-feed, stop on eos.

    feats is one video's frames x D matrix, which gives its word list,
    or an iterable of such matrices, which gives their word lists.  The
    iterable is read lazily into one EVAL_CHUNK-video buffer, so memory
    is bounded by the chunk; each chunk is one encode_video pass whose
    rows step together, each leaving the batch at its eos.

    At most max_words steps run and no list contains a sentinel.  The
    argmax runs over the fitted vocabulary (ties to the lowest index); a
    degenerate bos prediction is re-fed but left out of the caption.  A
    step whose probabilities are not all finite (finite weights can
    still overflow) raises DecodeDiverged instead of numpy warnings.
    """
    bos = tok.word_to_index.get("bos")
    eos = tok.word_to_index.get("eos")
    if bos is None or eos is None:
        raise InputError("tokenizer must contain 'bos' and 'eos'")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(feats, np.ndarray) and feats.ndim == 2:
            state = DecodeState(*encode_video(params, feats))
            return _greedy_rows(params, tok, state, bos, max_words)[0]
        captions, videos, chunk, n = [], iter(feats), None, EVAL_CHUNK
        while n == EVAL_CHUNK:
            n = 0
            for n, feat in enumerate(itertools.islice(videos, EVAL_CHUNK), 1):
                if chunk is None:
                    chunk = np.empty((EVAL_CHUNK,) + feat.shape, dtype=feat.dtype)
                if feat.shape != chunk.shape[1:]:
                    raise ValueError(f"video shape {feat.shape} is not {chunk.shape[1:]}")
                chunk[n - 1] = feat
            if n:
                state = DecodeState(*encode_video(params, chunk[:n]))
                captions += _greedy_rows(params, tok, state, np.full(n, bos), max_words)
    return captions


def _greedy_rows(params, tok, state, prev, max_words):
    """Greedy steps from state, feeding prev (a token, or one per state
    row), until every row has emitted eos or max_words steps have run;
    returns each row's words."""
    bos, eos = tok.word_to_index["bos"], tok.word_to_index["eos"]
    rows = np.arange(np.size(prev))  # the caption each remaining row extends
    words = [[] for _ in rows]
    for step in range(1, max_words + 1):
        probs, state = decode_step(params, state, prev)
        if not np.isfinite(probs).all():
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
    data = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(_record_header(name, data.shape))
    fh.write(data)  # the array's own buffer: no bytes copy of the tensor


def save_checkpoint(path, cfg, params):
    """Serialize the config header and the eight TENSOR_ORDER tensors.

    Tensors are written as float32 in that fixed order and nothing else
    follows (no optimizer state), so identical training runs produce
    byte-identical files.  The bytes go to <path>.tmp in the same
    directory, which then replaces path in one step: a failed save
    leaves any previous file at path untouched.
    """
    tensors = params.tensors()
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<5I", cfg.frames, cfg.feature_dim, cfg.latent,
                                 cfg.max_words, cfg.vocab))
            for name in TENSOR_ORDER:
                _write_tensor(fh, name, tensors[name])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (config, params, None).

    The file must be exactly what save_checkpoint writes: the 28-byte
    header, then the eight TENSOR_ORDER records in order, each with the
    shape the header's config implies, and no trailing bytes.  Each
    record's size is checked against the file before its header is
    compared and its payload is read straight into its array.  A header
    dimension of 0, any other layout or a non-finite value raises
    InputError.  The third slot is always None.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(28)
        if len(head) < 28:
            raise InputError(f"{path}: truncated header ({len(head)} bytes)")
        if head[:4] != CHECKPOINT_MAGIC:
            raise InputError(f"{path}: bad magic {head[:4]!r}")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise InputError(f"{path}: unsupported format version {version}")
        cfg = ModelConfig(*struct.unpack_from("<5I", head, 8))
        try:
            cfg.validate()
        except InputError as e:
            raise InputError(f"{path}: {e}") from None
        tensors = {}
        for name, make_shape in _EXPECTED_SHAPES.items():
            shape = make_shape(cfg)
            header = _record_header(name, shape)
            # math.prod: header dims near 2**32 overflow np.prod's int64
            nbytes = 4 * math.prod(shape)
            pos = fh.tell()
            if pos + len(header) + nbytes > size:
                raise InputError(f"{path}: tensor '{name}' is missing or truncated")
            if fh.read(len(header)) != header:
                raise InputError(f"{path}: record at byte {pos} is not tensor "
                                 f"'{name}' with shape {shape}")
            arr = np.empty(shape, dtype="<f4")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise InputError(f"{path}: tensor '{name}' is missing or truncated")
            # min and max, unlike isfinite, build no tensor-sized temporary
            if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise InputError(f"{path}: tensor '{name}' has non-finite values")
            tensors[name] = arr
        if fh.tell() != size:
            raise InputError(f"{path}: {size - fh.tell()} trailing bytes after "
                             f"tensor '{TENSOR_ORDER[-1]}'")
    return cfg, _params_from_tensors(tensors), None
