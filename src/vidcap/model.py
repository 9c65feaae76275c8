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
import os
import struct

import numpy as np

from . import nn
from .util import InputError

CHECKPOINT_MAGIC = b"SQ2S"
CHECKPOINT_VERSION = 1

# fixed serialization order; Adam mirrors are written as m.<name>, v.<name>
TENSOR_ORDER = ("encoder.W", "encoder.U", "encoder.b",
                "decoder.W", "decoder.U", "decoder.b",
                "head.W", "head.b")


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


def training_forward(params, feat, dec_in):
    """Teacher-forced pass: encode all frames, decode all target steps.

    dec_in holds the decoder's input word indices, 0 at padding steps.
    The encoder's final (h, c) seed the decoder; every decoder hidden
    state goes through the softmax head.  Returns (P, caches) with one
    probability row per decoder step.
    """
    feat = np.asarray(feat)
    dec_in = np.asarray(dec_in)
    _, h, c, enc_cache = nn.lstm_forward(params.encoder, feat @ params.encoder.W)
    P, H, dec_cache = decoder_forward(params, h, c, dec_in)
    return P, (feat, enc_cache, dec_in, dec_cache, H, P)


def decoder_forward(params, h, c, dec_in):
    """Teacher-forced decoder and head from the encoder state (h, c).

    dec_in holds the decoder's input word indices, 0 at padding steps.
    Returns (P, H, cache): one probability row and one hidden state
    per step, and the decoder LSTM's (Hs, Cs, G) cache.
    """
    dec = params.decoder
    words = dec_in > 0
    XW = np.zeros((len(dec_in), dec.W.shape[1]), dtype=dec.W.dtype)
    XW[words] = dec.W[dec_in[words] - 1]
    H, _, _, cache = nn.lstm_forward(dec, XW, h, c)
    return nn.dense_softmax_forward(params.head, H), H, cache


def training_backward(params, caches, target, mask_padding=True):
    """Loss and parameter gradients for a cached training_forward pass.

    target holds each step's correct word index, 0 at padding steps.
    Gradients flow from the head through the decoder and on into the
    encoder via the initial-state connection.
    """
    feat, enc_cache, dec_in, dec_cache, H, P = caches
    loss, d_logits = nn.cross_entropy(P, np.asarray(target), mask_padding)
    dW_h, db_h, dH = nn.dense_softmax_backward(params.head, H, d_logits)
    dXW_d, dU_d, db_d, dh0, dc0 = nn.lstm_backward(params.decoder, dec_cache, dH)
    dW_d = np.zeros_like(params.decoder.W)
    # step order, as the one-hot product sums; np.add.at is ~15x slower here
    for t in np.flatnonzero(dec_in > 0):
        dW_d[dec_in[t] - 1] += dXW_d[t]
    dXW_e, dU_e, db_e, _, _ = nn.lstm_backward(params.encoder, enc_cache,
                                               None, dh0, dc0)
    grads = {"encoder.W": feat.T @ dXW_e, "encoder.U": dU_e, "encoder.b": db_e,
             "decoder.W": dW_d, "decoder.U": dU_d, "decoder.b": db_d,
             "head.W": dW_h, "head.b": db_h}
    return loss, grads


def encode_video(params, feat):
    """Final encoder state only; per-frame outputs are discarded."""
    _, h, c, _ = nn.lstm_forward(params.encoder, np.asarray(feat) @ params.encoder.W)
    return h, c


@dataclass
class DecodeState:
    h: np.ndarray
    c: np.ndarray


def decode_step(params, state, token_index):
    """One decoder step on a single token index from the given state:
    a T = 1 lstm_forward over the word's embedding row."""
    V = params.decoder.input_dim
    if not 1 <= token_index <= V:
        raise InputError(f"token index {token_index} outside [1, {V}]")
    XW = params.decoder.W[token_index - 1:token_index]
    H, h, c, _ = nn.lstm_forward(params.decoder, XW, state.h, state.c)
    probs = nn.softmax_rows(H @ params.head.W + params.head.b)[0]
    return probs, DecodeState(h, c)


def greedy_decode(params, tok, feat, max_words=10):
    """Greedy captioning: feed bos, take the argmax, re-feed, stop on eos.

    At most max_words decode steps run, so the caption never exceeds
    max_words words; the returned list contains neither sentinel.  The
    argmax runs over the fitted vocabulary (ties to the lowest index); a
    degenerate bos prediction is re-fed but left out of the caption.
    """
    bos = tok.word_to_index.get("bos")
    eos = tok.word_to_index.get("eos")
    if bos is None or eos is None:
        raise InputError("tokenizer must contain 'bos' and 'eos'")
    h, c = encode_video(params, feat)
    state = DecodeState(h, c)
    prev = bos
    words = []
    for _ in range(max_words):
        probs, state = decode_step(params, state, prev)
        nxt = int(np.argmax(probs[:tok.size])) + 1
        if nxt == eos:
            break
        if nxt != bos:
            words.append(tok.index_to_word[nxt])
        prev = nxt
    return words


def _write_tensor(fh, name, arr):
    data = np.ascontiguousarray(arr, dtype="<f4")
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", data.ndim))
    for dim in data.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(data.tobytes())


def save_checkpoint(path, cfg, params, adam=None):
    """Serialize config and parameters, optionally with Adam moments.

    Tensors are written as float32 in a fixed order, so identical
    training runs produce byte-identical files.  The bytes go to
    <path>.tmp in the same directory, which then replaces path in one
    step: a failed save leaves any previous file at path untouched.
    """
    tensors = dict(params.tensors())
    if adam is not None:
        for prefix, table in (("m", adam.m), ("v", adam.v)):
            for name in TENSOR_ORDER:
                if name not in table:
                    raise InputError(f"optimizer state is missing tensor '{name}'")
                tensors[f"{prefix}.{name}"] = table[name]
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<5I", cfg.frames, cfg.feature_dim, cfg.latent,
                                 cfg.max_words, cfg.vocab))
            for name, arr in tensors.items():
                _write_tensor(fh, name, arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


_KNOWN_TENSORS = frozenset(TENSOR_ORDER).union(
    f"{prefix}.{name}" for prefix in "mv" for name in TENSOR_ORDER)


def _read_record(fh, path, size):
    data = fh.read(size)
    if len(data) != size:
        raise InputError(f"{path}: truncated tensor record")
    return data


def load_checkpoint(path):
    """Read a checkpoint; returns (config, params, (m, v) or None).

    Payloads are read straight into their arrays.  A header dimension of
    0, a malformed record, a repeated or unknown tensor name (anything
    but TENSOR_ORDER and its m./v. Adam mirrors) or a non-finite value
    raises InputError.
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
        while fh.tell() < size:
            (name_len,) = struct.unpack("<H", _read_record(fh, path, 2))
            raw_name = _read_record(fh, path, name_len)
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise InputError(f"{path}: tensor name at byte "
                                 f"{fh.tell() - name_len} is not valid UTF-8") from None
            if name in tensors:
                raise InputError(f"{path}: duplicate tensor '{name}'")
            (rank,) = struct.unpack("<B", _read_record(fh, path, 1))
            dims = struct.unpack(f"<{rank}I", _read_record(fh, path, 4 * rank))
            count = 1
            for dim in dims:
                count *= dim
            if fh.tell() + 4 * count > size:
                raise InputError(f"{path}: truncated payload for tensor '{name}'")
            if name not in _KNOWN_TENSORS:
                raise InputError(f"{path}: unknown tensor '{name}'")
            arr = np.empty(dims, dtype="<f4")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise InputError(f"{path}: truncated payload for tensor '{name}'")
            if not np.isfinite(arr).all():
                raise InputError(f"{path}: tensor '{name}' has non-finite values")
            tensors[name] = arr
    missing = [n for n in TENSOR_ORDER if n not in tensors]
    if missing:
        raise InputError(f"{path}: missing tensors {missing}")
    for name, make_shape in _EXPECTED_SHAPES.items():
        want = make_shape(cfg)
        if tensors[name].shape != want:
            raise InputError(f"{path}: tensor '{name}' has shape "
                             f"{tensors[name].shape}, config implies {want}")
    params = _params_from_tensors(tensors)
    adam = None
    if any(k.startswith(("m.", "v.")) for k in tensors):
        for n in TENSOR_ORDER:
            if f"m.{n}" not in tensors or f"v.{n}" not in tensors:
                raise InputError(f"{path}: incomplete optimizer state for '{n}'")
        adam = ({n: tensors[f"m.{n}"] for n in TENSOR_ORDER},
                {n: tensors[f"v.{n}"] for n in TENSOR_ORDER})
    return cfg, params, adam
