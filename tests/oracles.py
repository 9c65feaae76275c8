"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the
library (scalar loops, Fraction arithmetic, per-timestep rank-1 updates)
so a shared bug is unlikely.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np

from vidcap import model, nn


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def lstm_cell_scalar(W, U, b, x, h_prev, c_prev):
    """Unvectorized LSTM step; gate blocks ordered [i, f, g, o]."""
    in_dim = len(x)
    hid = len(h_prev)
    z = [0.0] * (4 * hid)
    for j in range(4 * hid):
        s = float(b[j])
        for i in range(in_dim):
            s += float(x[i]) * float(W[i][j])
        for i in range(hid):
            s += float(h_prev[i]) * float(U[i][j])
        z[j] = s
    h = [0.0] * hid
    c = [0.0] * hid
    for k in range(hid):
        gate_i = sigmoid_scalar(z[k])
        gate_f = sigmoid_scalar(z[hid + k])
        gate_g = math.tanh(z[2 * hid + k])
        gate_o = sigmoid_scalar(z[3 * hid + k])
        c[k] = gate_f * float(c_prev[k]) + gate_i * gate_g
        h[k] = gate_o * math.tanh(c[k])
    return h, c


def lstm_backward_outer(W, U, X, caches, dH=None, dh_last=None, dc_last=None):
    """Step-by-step BPTT: one rank-1 np.outer update per timestep.

    X is the unprojected input sequence and caches are the per-step
    tuples (h_prev, c_prev, i, f, g, o, c) of lstm_forward on X W: step
    t reads rows t and t+1 of its cache's Hs/Cs and the gate row G[t]
    split into its four blocks.  Returns (dW, dU, db, dX, dh0, dc0).
    """
    hid = U.shape[0]
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * hid, dtype=W.dtype)
    dX = np.zeros((len(caches), W.shape[0]), dtype=W.dtype)
    dh = np.zeros(hid) if dh_last is None else np.array(dh_last, dtype=float)
    dc = np.zeros(hid) if dc_last is None else np.array(dc_last, dtype=float)
    for t in range(len(caches) - 1, -1, -1):
        x = X[t]
        h_prev, c_prev, i, f, g, o, c = caches[t]
        if dH is not None:
            dh = dh + dH[t]
        tc = np.tanh(c)
        dc_total = dc + dh * o * (1.0 - tc ** 2)
        dz = np.concatenate([dc_total * g * i * (1.0 - i),
                             dc_total * c_prev * f * (1.0 - f),
                             dc_total * i * (1.0 - g ** 2),
                             dh * tc * o * (1.0 - o)])
        dW += np.outer(x, dz)
        dU += np.outer(h_prev, dz)
        db += dz
        dX[t] = W @ dz
        dh = U @ dz
        dc = dc_total * f
    return dW, dU, db, dX, dh, dc


def lstm_forward_reference(p, XW, h0=None, c0=None):
    """The step arithmetic of lstm_forward before its per-call scratch
    and hoisted operands, frozen: per step, b added, h_{t-1} U (by the
    same row panels of U) added, the gates scaled, activated by one
    tanh, scaled and shifted, then the state update with a new i * g.
    Consumes XW as lstm_forward does and returns (H, h_T, c_T, (Hs, Cs,
    G)); nn.lstm_forward must match it bitwise."""
    hid = p.hidden
    T, dt = XW.shape[0], p.U.dtype
    state_shape = XW.shape[1:-1] + (hid,)
    Hs = np.empty((T + 1,) + state_shape, dtype=dt)
    Cs = np.empty((T + 1,) + state_shape, dtype=dt)
    Hs[0] = 0 if h0 is None else h0
    Cs[0] = 0 if c0 is None else c0
    G = XW
    scale = np.full(4 * hid, 0.5, dtype=dt)
    scale[2 * hid:3 * hid] = 1.0
    shift = 1.0 - scale
    batch = XW.shape[1] if XW.ndim == 3 else 1
    panels = [(s, p.U[s]) for s in nn.recurrent_panels(batch, hid)]
    for t in range(T):
        z = G[t]
        z += p.b
        for s, U_s in panels:
            z += Hs[t][..., s] @ U_s
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i, f = z[..., :hid], z[..., hid:2 * hid]
        g, o = z[..., 2 * hid:3 * hid], z[..., 3 * hid:]
        c = np.multiply(f, Cs[t], out=Cs[t + 1])
        c += i * g
        np.tanh(c, out=Hs[t + 1])
        Hs[t + 1] *= o
    return Hs[1:], Hs[T], Cs[T], (Hs, Cs, G)


def lstm_backward_reference(p, cache, dH=None, dh_last=None, dc_last=None):
    """The step arithmetic of lstm_backward before its per-call scratch,
    frozen: whole-sequence gate factors as new arrays, then per step
    dc += dh * dc_from_dh[t] through a new product, the factors scaled
    in place, U dz^T by the same row panels of U, and dc *= f.  Returns
    (dXW, dU, db, dh0, dc0); nn.lstm_backward must match it bitwise."""
    Hs, Cs, G = cache
    T, hid, dt = G.shape[0], p.hidden, p.U.dtype
    state_shape = G.shape[1:-1] + (hid,)
    i, f, g, o = (G[..., k * hid:(k + 1) * hid] for k in range(4))
    tc = np.tanh(Cs[1:])
    dc_from_dh = o * (1.0 - tc * tc)
    dZ = np.empty(G.shape, dtype=dt)
    blocks = dZ.reshape(G.shape[:-1] + (4, hid))
    blocks[..., 0, :] = g * i * (1.0 - i)
    blocks[..., 1, :] = Cs[:-1] * f * (1.0 - f)
    blocks[..., 2, :] = i * (1.0 - g * g)
    blocks[..., 3, :] = tc * o * (1.0 - o)
    dh = np.zeros(state_shape, dtype=dt) if dh_last is None else dh_last.astype(dt, copy=True)
    dc = np.zeros(state_shape, dtype=dt) if dc_last is None else dc_last.astype(dt, copy=True)
    dhT = np.empty(state_shape[::-1], dtype=dt)
    batch = G.shape[1] if G.ndim == 3 else 1
    panels = [(p.U[s], dhT[s]) for s in nn.recurrent_panels(batch, hid)]
    for t in reversed(range(T)):
        if dH is not None:
            dh += dH[t]
        dc += dh * dc_from_dh[t]
        blocks[t, ..., :3, :] *= dc[..., None, :]
        blocks[t, ..., 3, :] *= dh
        dz = dZ[t].T
        for U_s, dh_s in panels:
            np.matmul(U_s, dz, dh_s)
        dh = dhT.T
        dc *= f[t]
    rows = dZ.reshape(-1, 4 * hid)
    dU = Hs[:-1].reshape(-1, hid).T @ rows
    return dZ, dU, rows.sum(axis=0), dh, dc


def greedy_caption_per_video(params, tok, feat, max_words):
    """The textbook greedy loop for one video: encode_video, then one
    decode_step per word on a scalar index, each fed the previous
    argmax.  Returns (words, chosen), chosen being every step's argmax
    index, eos and bos included."""
    bos, eos = tok.word_to_index["bos"], tok.word_to_index["eos"]
    h, c = model.encode_video(params, feat)
    state = model.DecodeState(h, c)
    token, words, chosen = bos, [], []
    for _ in range(max_words):
        probs, state = model.decode_step(params, state, token)
        token = int(np.argmax(probs[:tok.size])) + 1
        chosen.append(token)
        if token == eos:
            break
        if token != bos:
            words.append(tok.index_to_word[token])
    return words, chosen


def one_hot_rows(indices, width, dtype=np.float64):
    """One-hot rows for 1-based indices; index 0 gives an all-zero row."""
    rows = np.zeros((len(indices), width), dtype=dtype)
    for r, idx in enumerate(indices):
        if idx:
            rows[r, idx - 1] = 1.0
    return rows


def cross_entropy_one_hot(P, Y):
    """Masked mean cross-entropy against one-hot target rows Y.

    All-zero rows of Y are padding.  Returns (loss, d_logits) with
    d_logits = (P - Y)/n on the n unmasked rows and zero elsewhere.
    """
    unmasked = Y.any(axis=1)
    n = int(unmasked.sum())
    d_logits = np.zeros_like(P)
    if n == 0:
        return 0.0, d_logits
    log_p = np.log(np.maximum(P[unmasked], np.finfo(P.dtype).tiny))
    loss = -float((Y[unmasked] * log_p).sum()) / n
    d_logits[unmasked] = (P[unmasked] - Y[unmasked]) / n
    return loss, d_logits


def softmax_rows_reference(logits):
    """The allocating softmax the in-place one replaced, verbatim: a new
    float64 array for the cast, the shift, exp and the quotient.
    nn.softmax_rows must match it bitwise."""
    work = np.result_type(logits.dtype, np.float64)
    shifted = logits.astype(work) - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p.astype(logits.dtype)


@dataclass
class AdamReferenceState:
    """adam_step_reference's state: per-tensor moment dicts and the step."""

    lr: float = 1e-4
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step_reference(state, params, grads):
    """The allocating Adam step the blocked in-place one replaced, verbatim.

    Builds fresh m/v arrays and tensor-sized temporaries on every call;
    nn.adam_step must match it bitwise.
    """
    if set(params) != set(grads):
        raise ValueError("params and grads name sets differ")
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise FloatingPointError(f"non-finite gradient for tensor '{name}'")
    state.t += 1
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    b1c = 1.0 - b1 ** state.t
    b2c = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + nn.ADAM_EPS)
    return params, state


def ranked_vocabulary(captions, cap):
    """The words of a caption stream, most frequent first and equal
    counts by first occurrence, cut at cap: counted with a dict and
    ordered by an explicit (-count, first index) key."""
    first, counts = [], {}
    for caption in captions:
        for word in caption:
            if word not in counts:
                first.append(word)
                counts[word] = 0
            counts[word] += 1
    order = sorted(range(len(first)), key=lambda i: (-counts[first[i]], i))
    return [first[i] for i in order[:cap]]


def _gram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu2_oracle(candidate, references):
    """Brute-force BLEU-2: exact Fraction precisions, list-scan clipping."""
    c = len(candidate)
    if c == 0:
        return 0.0
    precisions = []
    for n in (1, 2):
        grams = _gram_list(candidate, n)
        if not grams:
            precisions.append(Fraction(0))
            continue
        clipped = 0
        for gram in set(grams):
            best = 0
            for ref in references:
                count = _gram_list(ref, n).count(gram)
                if count > best:
                    best = count
            clipped += min(grams.count(gram), best)
        precisions.append(Fraction(clipped, len(grams)))
    p1, p2 = precisions
    if p1 == 0 or p2 == 0:
        return 0.0
    r = sorted((abs(len(ref) - c), len(ref)) for ref in references)[0][1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.sqrt(float(p1 * p2))


def accuracy_scalar(P, Y):
    """Per-timestep argmax comparison with explicit loops; padding
    (all-zero) rows of Y are skipped."""
    hits = total = 0
    for t in range(len(Y)):
        row = list(Y[t])
        if all(v == 0 for v in row):
            continue
        total += 1
        probs = list(P[t])
        best = max(range(len(probs)), key=lambda j: probs[j])
        if row[best] == 1:
            hits += 1
    return hits / total if total else 0.0


def batch_gradients_per_sample(params, get, samples, rows):
    """A batch's per-row losses and batch-mean gradients, formed one row
    at a time: training_forward and training_backward on each row of the
    (keys, video, dec_in, target) sample table alone (its features from
    get(keys[video[row]])), the gradients summed in row order, then
    divided by the batch size."""
    keys, video, dec_in, target = samples
    losses = []
    grad_sum = {k: np.zeros_like(t) for k, t in params.tensors().items()}
    for i in rows:
        _, caches = model.training_forward(params, get(keys[video[i]]), dec_in[i])
        loss, grads = model.training_backward(params, caches, target[i])
        losses.append(loss)
        for k, g in grad_sum.items():
            g += grads[k]
    for g in grad_sum.values():
        g /= len(rows)
    return losses, grad_sum


def orthogonal_householder(rng, rows, cols, dtype=np.float32):
    """The Householder-QR initializer nn.orthogonal replaced, verbatim:
    np.linalg.qr of the same Gaussian draw, Q's columns sign-fixed so
    that R's diagonal is positive."""
    big, small = max(rows, cols), min(rows, cols)
    a = rng.standard_normal((big, small))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    q = q * np.where(d < 0, -1.0, 1.0)
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q, dtype=dtype)


def glorot_uniform_one_shot(rng, rows, cols, dtype=np.float32):
    """The Glorot initializer nn.glorot_uniform replaced, verbatim: one
    (rows x cols) float64 draw, then a cast."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)


def init_params_reference(cfg, seed, dtype=np.float32):
    """ModelParams.init built from the two reference initializers, in
    the library's draw order: each LSTM's W then U, then head.W."""
    rng = np.random.default_rng(seed)

    def lstm(input_dim):
        W = glorot_uniform_one_shot(rng, input_dim, 4 * cfg.latent, dtype)
        U = orthogonal_householder(rng, cfg.latent, 4 * cfg.latent, dtype)
        b = np.zeros(4 * cfg.latent, dtype=dtype)
        b[cfg.latent:2 * cfg.latent] = 1.0
        return nn.LstmParams(W, U, b)

    encoder, decoder = lstm(cfg.feature_dim), lstm(cfg.vocab)
    head = nn.DenseParams(glorot_uniform_one_shot(rng, cfg.latent, cfg.vocab, dtype),
                          np.zeros(cfg.vocab, dtype=dtype))
    return model._params_from_tensors({
        "encoder.W": encoder.W, "encoder.U": encoder.U, "encoder.b": encoder.b,
        "decoder.W": decoder.W, "decoder.U": decoder.U, "decoder.b": decoder.b,
        "head.W": head.W, "head.b": head.b})


def write_tensor_tobytes(fh, name, arr):
    """The checkpoint record writer model._write_tensor replaced: the
    same header, then a bytes copy of the float32 payload."""
    data = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(model._record_header(name, data.shape))
    fh.write(data.tobytes())
