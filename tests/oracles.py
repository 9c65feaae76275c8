"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the
library (scalar loops, Fraction arithmetic, per-timestep rank-1 updates)
so a shared bug is unlikely.
"""

from fractions import Fraction
import math

import numpy as np


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


def one_hot_rows(indices, width, dtype=np.float64):
    """One-hot rows for 1-based indices; index 0 gives an all-zero row."""
    rows = np.zeros((len(indices), width), dtype=dtype)
    for r, idx in enumerate(indices):
        if idx:
            rows[r, idx - 1] = 1.0
    return rows


def cross_entropy_one_hot(P, Y, mask_padding=True):
    """Masked mean cross-entropy against one-hot target rows Y.

    All-zero rows of Y are padding.  Returns (loss, d_logits) with
    d_logits = (P - Y)/n on the n unmasked rows and zero elsewhere.
    """
    unmasked = Y.any(axis=1) if mask_padding else np.ones(P.shape[0], dtype=bool)
    n = int(unmasked.sum())
    d_logits = np.zeros_like(P)
    if n == 0:
        return 0.0, d_logits
    log_p = np.log(np.maximum(P[unmasked], np.finfo(P.dtype).tiny))
    loss = -float((Y[unmasked] * log_p).sum()) / n
    d_logits[unmasked] = (P[unmasked] - Y[unmasked]) / n
    return loss, d_logits


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
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params, state


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


def accuracy_scalar(P, Y, mask_padding=True):
    """Per-timestep argmax comparison with explicit loops."""
    hits = total = 0
    for t in range(len(Y)):
        row = list(Y[t])
        is_pad = all(v == 0 for v in row)
        if is_pad and mask_padding:
            continue
        total += 1
        probs = list(P[t])
        best = max(range(len(probs)), key=lambda j: probs[j])
        if not is_pad and row[best] == 1:
            hits += 1
    return hits / total if total else 0.0
