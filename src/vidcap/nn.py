"""Framework-free neural-network kernels on plain numpy arrays.

Contains the LSTM cell and sequence forward/backward passes, the
softmax dense head, categorical cross-entropy over index targets, the
Adam optimizer, parameter initializers, and a finite-difference
gradient checker.

The LSTM kernels do the recurrence only: they take the projected input
XW (T x 4*hidden, row t = x_t W), return its gradient dXW, and leave
the input kernel W to the caller (one GEMM over dense frames, a row
gather and a scatter-add for word indices).  dU and db are one matrix
product each over the whole sequence, not T rank-1 updates.

adam_step updates the parameters and both moments in place, walking
each tensor in fixed ADAM_BLOCK-element blocks through two reused
scratch rows; each block applies the textbook formula's operations in
the same order, so the result is bitwise that of the allocating form.

Everything is written for single sequences (no batch axis); the trainer
loops over samples and averages gradients.  The training path runs in
float32; build parameters with dtype=np.float64 for gradient checking.
"""

from dataclasses import dataclass, field

import numpy as np


def sigmoid(x):
    """Logistic function, evaluated without overflow on either tail."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_rows(logits):
    """Row-wise softmax with max-subtraction stabilization.

    Internals run in at least float64 so that row sums stay within 1e-6
    of 1 even at the full 1500-wide vocabulary; the result is cast back
    to the input dtype.
    """
    work = np.result_type(logits.dtype, np.float64)
    shifted = logits.astype(work) - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p.astype(logits.dtype)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """Weights of one LSTM layer.

    W: input kernel, shape (input_dim, 4*hidden)
    U: recurrent kernel, shape (hidden, 4*hidden)
    b: bias, shape (4*hidden,)

    Gate blocks along the last axis are ordered [i, f, g, o]; this order
    is fixed so checkpoints stay portable.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def input_dim(self):
        return self.W.shape[0]

    @property
    def hidden(self):
        return self.U.shape[0]

    def param_count(self):
        return self.W.size + self.U.size + self.b.size


@dataclass
class DenseParams:
    """Weights of a fully connected layer: W (hidden, out_dim), b (out_dim,)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def hidden(self):
        return self.W.shape[0]

    def param_count(self):
        return self.W.size + self.b.size


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def glorot_uniform(rng, rows, cols, dtype=np.float32):
    """Uniform init on [-limit, limit] with limit = sqrt(6/(rows+cols))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)


def orthogonal(rng, rows, cols, dtype=np.float32):
    """Semi-orthogonal matrix via QR of a Gaussian draw, sign-fixed.

    The smaller of the two dimensions is orthonormal: for rows <= cols
    the returned matrix Q satisfies Q @ Q.T = I.
    """
    big, small = max(rows, cols), min(rows, cols)
    a = rng.standard_normal((big, small))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    q = q * np.where(d < 0, -1.0, 1.0)
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q, dtype=dtype)


def init_lstm_params(rng, input_dim, hidden, dtype=np.float32):
    """Glorot input kernel, orthogonal recurrent kernel, forget bias 1."""
    W = glorot_uniform(rng, input_dim, 4 * hidden, dtype)
    U = orthogonal(rng, hidden, 4 * hidden, dtype)
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = 1.0
    return LstmParams(W, U, b)


def init_dense_params(rng, hidden, out_dim, dtype=np.float32):
    return DenseParams(glorot_uniform(rng, hidden, out_dim, dtype),
                       np.zeros(out_dim, dtype=dtype))


# ---------------------------------------------------------------------------
# LSTM forward / backward
# ---------------------------------------------------------------------------

def lstm_cell_forward(p, xw, h_prev, c_prev):
    """One LSTM step on a projected input row.

    xw is the timestep's input already multiplied by the input kernel,
    x W (shape 4*hidden); the cell adds the recurrent term and the bias,
    [zi zf zg zo] = xw + h_prev U + b, then
    i = sigmoid(zi), f = sigmoid(zf), g = tanh(zg), o = sigmoid(zo),
    c = f * c_prev + i * g, h = o * tanh(c).

    Returns (h, c, cache) with cache = (h_prev, c_prev, i, f, g, o, c),
    the per-step record lstm_backward reads.
    """
    hid = p.hidden
    if xw.shape != (4 * hid,):
        raise ValueError(f"projected input has shape {xw.shape}, expected ({4 * hid},)")
    if h_prev.shape != (hid,) or c_prev.shape != (hid,):
        raise ValueError(f"state has shape {h_prev.shape}/{c_prev.shape}, expected ({hid},)")
    z = xw + h_prev @ p.U + p.b
    i = sigmoid(z[:hid])
    f = sigmoid(z[hid:2 * hid])
    g = np.tanh(z[2 * hid:3 * hid])
    o = sigmoid(z[3 * hid:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, (h_prev, c_prev, i, f, g, o, c)


def lstm_forward(p, XW, h0=None, c0=None):
    """Chain lstm_cell_forward over the projected rows XW[t] = x_t W, T >= 1.

    Returns (H, h_T, c_T, caches) where H[t] is the hidden state after
    step t, (h_T, c_T) is the final state and caches[t] is the cell's
    cache for step t.
    """
    hid = p.hidden
    if XW.ndim != 2 or XW.shape[1] != 4 * hid:
        raise ValueError(f"sequence has shape {XW.shape}, expected (T, {4 * hid})")
    T = XW.shape[0]
    if T < 1:
        raise ValueError("sequence must contain at least one timestep")
    dt = np.result_type(XW.dtype, p.U.dtype)
    h = h0 if h0 is not None else np.zeros(hid, dtype=dt)
    c = c0 if c0 is not None else np.zeros(hid, dtype=dt)
    H = np.empty((T, hid), dtype=dt)
    caches = []
    for t in range(T):
        h, c, cache = lstm_cell_forward(p, XW[t], h, c)
        H[t] = h
        caches.append(cache)
    return H, h, c, caches


def lstm_backward(p, caches, dH=None, dh_last=None, dc_last=None):
    """Backpropagation through time over a cached forward pass.

    dH (T x hidden) holds the loss gradient w.r.t. every per-step hidden
    output; dh_last/dc_last the gradient w.r.t. the final state.  Any of
    them may be None (treated as zero).

    The reverse time loop writes each step's pre-activation gradient,
    which is also the gradient w.r.t. XW[t], into row t of dXW and
    carries dh_prev = U dz and dc_prev back one step; then
    dU = H_prev^T dXW and db = sum_t dXW[t] over the whole sequence.

    Returns (dXW, dU, db, dh0, dc0).
    """
    T = len(caches)
    if T < 1:
        raise ValueError("empty cache list")
    hid = p.hidden
    dt = p.U.dtype
    if dH is not None and dH.shape != (T, hid):
        raise ValueError(f"dH has shape {dH.shape}, expected ({T}, {hid})")
    dZ = np.empty((T, 4 * hid), dtype=dt)
    dh = np.zeros(hid, dtype=dt) if dh_last is None else dh_last.astype(dt, copy=True)
    dc = np.zeros(hid, dtype=dt) if dc_last is None else dc_last.astype(dt, copy=True)
    for t in reversed(range(T)):
        _, c_prev, i, f, g, o, c = caches[t]
        if dH is not None:
            dh = dh + dH[t]
        tc = np.tanh(c)
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = dZ[t]
        dz[:hid] = dc * g * i * (1.0 - i)
        dz[hid:2 * hid] = dc * c_prev * f * (1.0 - f)
        dz[2 * hid:3 * hid] = dc * i * (1.0 - g * g)
        dz[3 * hid:] = dh * tc * o * (1.0 - o)
        dh = p.U @ dz
        dc = dc * f
    H_prev = np.stack([cache[0] for cache in caches], dtype=dt)
    return dZ, H_prev.T @ dZ, dZ.sum(axis=0), dh, dc


# ---------------------------------------------------------------------------
# Dense softmax head
# ---------------------------------------------------------------------------

def dense_softmax_forward(p, H):
    """Apply the dense layer to every row of H and softmax the logits."""
    if H.ndim != 2 or H.shape[1] != p.hidden:
        raise ValueError(f"input has shape {H.shape}, expected (T, {p.hidden})")
    return softmax_rows(H @ p.W + p.b)


def dense_softmax_backward(p, H, d_logits):
    """Gradients of the dense layer given the gradient w.r.t. its logits."""
    dW = H.T @ d_logits
    db = d_logits.sum(axis=0)
    dH = d_logits @ p.W.T
    return dW, db, dH


def cross_entropy(P, target, mask_padding=True):
    """Mean categorical cross-entropy over unmasked rows.

    P rows must be probability vectors over V classes; target[t] is the
    1-based class index of row t, or 0 for padding.  With mask_padding
    on, padding rows carry no loss and no gradient.  Returns (loss,
    d_logits): the gradient w.r.t. the logits is P minus 1 at each
    target cell, divided by the number n of unmasked rows.
    """
    T, V = P.shape
    if target.shape != (T,) or target.dtype.kind not in "iu":
        raise ValueError(f"target must be an integer vector of shape ({T},), "
                         f"got {target.dtype} {target.shape}")
    if T and (target.min() < 0 or target.max() > V):
        raise ValueError(f"target indices must lie in [0, {V}]")
    if not np.all(np.isfinite(P)):
        raise FloatingPointError("non-finite probabilities in cross_entropy")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-4):
        raise ValueError("P rows are not normalized probability vectors")
    scored = np.flatnonzero(target)
    n = scored.size if mask_padding else T
    d_logits = np.zeros_like(P)
    if n == 0:
        return 0.0, d_logits
    cols = target[scored] - 1
    tiny = np.finfo(P.dtype).tiny  # guards log against exp underflow to 0
    loss = -float(np.log(np.maximum(P[scored, cols], tiny)).sum()) / n
    unmasked = target > 0 if mask_padding else slice(None)
    d_logits[unmasked] = P[unmasked]
    d_logits[scored, cols] -= 1.0
    d_logits /= n
    return loss, d_logits


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Optimizer state: per-tensor first/second moments plus step count."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# Elements per block: a block's four operand slices and two scratch rows
# (6 x 128 KB in float32) stay in L2.  A full-size step (Xeon, 2 MB L2
# per core) took ~80 ms at 2^15 and 2^17 and ~105-113 ms at 2^13.
ADAM_BLOCK = 1 << 15


def adam_step(state, params, grads):
    """One Adam update with bias correction, applied in place.

    params and grads are dicts mapping tensor name -> array with
    matching keys and shapes.  Raises on any non-finite gradient, naming
    the offending tensor; names, shapes and finiteness are all checked
    before t, a moment or a parameter changes.

    The parameters and the moments state.m/state.v (created as zeros on
    a tensor's first step and kept as the same arrays afterwards) are
    updated in place, one ADAM_BLOCK-element block at a time through two
    scratch rows, so no step allocates a tensor-sized temporary.  Each
    block runs the ufuncs of
        m = beta1 m + (1 - beta1) g
        v = beta2 v + (1 - beta2) g^2
        p -= lr (m / b1c) / (sqrt(v / b2c) + eps)
    in this order on the same operands, so the results are bitwise those
    of the unblocked formula.
    """
    if set(params) != set(grads):
        raise ValueError("params and grads name sets differ")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter '{name}' is not C-contiguous")
        flat = g.reshape(-1)
        if not all(np.isfinite(flat[s:s + ADAM_BLOCK]).all()
                   for s in range(0, flat.size, ADAM_BLOCK)):
            raise FloatingPointError(f"non-finite gradient for tensor '{name}'")
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    b1c = 1.0 - b1 ** state.t
    b2c = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        dt = np.result_type(p, g)
        if name not in state.m:
            state.m[name] = np.zeros(p.shape, dtype=dt)
            state.v[name] = np.zeros(p.shape, dtype=dt)
        pf, gf = p.reshape(-1), g.reshape(-1)
        mf, vf = state.m[name].reshape(-1), state.v[name].reshape(-1)
        rows = np.empty((2, min(ADAM_BLOCK, p.size)), dtype=dt)
        for s in range(0, pf.size, ADAM_BLOCK):
            gb, mb, vb, pb = (x[s:s + ADAM_BLOCK] for x in (gf, mf, vf, pf))
            a, u = rows[:, :gb.size]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, gb, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(vb, a, out=vb)
            np.divide(mb, b1c, out=u)
            np.multiply(u, lr, out=u)
            np.divide(vb, b2c, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(u, a, out=u)
            np.subtract(pb, u, out=pb)
    return params, state


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def finite_difference_check(f, params, analytic_grads, step=1e-5,
                            full_limit=512, sample_size=64, seed=0):
    """Compare analytic gradients against central finite differences.

    f maps the params dict to a scalar loss.  Tensors with at most
    full_limit entries are checked coordinate by coordinate; larger ones
    on sample_size coordinates drawn with a seeded rng.  Returns the
    maximum relative error |fd - an| / max(|fd|, |an|, 1e-8).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, arr in params.items():
        an_flat = np.asarray(analytic_grads[name]).reshape(-1)
        flat = arr.reshape(-1)
        n = flat.size
        if n <= full_limit:
            coords = range(n)
        else:
            coords = sorted(rng.choice(n, size=sample_size, replace=False).tolist())
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = f(params)
            flat[idx] = orig - step
            f_minus = f(params)
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            an = float(an_flat[idx])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
    return worst
