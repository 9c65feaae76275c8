"""Framework-free neural-network kernels on plain numpy arrays.

Contains the LSTM sequence forward/backward passes, the softmax dense
head, categorical cross-entropy over index targets, the Adam optimizer,
parameter initializers, and a finite-difference gradient checker.

The LSTM kernels do the recurrence only: they take the projected input
XW (T x 4*hidden, row t = x_t W), return its gradient dXW, and leave
the input kernel W to the caller (one GEMM over dense frames, a row
gather and a scatter-add for word indices).  lstm_forward is the only
forward recurrence (a decoder step is a T = 1 call) and its cache is
three preallocated arrays (Hs, Cs, G), which lstm_backward reads
directly; dU and db are one matrix product each over the sequence.

adam_step updates the parameters and both moments in place, walking
each tensor in fixed ADAM_BLOCK-element blocks through two reused
scratch rows; each block applies the textbook formula's operations in
the same order, so the result is bitwise that of the allocating form.

The kernels take one sequence at a time (no batch axis); the trainer
loops over samples and averages gradients.  The training path runs in
float32; build parameters with dtype=np.float64 for gradient checking.
"""

from dataclasses import dataclass, field

import numpy as np


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

def lstm_forward(p, XW, h0=None, c0=None):
    """LSTM recurrence over the projected rows XW[t] = x_t W, T >= 1.

    Step t forms [zi zf zg zo] = x_t W + b + h_{t-1} U, then
    i = sigmoid(zi), f = sigmoid(zf), g = tanh(zg), o = sigmoid(zo),
    c_t = f * c_{t-1} + i * g, h_t = o * tanh(c_t).  The gates take one
    tanh, gate = s tanh(s z) + 1 - s with s = 1/2 on the sigmoid blocks
    (sigmoid(z) = tanh(z/2)/2 + 1/2) and s = 1 on g, so none overflows.

    Returns (H, h_T, c_T, cache) with cache = (Hs, Cs, G) and the views
    H = Hs[1:], h_T = Hs[T], c_T = Cs[T].  Hs and Cs are (T+1) x hidden,
    row 0 the initial state (zeros when None) and row t+1 the state after
    step t; G (T x 4*hidden) holds every step's activated gates [i f g o].
    """
    hid = p.hidden
    if XW.ndim != 2 or XW.shape[1] != 4 * hid:
        raise ValueError(f"sequence has shape {XW.shape}, expected (T, {4 * hid})")
    T = XW.shape[0]
    if T < 1:
        raise ValueError("sequence must contain at least one timestep")
    for name, state in (("h0", h0), ("c0", c0)):
        if state is not None and state.shape != (hid,):
            raise ValueError(f"{name} has shape {state.shape}, expected ({hid},)")
    dt = np.result_type(XW.dtype, p.U.dtype)
    Hs = np.empty((T + 1, hid), dtype=dt)
    Cs = np.empty((T + 1, hid), dtype=dt)
    Hs[0] = 0 if h0 is None else h0
    Cs[0] = 0 if c0 is None else c0
    G = np.add(XW, p.b, dtype=dt)
    scale = np.full(4 * hid, 0.5, dtype=dt)
    scale[2 * hid:3 * hid] = 1.0
    shift = 1.0 - scale
    for t in range(T):
        z = G[t]
        z += Hs[t] @ p.U
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i, f, g, o = z[:hid], z[hid:2 * hid], z[2 * hid:3 * hid], z[3 * hid:]
        c = np.multiply(f, Cs[t], out=Cs[t + 1])
        c += i * g
        np.tanh(c, out=Hs[t + 1])
        Hs[t + 1] *= o
    return Hs[1:], Hs[T], Cs[T], (Hs, Cs, G)


def lstm_backward(p, cache, dH=None, dh_last=None, dc_last=None):
    """Backpropagation through time over lstm_forward's (Hs, Cs, G).

    dH (T x hidden) holds the loss gradient w.r.t. every per-step hidden
    output; dh_last/dc_last the gradient w.r.t. the final state.  Any of
    them may be None (treated as zero).

    Step t's pre-activation gradient, also that of XW[t], is
    dz = [dc g i(1-i), dc c_{t-1} f(1-f), dc i(1-g^2), dh tanh(c_t) o(1-o)]
    for the running dh, dc.  Their factors take a few whole-sequence
    operations; the reverse time loop scales them into row t of dZ and
    carries dh = U dz, dc = f dc back one step.  Then dU = Hs[:-1]^T dZ
    and db = sum_t dZ[t].

    Returns (dXW, dU, db, dh0, dc0).
    """
    Hs, Cs, G = cache
    T = G.shape[0]
    hid = p.hidden
    dt = p.U.dtype
    if dH is not None and dH.shape != (T, hid):
        raise ValueError(f"dH has shape {dH.shape}, expected ({T}, {hid})")
    i, f, g, o = (G[:, k * hid:(k + 1) * hid] for k in range(4))
    tc = np.tanh(Cs[1:])
    dc_from_dh = o * (1.0 - tc * tc)
    dZ = np.empty((T, 4 * hid), dtype=dt)
    blocks = dZ.reshape(T, 4, hid)
    blocks[:, 0] = g * i * (1.0 - i)
    blocks[:, 1] = Cs[:-1] * f * (1.0 - f)
    blocks[:, 2] = i * (1.0 - g * g)
    blocks[:, 3] = tc * o * (1.0 - o)
    dh = np.zeros(hid, dtype=dt) if dh_last is None else dh_last.astype(dt, copy=True)
    dc = np.zeros(hid, dtype=dt) if dc_last is None else dc_last.astype(dt, copy=True)
    for t in reversed(range(T)):
        if dH is not None:
            dh += dH[t]
        dc += dh * dc_from_dh[t]
        blocks[t, :3] *= dc
        blocks[t, 3] *= dh
        dh = p.U @ dZ[t]
        dc *= f[t]
    return dZ, Hs[:-1].T @ dZ, dZ.sum(axis=0), dh, dc


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
    target cell, divided by the number n of unmasked rows.  The loss
    sums the log-probabilities in float64 whatever P's dtype.
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
    log_p = np.log(np.maximum(P[scored, cols], tiny))
    loss = -float(log_p.sum(dtype=np.float64)) / n
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
