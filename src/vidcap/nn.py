"""Framework-free neural-network kernels on plain numpy arrays.

Contains the LSTM cell and sequence forward/backward passes, the
softmax dense head, categorical cross-entropy, the Adam optimizer,
parameter initializers, and a finite-difference gradient checker.

Both LSTM passes keep only the recurrent work inside their time loops.
The forward pass projects the whole input sequence with one GEMM,
XW = X W (T x 4*hidden), and the cell consumes one projected row per
step.  The backward pass stacks each step's gate gradient as one row of
a T x 4*hidden matrix dZ, and the weight gradients (and, on request,
the input gradient) are one matrix product each over the whole
sequence instead of T rank-1 updates.

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

    @property
    def out_dim(self):
        return self.W.shape[1]

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

    Returns (h, c, cache) with cache = (h_prev, c_prev, i, f, g, o, c);
    lstm_forward prepends the raw input x to it for the backward pass.
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


def lstm_forward(p, X, h0=None, c0=None):
    """Run the cell over all rows of X (shape T x input_dim), T >= 1.

    The input projection is hoisted out of the time loop: XW = X W is
    one T x input_dim x 4*hidden GEMM per sequence, and the loop chains
    lstm_cell_forward over the rows of XW, doing only the recurrent work.

    Returns (H, h_T, c_T, caches) where H[t] is the hidden state after
    consuming X[t], (h_T, c_T) is the final state and caches[t] is
    (X[t], h_prev, c_prev, i, f, g, o, c), the layout lstm_backward reads.
    """
    if X.ndim != 2 or X.shape[1] != p.input_dim:
        raise ValueError(f"sequence has shape {X.shape}, expected (T, {p.input_dim})")
    T = X.shape[0]
    if T < 1:
        raise ValueError("sequence must contain at least one timestep")
    dt = np.result_type(X.dtype, p.W.dtype)
    h = h0 if h0 is not None else np.zeros(p.hidden, dtype=dt)
    c = c0 if c0 is not None else np.zeros(p.hidden, dtype=dt)
    H = np.empty((T, p.hidden), dtype=dt)
    XW = X @ p.W
    caches = []
    for t in range(T):
        h, c, cache = lstm_cell_forward(p, XW[t], h, c)
        H[t] = h
        caches.append((X[t],) + cache)
    return H, h, c, caches


def lstm_backward(p, caches, dH=None, dh_last=None, dc_last=None, need_dX=True):
    """Backpropagation through time over a cached forward pass.

    dH (T x hidden) holds the loss gradient w.r.t. every per-step hidden
    output; dh_last/dc_last the gradient w.r.t. the final state.  Any of
    them may be None (treated as zero).

    The reverse time loop does only the recurrent work: it writes each
    step's pre-activation gradient into row t of dZ (T x 4*hidden) and
    carries dh_prev = U dz and dc_prev back one step.  The weight
    gradients are then one GEMM each over the whole sequence,
    dW = X^T dZ, dU = H_prev^T dZ and db = sum_t dZ[t], and
    dX = dZ W^T likewise.  Pass need_dX=False when the input gradient
    is not used; dX is then None and that GEMM is skipped.

    Returns (dW, dU, db, dX, dh0, dc0).
    """
    T = len(caches)
    if T < 1:
        raise ValueError("empty cache list")
    hid = p.hidden
    dt = p.W.dtype
    if dH is not None and dH.shape != (T, hid):
        raise ValueError(f"dH has shape {dH.shape}, expected ({T}, {hid})")
    dZ = np.empty((T, 4 * hid), dtype=dt)
    dh = np.zeros(hid, dtype=dt) if dh_last is None else dh_last.astype(dt, copy=True)
    dc = np.zeros(hid, dtype=dt) if dc_last is None else dc_last.astype(dt, copy=True)
    for t in reversed(range(T)):
        _, _, c_prev, i, f, g, o, c = caches[t]
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
    X = np.stack([cache[0] for cache in caches], dtype=dt)
    H_prev = np.stack([cache[1] for cache in caches], dtype=dt)
    dX = dZ @ p.W.T if need_dX else None
    return X.T @ dZ, H_prev.T @ dZ, dZ.sum(axis=0), dX, dh, dc


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


def cross_entropy(P, Y, mask_padding=True):
    """Mean categorical cross-entropy over unmasked rows.

    P rows must be probability vectors; Y rows are one-hot targets or
    all-zero padding rows.  With mask_padding on, all-zero rows carry no
    loss and no gradient.  Returns (loss, d_logits) where d_logits is
    the gradient w.r.t. the pre-softmax logits, i.e. (P - Y)/n on the
    unmasked rows.
    """
    if P.shape != Y.shape:
        raise ValueError(f"shape mismatch: P {P.shape} vs Y {Y.shape}")
    if not np.all(np.isfinite(P)):
        raise FloatingPointError("non-finite probabilities in cross_entropy")
    row_sums = P.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-4):
        raise ValueError("P rows are not normalized probability vectors")
    if mask_padding:
        unmasked = Y.any(axis=1)
    else:
        unmasked = np.ones(P.shape[0], dtype=bool)
    n = int(unmasked.sum())
    d_logits = np.zeros_like(P)
    if n == 0:
        return 0.0, d_logits
    tiny = np.finfo(P.dtype).tiny  # guards log against exp underflow to 0
    log_p = np.log(np.maximum(P[unmasked], tiny))
    loss = -float((Y[unmasked] * log_p).sum()) / n
    d_logits[unmasked] = (P[unmasked] - Y[unmasked]) / n
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


def adam_step(state, params, grads):
    """One Adam update with bias correction, applied in place.

    params and grads are dicts mapping tensor name -> array with
    matching keys and shapes.  Raises on any non-finite gradient, naming
    the offending tensor.
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
