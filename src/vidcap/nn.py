"""Framework-free neural-network kernels on plain numpy arrays.

Contains the LSTM sequence forward/backward passes, the softmax dense
head, categorical cross-entropy over index targets, the Adam optimizer,
parameter initializers, and a finite-difference gradient checker.

The LSTM kernels do the recurrence only: they take the projected input
XW (T x 4*hidden, row t = x_t W), return its gradient dXW, and leave
the input kernel W to the caller (one GEMM over dense frames, a row
gather and a scatter-add for word indices).  lstm_forward is the only
forward recurrence (a decoder step is a T = 1 call).  It consumes XW:
the gates are activated in place, so its cache (Hs, Cs, G) is two
preallocated state arrays and XW itself as G, and a pass holds one
T x 4*hidden array, not two.  XW must be a fresh array of U's dtype,
time-major and C-contiguous, that shares no memory with the weights,
so every call takes the one step path.  lstm_backward reads the cache
directly; dU and db are one matrix product each over the sequence.

adam_step updates one flat parameter buffer and its two flat moments
in place: the caller lays every tensor back to back in one contiguous
1-D array (model.ModelParams) and its gradients in a second one of the
same layout.  A step checks the whole gradient once with
util.all_finite, the one finiteness test of the package (so do
cross_entropy and greedy decoding), and makes one update pass over the
whole buffer, in fixed ADAM_BLOCK-element blocks through reused scratch
rows, with no per-tensor loop.  Each block applies the
textbook formula's operations in the same order, so the result is
bitwise that of the allocating per-tensor form.  The backward kernels
write their weight gradients into views of such a buffer when given
them (out=).

Both LSTM kernels also step B sequences at once (T x B x 4*hidden),
and cross_entropy scores such a time-major batch, so a training batch
runs through each kernel once, as batched greedy decoding does.  A
step multiplies the B state rows by U in one product, except for
2 <= B < 16 rows at widths where that product exceeds SMALL_GEMM_MACS:
there it takes row panels of U (recurrent_panels), each small enough
for OpenBLAS's unpacked small-matrix kernel, because one sgemm packs
all of U again at every step.  Training runs in float32; build
parameters with dtype=np.float64 for gradient checking.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .util import all_finite


def softmax_rows(logits):
    """Row-wise softmax with max-subtraction stabilization.

    Internals run in at least float64 so that row sums stay within 1e-6
    of 1 even at the full 1500-wide vocabulary; the result is cast back
    to the input dtype.  The shift, exp and division run in place on the
    one cast, so float32 logits peak at three times their size above
    them (the float64 work array and the result): a 6400 x 1500 input
    (one paper-scale validation pass) peaked at 110 MB and took 97 ms,
    against 256 MB and 151-174 ms with a new array per operation.
    """
    work = np.result_type(logits.dtype, np.float64)
    p = logits.astype(work)
    p -= logits.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p.astype(logits.dtype, copy=False)


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


@dataclass
class DenseParams:
    """Weights of a fully connected layer: W (hidden, out_dim), b (out_dim,)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def hidden(self):
        return self.W.shape[0]


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

GLOROT_BLOCK = 1 << 16  # float64 draws per rng.uniform call: a 512 KB temporary


def glorot_uniform(rng, out):
    """Fill out (a C-contiguous rows x cols array) from the uniform
    distribution on [-limit, limit], limit = sqrt(6/(rows+cols)).

    out is filled row-major from rng.uniform in blocks of at most
    GLOROT_BLOCK elements.  The generator draws one double per element
    whatever the call size, so this consumes the same stream and gives
    bitwise the values of one (rows x cols) float64 draw cast to out's
    dtype, without that tensor-sized temporary (64 MB for the
    4096 x 2048 encoder.W).  Returns out.
    """
    limit = np.sqrt(6.0 / sum(out.shape))
    flat = out.reshape(-1)
    for start in range(0, flat.size, GLOROT_BLOCK):
        block = flat[start:start + GLOROT_BLOCK]
        block[...] = rng.uniform(-limit, limit, size=block.size)
    return out


def orthogonal(rng, rows, cols, dtype=np.float32):
    """Semi-orthogonal matrix: the Q factor of a Gaussian draw A.

    The smaller of the two dimensions is orthonormal: for rows <= cols
    the returned matrix Q satisfies Q @ Q.T = I.

    Q comes from Cholesky QR: with L = cholesky(A.T A), Q = A L^-T,
    formed as inv(L) @ A.T (transposed for the tall case).  This is the
    Q of a Householder QR whose R has a positive diagonal, so no sign
    fix follows.  Forming A.T A squares A's condition number, so Q's
    error grows with it; a tall Gaussian's is small (~3 for the
    library's 4h x h draws, ~9 for A.T A) and there Q stays within
    ~1e-15 of Householder's in float64, at about half the cost (one
    Gram product and one triangular factor instead of forming Q from
    reflectors).  Square draws can be ill-conditioned and agree less
    closely.
    """
    big, small = max(rows, cols), min(rows, cols)
    a = rng.standard_normal((big, small))
    qt = np.linalg.inv(np.linalg.cholesky(a.T @ a)) @ a.T  # Q.T, small x big
    return np.ascontiguousarray(qt if rows < cols else qt.T, dtype=dtype)


def init_lstm_params(rng, out):
    """Fill out (an LstmParams, such as views of one parameter buffer)
    with a Glorot input kernel, an orthogonal recurrent kernel and
    forget bias 1; its shapes give the dimensions.  Returns out."""
    hidden = out.U.shape[0]
    glorot_uniform(rng, out.W)
    out.U[...] = orthogonal(rng, hidden, 4 * hidden, out.U.dtype)
    out.b[...] = 0.0
    out.b[hidden:2 * hidden] = 1.0
    return out


# ---------------------------------------------------------------------------
# LSTM forward / backward
# ---------------------------------------------------------------------------

# Multiply-adds (m*n*k) up to which OpenBLAS's sgemm (0.3.31, SkylakeX
# core) uses its small-matrix kernel, which reads the operands in place;
# a larger product first packs all of U.  One thread, hidden 512, per
# step forward/backward: B = 2 in 171-row panels (0.70e6) 378/243 us
# against 788/606 us for one product, B = 4 in 103-row panels (0.84e6)
# 414/272 against 824/622 us; 256-row panels at B = 2 (1.05e6) cost as
# much as one product.
SMALL_GEMM_MACS = 10 ** 6

def recurrent_panels(rows, hidden):
    """Row slices of U that a recurrence step over `rows` sequences
    multiplies by, one product each (h[:, s] @ U[s] forward, U[s] @ dz.T
    backward).

    One slice(None), the whole of U, unless 2 <= rows < 16 and
    rows x 4*hidden x hidden exceeds SMALL_GEMM_MACS: then the fewest
    equal panels that each stay within it.  One row is a mat-vec, which
    packs nothing.  From 16 rows on, one sgemm's packing of U is shared
    by enough rows that panels no longer paid off in both directions
    (hidden 512, forward/backward per step: B = 16 857/645 us as one
    product, 666/669 us in 29-row panels; B = 24 1039/923 against
    1155/874 us), so validation's 16-video passes keep one product.  The rule
    depends on (rows, hidden) only, so T chained one-step calls round
    as one T-step call does.
    """
    width = rows * 4 * hidden
    if not 2 <= rows < 16 or width * hidden <= SMALL_GEMM_MACS:
        return (slice(None),)
    count = -(-hidden // max(SMALL_GEMM_MACS // width, 1))
    height = -(-hidden // count)
    return tuple(slice(s, min(s + height, hidden)) for s in range(0, hidden, height))


def lstm_forward(p, XW, h0=None, c0=None):
    """LSTM recurrence over the projected rows XW[t] = x_t W, T >= 1.

    XW is one sequence (T x 4*hidden), or B (T x B x 4*hidden) with
    (B, hidden) states, whose h_{t-1} U is a sum of B-row products over
    recurrent_panels(B, hidden) (one GEMM but for few rows).  Step t forms
    [zi zf zg zo] = x_t W + b + h_{t-1} U, then
    i = sigmoid(zi), f = sigmoid(zf), g = tanh(zg), o = sigmoid(zo),
    c_t = f * c_{t-1} + i * g, h_t = o * tanh(c_t).  The gates take one
    tanh, gate = s tanh(s z) + 1 - s with s = 1/2 on the sigmoid blocks
    (sigmoid(z) = tanh(z/2)/2 + 1/2) and s = 1 on g, so none overflows.

    XW is consumed: b is added and the gates are activated in place, and
    XW itself is returned as the cache's G, so a pass holds one
    T x 4*hidden array, not two, and the caller must not read XW again.
    It must be C-contiguous (time-major: each step's rows are one
    block), have U's dtype and share no memory with W, U or b (a
    basic-indexing row of W would be a view of the weights); any
    violation raises ValueError before XW is touched.

    b is added once for the whole sequence.  Every step writes h_{t-1} U
    and i * g through out= into arrays made once per call, and the
    scale and shift rows are as wide as a step's gates, so a step
    allocates and broadcasts nothing; its activated gates are copied
    gate-major, so the cell update reads contiguous rows.

    Returns (H, h_T, c_T, cache) with cache = (Hs, Cs, G) and the views
    H = Hs[1:], h_T = Hs[T], c_T = Cs[T].  Hs and Cs are (T+1) x [B x]
    hidden, row 0 the initial state (zeros when None) and row t+1 the
    state after step t; G holds the activated gates [i f g o].
    """
    hid = p.hidden
    if XW.ndim not in (2, 3) or XW.shape[-1] != 4 * hid:
        raise ValueError(f"sequence has shape {XW.shape}, expected (T, [B,] {4 * hid})")
    T = XW.shape[0]
    if T < 1:
        raise ValueError("sequence must contain at least one timestep")
    state_shape = XW.shape[1:-1] + (hid,)
    for name, state in (("h0", h0), ("c0", c0)):
        if state is not None and state.shape != state_shape:
            raise ValueError(f"{name} has shape {state.shape}, expected {state_shape}")
    dt = p.U.dtype
    if XW.dtype != dt:
        raise ValueError(f"sequence has dtype {XW.dtype}, expected U's {dt}")
    if not XW.flags.c_contiguous:
        raise ValueError("sequence is not C-contiguous: lstm_forward steps "
                         "time-major rows")
    if any(np.may_share_memory(XW, w) for w in (p.W, p.U, p.b)):
        raise ValueError("sequence shares memory with the weights, which the "
                         "in-place gates would overwrite")
    Hs = np.empty((T + 1,) + state_shape, dtype=dt)
    Cs = np.empty((T + 1,) + state_shape, dtype=dt)
    Hs[0] = 0 if h0 is None else h0
    Cs[0] = 0 if c0 is None else c0
    width = XW.shape[1:]
    scale = np.full(width, 0.5, dtype=dt)
    scale[..., 2 * hid:3 * hid] = 1.0
    shift = 1.0 - scale
    XW += p.b
    # each step's activated gates, copied gate-major so that the cell
    # update reads contiguous rows
    gates = np.empty((4,) + state_shape, dtype=dt)
    i, f, g, o = gates
    batch = XW.shape[1] if XW.ndim == 3 else 1
    panels = [(s, p.U[s]) for s in recurrent_panels(batch, hid)]
    hU, ig = np.empty(width, dtype=dt), np.empty(state_shape, dtype=dt)
    by_gate = XW.reshape(XW.shape[:-1] + (4, hid)).swapaxes(1, -2)  # T x 4 x [B x] hidden
    for z, z_gates, h, c, h1, c1 in zip(XW, by_gate, Hs[:-1], Cs[:-1], Hs[1:], Cs[1:]):
        for s, U_s in panels:
            np.dot(h[..., s], U_s, out=hU)
            z += hU
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.copyto(gates, z_gates)
        np.multiply(f, c, out=c1)
        np.multiply(i, g, out=ig)
        c1 += ig
        np.tanh(c1, out=h1)
        h1 *= o
    return Hs[1:], Hs[T], Cs[T], (Hs, Cs, XW)


def lstm_backward(p, cache, dH=None, dh_last=None, dc_last=None, out=(None, None)):
    """Backpropagation through time over lstm_forward's (Hs, Cs, G).

    The cache holds one sequence or B of them, as lstm_forward made it.
    dH (T x [B x] hidden) holds the loss gradient w.r.t. every per-step
    hidden output; dh_last/dc_last ([B x] hidden) the gradient w.r.t.
    the final state.  Any of them may be None (treated as zero).

    Step t's pre-activation gradient, also that of XW[t], is
    dz = [dc g i(1-i), dc c_{t-1} f(1-f), dc i(1-g^2), dh tanh(c_t) o(1-o)]
    for the running dh, dc.  Their factors take a few whole-sequence
    operations into dZ; the reverse time loop scales row t of dZ by
    [dc dc dc dh] in one product and carries dh = (U dz^T)^T (half
    dz U^T's time for B > 1), dc = f dc back one step, every product
    and the carried states in arrays made once per call and kept
    contiguous, so a step allocates and broadcasts nothing but the copy
    of dc into three blocks; the rows of U dz^T come from the row panels
    of U that lstm_forward multiplies by.  Then dU = Hs[:-1]^T dZ and db
    = sum dZ over all rows, written into out = (dU, db) when given
    (views of a gradient buffer, say), else into new arrays.

    Returns (dXW, dU, db, dh0, dc0).
    """
    Hs, Cs, G = cache
    T = G.shape[0]
    hid = p.hidden
    dt = p.U.dtype
    state_shape = G.shape[1:-1] + (hid,)
    if dH is not None and dH.shape != (T,) + state_shape:
        raise ValueError(f"dH has shape {dH.shape}, expected {(T,) + state_shape}")
    i, f, g, o = (G[..., k * hid:(k + 1) * hid] for k in range(4))
    dZ = np.zeros(G.shape, dtype=dt)  # the g block stays finite until it is set
    blocks = dZ.reshape(G.shape[:-1] + (4, hid))
    dz_i, dz_f, dz_g, dz_o = (blocks[..., k, :] for k in range(4))
    tc = np.tanh(Cs[1:], out=dz_o)
    dc_from_dh = np.multiply(tc, tc)  # o (1 - tc^2)
    np.subtract(1.0, dc_from_dh, out=dc_from_dh)
    dc_from_dh *= o
    # blocks i, f and o as [g c_{t-1} . tc] [i f . o] (1 - [i f . o]) in
    # three whole-width passes, then block g as i (1 - g^2)
    np.copyto(dz_i, g)
    np.copyto(dz_f, Cs[:-1])
    dZ *= G
    dZ *= np.subtract(1.0, G)
    tmp = np.multiply(g, g)
    np.multiply(i, np.subtract(1.0, tmp, out=tmp), out=dz_g)
    np.copyto(tmp, f)
    f = tmp  # contiguous rows for dc *= f
    dh = np.zeros(state_shape, dtype=dt) if dh_last is None else dh_last.astype(dt, copy=True)
    dc = np.zeros(state_shape, dtype=dt) if dc_last is None else dc_last.astype(dt, copy=True)
    dcdh = np.empty(state_shape, dtype=dt)  # dh * dc_from_dh[t]
    # each row's [dc dc dc dh], by which one product scales a step's dz
    D = np.empty(blocks.shape[1:], dtype=dt)
    D_c, D_h, D_rows = D[..., :3, :], D[..., 3, :], D.reshape(G.shape[1:])
    dc3 = dc[..., None, :]
    dhT = np.empty(state_shape[::-1], dtype=dt)  # U dz^T, refilled each step
    batch = G.shape[1] if G.ndim == 3 else 1
    panels = [(p.U[s], dhT[s]) for s in recurrent_panels(batch, hid)]
    steps = zip(dZ[::-1], dc_from_dh[::-1], f[::-1],
                dH[::-1] if dH is not None else itertools.repeat(None))
    for dz, dcdh_t, f_t, dH_t in steps:
        if dH_t is not None:
            dh += dH_t
        np.multiply(dh, dcdh_t, out=dcdh)
        dc += dcdh
        np.copyto(D_c, dc3)
        np.copyto(D_h, dh)
        dz *= D_rows
        for U_s, dh_s in panels:
            np.dot(U_s, dz.T, out=dh_s)
        np.copyto(dh, dhT.T)  # contiguous rows for the next step
        dc *= f_t
    rows = dZ.reshape(-1, 4 * hid)
    dU, db = out
    dU = np.matmul(Hs[:-1].reshape(-1, hid).T, rows, out=dU)
    return dZ, dU, rows.sum(axis=0, out=db), dh, dc


# ---------------------------------------------------------------------------
# Dense softmax head
# ---------------------------------------------------------------------------

def dense_softmax_forward(p, H):
    """Apply the dense layer to every row of H and softmax the logits."""
    if H.ndim != 2 or H.shape[1] != p.hidden:
        raise ValueError(f"input has shape {H.shape}, expected (T, {p.hidden})")
    logits = H @ p.W
    logits += p.b
    return softmax_rows(logits)


def dense_softmax_backward(p, H, d_logits, out=(None, None)):
    """Gradients (dW, db, dH) of the dense layer given the gradient
    w.r.t. its logits; dW and db go into out = (dW, db) when given."""
    dW, db = out
    dW = np.matmul(H.T, d_logits, out=dW)
    db = d_logits.sum(axis=0, out=db)
    dH = d_logits @ p.W.T
    return dW, db, dH


def cross_entropy(P, target):
    """Mean categorical cross-entropy of one sequence (T x V P, (T,)
    target) or of B (T x B x V, (T, B)), time-major as lstm_forward steps.

    target holds 1-based class indices, 0 for padding.  A sequence's
    loss is the mean over its n scored (non-padding) rows, the batch's
    the mean over sequences.  Returns (loss, d_logits): P minus 1 at
    each target cell on scored rows, divided by B n, and zero on padding
    rows.  The loss sums the log-probabilities in float64 whatever P's
    dtype.  Finiteness is read off P's row sums, which the normalization
    check needs anyway; P itself is scanned only when a sum is not finite.
    A finite P whose row sum overflows fails the normalization check.
    """
    V = P.shape[-1]
    if target.shape != P.shape[:-1] or target.dtype.kind not in "iu":
        raise ValueError(f"target must be an integer array of shape {P.shape[:-1]}, "
                         f"got {target.dtype} {target.shape}")
    if target.size and (target.min() < 0 or target.max() > V):
        raise ValueError(f"target indices must lie in [0, {V}]")
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN sum fails below
        sums = P.sum(axis=-1)
    # a non-finite P makes its row's sum non-finite: finite sums spare a
    # pass over P
    if not all_finite(sums) and not all_finite(P):
        raise FloatingPointError("non-finite probabilities in cross_entropy")
    if not np.all(np.abs(sums - 1.0) <= 1e-4):
        raise ValueError("P rows are not normalized probability vectors")
    seq = target.reshape(len(target), -1)  # T x B
    rows = P.reshape(seq.shape + (V,))
    B = seq.shape[1]
    scored = seq > 0
    n = np.maximum(scored.sum(axis=0), 1)
    t, b = np.nonzero(scored)
    cols = seq[t, b] - 1
    picked = rows[t, b, cols]
    tiny = np.finfo(P.dtype).tiny  # guards log against exp underflow to 0
    nll = np.bincount(b, weights=-np.log(np.maximum(picked, tiny)), minlength=B)
    loss = float(np.sum(nll / n)) / B
    d_logits = np.where(scored[..., None], rows, 0)
    d_logits[t, b, cols] = picked - 1.0
    d_logits /= (B * n).astype(P.dtype)[:, None]
    return loss, d_logits.reshape(P.shape)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Optimizer state over one flat parameter buffer.

    layout holds the (name, size) of each tensor the buffer holds back
    to back, in order; it only names the tensor in adam_step's
    non-finite-gradient error, and it has no default, so a state
    without one fails where it is built.  m and v are the first and
    second moments, flat and laid out as the parameters: zeros created
    at the first step, then updated in place as the same two arrays,
    as are the two block scratch rows in work.  t counts the steps
    taken.
    """

    layout: tuple
    lr: float = 1e-4
    t: int = 0
    m: np.ndarray = None
    v: np.ndarray = None
    work: np.ndarray = None


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-7

# Elements per block: a block's four operand slices and two scratch rows
# (6 x 128 KB in float32) stay in L2.  A full-size step (Xeon, 2 MB L2
# per core) took ~80 ms at 2^15 and 2^17 and ~105-113 ms at 2^13.
ADAM_BLOCK = 1 << 15


def adam_step(state, p, g):
    """One Adam update with bias correction of the flat buffer p by its
    gradient g (1-D arrays of one shape, laid out as state.layout says),
    applied in place.

    Raises ValueError on a shape or layout mismatch or a p that is not
    C-contiguous, and FloatingPointError on any non-finite gradient,
    naming the tensor that holds the first one.  Everything is checked
    before t, a moment or a parameter changes: one util.all_finite over
    the whole of g (full size, 14.3 M float32 values, one Xeon CPU:
    2.1 ms, against 3.8-4.0 ms for an isfinite pass into a reused block
    mask and 4.3-4.6 ms for a min and a max), and only when that fails
    one all_finite per tensor of state.layout, in order, to name it.

    The parameters and the moments state.m/state.v are then updated in
    one pass over the buffer, one ADAM_BLOCK-element block at a time
    through two scratch rows made at the first step (state.work), so no
    step allocates a buffer-sized temporary and none loops over tensors.
    Each block runs the ufuncs of (beta1, beta2, eps = ADAM_BETA1/2,
    ADAM_EPS)
        m = beta1 m + (1 - beta1) g
        v = beta2 v + (1 - beta2) g^2
        p -= lr (m / b1c) / (sqrt(v / b2c) + eps)
    in this order on the same operands.  Every operation is elementwise,
    so the results are bitwise those of the unblocked per-tensor formula
    wherever the blocks fall across tensor boundaries.
    """
    if p.ndim != 1 or g.shape != p.shape:
        raise ValueError(f"parameter buffer {p.shape} and gradient {g.shape} "
                         "must be 1-D of one shape")
    if not p.flags.c_contiguous:
        raise ValueError("parameter buffer is not C-contiguous")
    covered = sum(size for _, size in state.layout)
    if covered != p.size:
        raise ValueError(f"layout covers {covered} values, the buffer holds {p.size}")
    if not all_finite(g):
        start = 0
        for name, size in state.layout:
            if not all_finite(g[start:start + size]):
                raise FloatingPointError(f"non-finite gradient for tensor '{name}'")
            start += size
    if state.m is None:
        state.work = np.empty((2, min(ADAM_BLOCK, p.size)), dtype=np.result_type(p, g))
        state.m, state.v = (np.zeros(p.shape, dtype=state.work.dtype) for _ in range(2))
    state.t += 1
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
    b1c = 1.0 - b1 ** state.t
    b2c = 1.0 - b2 ** state.t
    for s in range(0, p.size, ADAM_BLOCK):
        gb, mb, vb, pb = (x[s:s + ADAM_BLOCK] for x in (g, state.m, state.v, p))
        a, u = state.work[:, :gb.size]
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
    return p, state


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

FD_STEP, FD_FULL_LIMIT, FD_SAMPLE_SIZE, FD_SEED = 1e-5, 512, 64, 0


def finite_difference_check(f, params, analytic_grads):
    """Compare analytic gradients against central finite differences.

    f maps the params dict to a scalar loss.  Tensors with at most
    FD_FULL_LIMIT entries are checked coordinate by coordinate; larger
    ones on FD_SAMPLE_SIZE coordinates drawn with an rng seeded FD_SEED.
    Steps are +-FD_STEP.  Returns the maximum relative error
    |fd - an| / max(|fd|, |an|, 1e-8).
    """
    rng = np.random.default_rng(FD_SEED)
    worst = 0.0
    for name, arr in params.items():
        an_flat = np.asarray(analytic_grads[name]).reshape(-1)
        flat = arr.reshape(-1)
        n = flat.size
        if n <= FD_FULL_LIMIT:
            coords = range(n)
        else:
            coords = sorted(rng.choice(n, size=FD_SAMPLE_SIZE, replace=False).tolist())
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            f_plus = f(params)
            flat[idx] = orig - FD_STEP
            f_minus = f(params)
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            an = float(an_flat[idx])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
    return worst
