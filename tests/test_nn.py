"""Kernel tests: LSTM forward/backward, softmax, cross-entropy, Adam, init."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidcap import nn
from vidcap.model import _tile
from memtrace import traced
from oracles import (AdamReferenceState, adam_step_reference, cross_entropy_one_hot,
                     glorot_uniform_one_shot, lstm_backward_outer,
                     lstm_backward_reference, lstm_cell_scalar, lstm_forward_reference,
                     one_hot_rows, orthogonal_householder, softmax_rows_reference)


def random_lstm(rng, in_dim, hid, dtype=np.float64, scale=0.5):
    return nn.LstmParams(
        (scale * rng.standard_normal((in_dim, 4 * hid))).astype(dtype),
        (scale * rng.standard_normal((hid, 4 * hid))).astype(dtype),
        (scale * rng.standard_normal(4 * hid)).astype(dtype))


def init_lstm(rng, in_dim, hid, dtype=np.float32):
    """nn.init_lstm_params into new arrays of these shapes."""
    return nn.init_lstm_params(rng, nn.LstmParams(np.empty((in_dim, 4 * hid), dtype),
                                                  np.empty((hid, 4 * hid), dtype),
                                                  np.empty(4 * hid, dtype)))


def oracle_caches(cache):
    """lstm_forward's (Hs, Cs, G) as the per-step tuples
    (h_prev, c_prev, i, f, g, o, c) that lstm_backward_outer reads."""
    Hs, Cs, G = cache
    return [(Hs[t], Cs[t], *np.split(G[t], 4), Cs[t + 1])
            for t in range(len(G))]


# ---------------------------------------------------------------------------
# LSTM single step (T = 1), as decode_step runs it
# ---------------------------------------------------------------------------

def test_cell_zero_params_zero_state():
    p = nn.LstmParams(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
    H, h, c, cache = nn.lstm_forward(p, np.zeros((1, 3)) @ p.W, np.zeros(2), np.zeros(2))
    assert np.array_equal(h, np.zeros(2)) and np.array_equal(H, np.zeros((1, 2)))
    assert np.array_equal(c, np.zeros(2))
    [(_, _, i, f, g, o, _)] = oracle_caches(cache)
    assert np.allclose(i, 0.5) and np.allclose(f, 0.5) and np.allclose(o, 0.5)
    assert np.array_equal(g, np.zeros(2))


def test_cell_saturated_gates_reach_tanh_one():
    # f and o biases at +50 saturate their sigmoids; i at 0 stays 0.5, g = 0
    p = nn.LstmParams(np.zeros((2, 4)), np.zeros((1, 4)),
                      np.array([0.0, 50.0, 0.0, 50.0]))
    _, h, c, _ = nn.lstm_forward(p, np.array([[3.0, -1.0]]) @ p.W, np.zeros(1),
                                 np.ones(1))
    assert abs(c[0] - 1.0) < 1e-6
    assert abs(h[0] - 0.7615941559557649) < 1e-6


def test_forward_float32_gates_saturate_exactly_without_warning():
    # |z| = 1e4 overflows exp(-z) in float32; the tanh form must not
    hid = 2
    z = np.array([1e4, -1e4], dtype=np.float32)
    p = nn.LstmParams(np.zeros((1, 4 * hid), np.float32),
                      np.zeros((hid, 4 * hid), np.float32),
                      np.tile(z, 4))
    with np.errstate(all="raise"):
        _, _, _, (_, _, G) = nn.lstm_forward(p, np.zeros((1, 4 * hid), np.float32))
    assert G.dtype == np.float32
    i, f, g, o = np.split(G[0], 4)
    for sig in (i, f, o):
        assert sig[0] == 1.0 and sig[1] == 0.0
    assert g[0] == 1.0 and g[1] == -1.0


@pytest.mark.parametrize("seed", range(5))
def test_cell_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    p = random_lstm(rng, 3, 2)
    x = rng.standard_normal(3)
    h0 = rng.standard_normal(2)
    c0 = rng.standard_normal(2)
    _, h, c, _ = nn.lstm_forward(p, x[None, :] @ p.W, h0, c0)
    h_ref, c_ref = lstm_cell_scalar(p.W, p.U, p.b, x, h0, c0)
    assert np.max(np.abs(h - np.array(h_ref))) < 1e-12
    assert np.max(np.abs(c - np.array(c_ref))) < 1e-12


def test_cell_dimension_errors():
    p = nn.LstmParams(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
    with pytest.raises(ValueError):
        nn.lstm_forward(p, np.zeros((1, 7)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="h0"):
        nn.lstm_forward(p, np.zeros((1, 8)), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="c0"):
        nn.lstm_forward(p, np.zeros((1, 8)), np.zeros(2), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# LSTM sequence forward
# ---------------------------------------------------------------------------

def test_forward_single_step_equals_cell():
    # a one-row call from zero state returns views of its own cache
    rng = np.random.default_rng(0)
    p = random_lstm(rng, 3, 2)
    XW = rng.standard_normal((1, 3)) @ p.W
    H, hT, cT, (Hs, Cs, G) = nn.lstm_forward(p, XW.copy())
    _, h, c, _ = nn.lstm_forward(p, XW, np.zeros(2), np.zeros(2))
    assert np.array_equal(H[0], h) and np.array_equal(hT, h)
    assert np.array_equal(cT, c)
    assert Hs.shape == Cs.shape == (2, 2) and G.shape == (1, 8)
    assert np.array_equal(Hs[0], np.zeros(2)) and np.array_equal(Cs[0], np.zeros(2))
    assert np.array_equal(Hs[1], hT) and np.array_equal(Cs[1], cT)


def test_forward_equals_chained_cells():
    # chained one-step calls, as greedy decoding makes them, give the
    # sequence forward's states bitwise
    rng = np.random.default_rng(1)
    p = random_lstm(rng, 3, 2)
    XW = rng.standard_normal((4, 3)) @ p.W
    H, hT, cT, _ = nn.lstm_forward(p, XW.copy())
    h = np.zeros(2)
    c = np.zeros(2)
    for t in range(4):
        _, h, c, _ = nn.lstm_forward(p, XW[t:t + 1], h, c)
        assert np.array_equal(H[t], h)
    assert np.array_equal(hT, h) and np.array_equal(cT, c)


# (T, input_dim, hidden): single steps, single units, and input_dim both
# below and above the projected width 4*hidden
FORWARD_CASES = [
    (1, 3, 2),
    (1, 1, 1),
    (6, 2, 1),
    (5, 3, 4),
    (4, 9, 2),
    (1, 12, 3),
    (9, 40, 5),
    (3, 5, 6),
]


@pytest.mark.parametrize("case", range(len(FORWARD_CASES)))
def test_forward_matches_chained_scalar_oracle(case):
    T, in_dim, hid = FORWARD_CASES[case]
    rng = np.random.default_rng(100 + case)
    p = random_lstm(rng, in_dim, hid)
    X = rng.standard_normal((T, in_dim))
    h0 = rng.standard_normal(hid)
    c0 = rng.standard_normal(hid)
    H, hT, cT, _ = nn.lstm_forward(p, X @ p.W, h0, c0)
    h, c = h0, c0
    for t in range(T):
        h, c = lstm_cell_scalar(p.W, p.U, p.b, X[t], h, c)
        assert np.max(np.abs(H[t] - np.array(h))) < 1e-12
    assert np.max(np.abs(hT - np.array(h))) < 1e-12
    assert np.max(np.abs(cT - np.array(c))) < 1e-12


def test_forward_zero_params_zero_outputs():
    p = nn.LstmParams(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
    X = np.random.default_rng(2).standard_normal((5, 3))
    H, hT, cT, _ = nn.lstm_forward(p, X @ p.W)
    assert np.array_equal(H, np.zeros((5, 2)))
    assert np.array_equal(hT, np.zeros(2)) and np.array_equal(cT, np.zeros(2))


def test_forward_rejects_empty_and_misshaped():
    p = nn.LstmParams(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
    for shape in ((0, 8), (4, 2), (8,), (4, 3, 2, 8), (4, 3, 7)):
        with pytest.raises(ValueError):
            nn.lstm_forward(p, np.zeros(shape))


@pytest.mark.parametrize("view", ["video-major", "batch-column"])
def test_forward_rejects_strided_xw_untouched(view):
    # one step path: a strided XW raises before b is added to it or a
    # gate activated in place
    rng = np.random.default_rng(6)
    p = random_lstm(rng, 3, 2)
    # 3 videos x 4 steps read time-major, or the second of a time-major
    # batch's 4 sequences (3 steps each)
    rows = rng.standard_normal((3, 4, 8))
    XW = rows.swapaxes(0, 1) if view == "video-major" else rows[:, 1]
    assert not XW.flags.c_contiguous
    before = rows.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        nn.lstm_forward(p, XW)
    assert rows.tobytes() == before


# (T, hidden, B): toy sizes, one row, and the encoder's full width, where
# a 16-row h @ U GEMM rounds unlike 16 mat-vecs (measured up to 3e-7),
# and 2 to 7 rows take U in row panels (nn.recurrent_panels)
BATCH_CASES = [(5, 4, 3), (7, 8, 16), (3, 2, 1), (80, 512, 16), (80, 512, 1),
               (20, 512, 2), (20, 512, 4), (20, 512, 7)]


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_forward_batch_matches_per_sequence_calls(case):
    # float32 as in eval; within 1e-5 of one (T, 4H) call per sequence,
    # and bitwise at B = 1, where the GEMM has one row (measured exact)
    T, hid, B = BATCH_CASES[case]
    rng = np.random.default_rng(200 + case)
    p = init_lstm(rng, 6, hid)
    XW = rng.standard_normal((T, B, 4 * hid)).astype(np.float32)
    h0 = rng.standard_normal((B, hid)).astype(np.float32)
    c0 = rng.standard_normal((B, hid)).astype(np.float32)
    H, hT, cT, (Hs, Cs, G) = nn.lstm_forward(p, XW.copy(), h0, c0)
    assert H.shape == (T, B, hid) and hT.shape == cT.shape == (B, hid)
    assert Hs.shape == Cs.shape == (T + 1, B, hid) and G.shape == XW.shape
    for b in range(B):
        H1, h1, c1, _ = nn.lstm_forward(p, np.ascontiguousarray(XW[:, b]), h0[b], c0[b])
        got, want = (H[:, b], hT[b], cT[b]), (H1, h1, c1)
        if B == 1:
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert max(np.max(np.abs(x - y)) for x, y in zip(got, want)) < 1e-5


def test_chained_steps_at_few_rows_are_bitwise_one_call():
    # T one-step calls over 4 full-width rows, as batched greedy decoding
    # makes them, split U into the same panels as one T-step call, so
    # states and the stacked caches' backward are bitwise that call's
    T, B, hid = 6, 4, 512
    assert len(nn.recurrent_panels(B, hid)) > 1
    rng = np.random.default_rng(9)
    p = init_lstm(rng, 6, hid)
    XW = rng.standard_normal((T, B, 4 * hid)).astype(np.float32)
    h0, c0 = rng.standard_normal((2, B, hid)).astype(np.float32)
    H, hT, cT, cache = nn.lstm_forward(p, XW.copy(), h0, c0)
    h, c, steps = h0, c0, []
    for t in range(T):
        Ht, h, c, step = nn.lstm_forward(p, XW[t:t + 1], h, c)
        assert np.array_equal(Ht[0], H[t])
        steps.append(step)
    assert np.array_equal(h, hT) and np.array_equal(c, cT)
    chained = (np.concatenate([steps[0][0][:1]] + [s[0][1:] for s in steps]),
               np.concatenate([steps[0][1][:1]] + [s[1][1:] for s in steps]),
               np.concatenate([s[2] for s in steps]))
    dH = rng.standard_normal((T, B, hid)).astype(np.float32)
    for g, w in zip(nn.lstm_backward(p, chained, dH), nn.lstm_backward(p, cache, dH)):
        assert np.array_equal(g, w)


# (T, B, hidden, dtype): B None is one sequence; every XW is time-major
# and C-contiguous, the one layout lstm_forward takes
FROZEN_CASES = [
    (10, 1, 32, np.float32), (10, 5, 32, np.float32),
    (10, 6, 32, np.float32), (8, 5, 32, np.float32),
    (8, None, 32, np.float32), (6, 4, 7, np.float64),
    (8, 2, 512, np.float32), (8, 4, 512, np.float32),
    (6, 16, 512, np.float32), (3, 101, 512, np.float32),
    (2, None, 512, np.float32),
]


def frozen_inputs(case):
    T, B, hid, dtype = case
    rng = np.random.default_rng(500 + hid + (B or 0))
    p = init_lstm(rng, 6, hid, dtype)
    rows = () if B is None else (B,)
    XW = rng.standard_normal((T,) + rows + (4 * hid,)).astype(dtype)
    h0, c0, dh_last, dc_last = rng.standard_normal((4,) + rows + (hid,)).astype(dtype)
    dH = rng.standard_normal((T,) + rows + (hid,)).astype(dtype)
    return p, XW, h0, c0, dH, dh_last, dc_last


@pytest.mark.parametrize("case", FROZEN_CASES)
def test_kernels_are_bitwise_the_frozen_step_arithmetic(case):
    # every output of both kernels, with and without upstream gradients,
    # against the frozen per-step code they replaced
    p, XW, h0, c0, dH, dh_last, dc_last = frozen_inputs(case)
    got = nn.lstm_forward(p, XW.copy(), h0, c0)
    want = lstm_forward_reference(p, XW.copy(), h0, c0)
    for g, w in zip(got[:3] + got[3], want[:3] + want[3]):
        assert g.shape == w.shape and np.array_equal(g, w)
    for upstream in ((dH, dh_last, dc_last), (None, dh_last, None), (dH, None, None)):
        got_b = nn.lstm_backward(p, got[3], *upstream)
        want_b = lstm_backward_reference(p, want[3], *upstream)
        for g, w in zip(got_b, want_b):
            assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("B, hid", [(6, 32), (4, 512), (101, 512)])
def test_chained_one_step_calls_are_bitwise_the_frozen_ones(B, hid):
    # greedy decoding's T = 1 calls, each from the last one's state
    p, XW, h, c, dH, dh_last, dc_last = frozen_inputs((4, B, hid, np.float32))
    hr, cr = h, c
    for t in range(len(XW)):
        H, h, c, cache = nn.lstm_forward(p, XW[t:t + 1].copy(), h, c)
        Hr, hr, cr, cache_r = lstm_forward_reference(p, XW[t:t + 1].copy(), hr, cr)
        for g, w in zip((H, h, c) + cache, (Hr, hr, cr) + cache_r):
            assert np.array_equal(g, w)
        for g, w in zip(nn.lstm_backward(p, cache, dH[t:t + 1], dh_last, dc_last),
                        lstm_backward_reference(p, cache_r, dH[t:t + 1], dh_last, dc_last)):
            assert np.array_equal(g, w)


def test_recurrent_panels_rule():
    # the split is all of U in one product for one row, toy widths and
    # 16+ rows; at the full width 2-15 rows take equal row panels that
    # tile U, each product within OpenBLAS's small-matrix size
    for hid in (1, 32, 64, 512, 2048):
        assert nn.recurrent_panels(1, hid) == (slice(None),)
    for hid in (32, 64):
        for B in range(1, 51):
            assert nn.recurrent_panels(B, hid) == (slice(None),)
    hid = 512
    for B in range(2, 16):
        panels = nn.recurrent_panels(B, hid)
        height = panels[0].stop - panels[0].start
        assert panels[0].start == 0 and panels[-1].stop == hid
        assert all(a.stop == b.start for a, b in zip(panels, panels[1:]))
        assert all(s.stop - s.start == height for s in panels[:-1])
        assert 0 < panels[-1].stop - panels[-1].start <= height
        assert B * 4 * hid * height <= nn.SMALL_GEMM_MACS
        # the fewest panels: one fewer would exceed the bound
        fewer = -(-hid // (len(panels) - 1))
        assert B * 4 * hid * fewer > nn.SMALL_GEMM_MACS
    for B in range(16, 51):
        assert nn.recurrent_panels(B, hid) == (slice(None),)


def test_forward_batch_zero_state_default():
    rng = np.random.default_rng(5)
    p = random_lstm(rng, 3, 2)
    XW = rng.standard_normal((4, 3, 8))
    zeros = np.zeros((3, 2))
    for x, y in zip(nn.lstm_forward(p, XW.copy())[:3], nn.lstm_forward(p, XW, zeros, zeros)[:3]):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("shape", [(2,), (3,), (2, 2), (3, 3), (1, 3, 2)])
@pytest.mark.parametrize("which", ["h0", "c0"])
def test_forward_batch_rejects_misshaped_states(shape, which):
    # a batch of 3 sequences needs (3, 2) states
    p = nn.LstmParams(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
    good = np.zeros((3, 2))
    states = {"h0": good, "c0": good, which: np.zeros(shape)}
    with pytest.raises(ValueError, match=which):
        nn.lstm_forward(p, np.zeros((4, 3, 8)), **states)


# ---------------------------------------------------------------------------
# LSTM backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream_zero_grads():
    rng = np.random.default_rng(3)
    p = random_lstm(rng, 3, 2)
    _, _, _, cache = nn.lstm_forward(p, rng.standard_normal((3, 3)) @ p.W)
    dXW, dU, db, dh0, dc0 = nn.lstm_backward(p, cache)
    for g in (dXW, dU, db, dh0, dc0):
        assert np.array_equal(g, np.zeros_like(g))


def _sequence_loss_setup(seed, in_dim=3, hid=2, T=3):
    rng = np.random.default_rng(seed)
    p = random_lstm(rng, in_dim, hid)
    tensors = {"W": p.W, "U": p.U, "b": p.b,
               "X": rng.standard_normal((T, in_dim)),
               "h0": rng.standard_normal(hid),
               "c0": rng.standard_normal(hid)}
    R = rng.standard_normal((T, hid))
    r_h = rng.standard_normal(hid)
    r_c = rng.standard_normal(hid)

    def loss(t):
        q = nn.LstmParams(t["W"], t["U"], t["b"])
        H, hT, cT, _ = nn.lstm_forward(q, t["X"] @ t["W"], t["h0"], t["c0"])
        return float((H * R).sum() + hT @ r_h + cT @ r_c)

    q = nn.LstmParams(tensors["W"], tensors["U"], tensors["b"])
    X = tensors["X"]
    _, _, _, cache = nn.lstm_forward(q, X @ q.W, tensors["h0"], tensors["c0"])
    dXW, dU, db, dh0, dc0 = nn.lstm_backward(q, cache, R, r_h, r_c)
    grads = {"W": X.T @ dXW, "U": dU, "b": db, "X": dXW @ q.W.T,
             "h0": dh0, "c0": dc0}
    return loss, tensors, grads


@pytest.mark.parametrize("seed", range(20))
def test_backward_finite_differences(seed):
    loss, tensors, grads = _sequence_loss_setup(seed)
    assert nn.finite_difference_check(loss, tensors, grads) < 1e-6


def test_backward_duplicated_batch_doubles_grads():
    rng = np.random.default_rng(4)
    p = random_lstm(rng, 3, 2)
    X = rng.standard_normal((3, 3))
    R = rng.standard_normal((3, 2))
    _, _, _, cache = nn.lstm_forward(p, X @ p.W)
    one = nn.lstm_backward(p, cache, R)
    two = [a + b for a, b in zip(nn.lstm_backward(p, cache, R), one)]
    for g1, g2 in zip(one, two):
        assert np.array_equal(2.0 * g1, g2)


# (T, input_dim, hidden, dH, dh_last, dc_last): single steps, single units
# and every on/off combination of the three upstream gradients
BACKWARD_CASES = [
    (1, 3, 2, True, True, True),
    (1, 1, 1, False, True, False),
    (5, 4, 1, True, False, False),
    (1, 6, 3, False, False, True),
    (7, 2, 5, True, True, False),
    (4, 5, 3, False, True, True),
    (6, 3, 4, True, False, True),
    (3, 8, 2, False, False, False),
    (12, 9, 6, True, True, True),
]


def _backward_case(seed, T, in_dim, hid, with_dH, with_dh, with_dc):
    rng = np.random.default_rng(seed)
    p = random_lstm(rng, in_dim, hid)
    X = rng.standard_normal((T, in_dim))
    h0 = rng.standard_normal(hid)
    c0 = rng.standard_normal(hid)
    _, _, _, cache = nn.lstm_forward(p, X @ p.W, h0, c0)
    dH = rng.standard_normal((T, hid)) if with_dH else None
    dh_last = rng.standard_normal(hid) if with_dh else None
    dc_last = rng.standard_normal(hid) if with_dc else None
    return p, X, h0, c0, cache, dH, dh_last, dc_last


@pytest.mark.parametrize("case", range(len(BACKWARD_CASES)))
def test_backward_matches_outer_product_oracle(case):
    p, X, _, _, cache, dH, dh_last, dc_last = _backward_case(
        case, *BACKWARD_CASES[case])
    dXW, dU, db, dh0, dc0 = nn.lstm_backward(p, cache, dH, dh_last, dc_last)
    # the caller's projection gradients, as the encoder forms them
    got = (X.T @ dXW, dU, db, dXW @ p.W.T, dh0, dc0)
    want = lstm_backward_outer(p.W, p.U, X, oracle_caches(cache), dH, dh_last, dc_last)
    for name, g, w in zip(("dW", "dU", "db", "dX", "dh0", "dc0"), got, want):
        assert g.shape == w.shape and g.dtype == np.float64, name
        assert np.max(np.abs(g - w)) < 1e-12, name


# (upstream, T, B, hidden): the three upstream mixes at a toy width, and
# the encoder's full width at 2, 4 and 7 rows, which take U in row panels
BACKWARD_BATCH_CASES = [
    pytest.param("all", 6, 4, 5, id="all"),
    pytest.param("dH", 6, 4, 5, id="dH"),
    pytest.param("final", 6, 4, 5, id="final"),
    pytest.param("all", 20, 2, 512, id="all-512x2"),
    pytest.param("all", 20, 4, 512, id="all-512x4"),
    pytest.param("all", 20, 7, 512, id="all-512x7"),
]


@pytest.mark.parametrize("upstream, T, B, hid", BACKWARD_BATCH_CASES)
def test_backward_batch_equals_per_sequence_calls(upstream, T, B, hid):
    # B stacked sequences: each forward state row, dXW column and dh0/dc0
    # row is that sequence's own; dU and db are the sums of the
    # per-sequence ones.  The toy width draws U at scale 0.5, the full
    # width takes the library's init, whose gates do not saturate.
    rng = np.random.default_rng(12)
    in_dim = 3
    p = (random_lstm(rng, in_dim, hid) if hid < 512
         else init_lstm(rng, in_dim, hid, np.float64))
    XW = rng.standard_normal((T, B, in_dim)) @ p.W
    h0, c0 = rng.standard_normal((2, B, hid))
    dH = rng.standard_normal((T, B, hid)) if upstream != "final" else None
    dh_last, dc_last = (rng.standard_normal((2, B, hid)) if upstream != "dH"
                        else (None, None))
    H, hT, cT, cache = nn.lstm_forward(p, XW.copy(), h0, c0)
    dXW, dU, db, dh0, dc0 = nn.lstm_backward(p, cache, dH, dh_last, dc_last)
    dU_sum, db_sum = np.zeros_like(dU), np.zeros_like(db)
    for b in range(B):
        H1, h1, c1, one = nn.lstm_forward(p, XW[:, b].copy(), h0[b], c0[b])
        for batch_part, single in zip((H[:, b], hT[b], cT[b]), (H1, h1, c1)):
            assert np.max(np.abs(batch_part - single)) < 1e-12
        got = nn.lstm_backward(p, one, None if dH is None else dH[:, b],
                               None if dh_last is None else dh_last[b],
                               None if dc_last is None else dc_last[b])
        for batch_part, single in zip((dXW[:, b], dh0[b], dc0[b]),
                                      (got[0], got[3], got[4])):
            assert np.max(np.abs(batch_part - single)) < 1e-12
        dU_sum += got[1]
        db_sum += got[2]
    assert np.max(np.abs(dU - dU_sum)) < 1e-12
    assert np.max(np.abs(db - db_sum)) < 1e-12


def test_backward_rejects_misshaped_batch_dH():
    p = random_lstm(np.random.default_rng(0), 3, 2)
    _, _, _, cache = nn.lstm_forward(p, np.zeros((4, 3, 8)))
    with pytest.raises(ValueError, match="dH"):
        nn.lstm_backward(p, cache, np.zeros((4, 2)))


@pytest.mark.parametrize("case", range(len(BACKWARD_CASES)))
def test_backward_over_chained_cell_caches_is_bitwise_identical(case):
    # the caches of T one-step calls, stacked, are exactly the sequence's:
    # backward needs nothing but the three arrays
    p, X, h, c, cache, dH, dh_last, dc_last = _backward_case(
        case, *BACKWARD_CASES[case])
    steps = []
    for xw in X @ p.W:
        _, h, c, step = nn.lstm_forward(p, xw[None, :], h, c)
        steps.append(step)
    chained = (np.concatenate([steps[0][0][:1]] + [s[0][1:] for s in steps]),
               np.concatenate([steps[0][1][:1]] + [s[1][1:] for s in steps]),
               np.concatenate([s[2] for s in steps]))
    for a, b in zip(chained, cache):
        assert np.array_equal(a, b)
    want = nn.lstm_backward(p, cache, dH, dh_last, dc_last)
    got = nn.lstm_backward(p, chained, dH, dh_last, dc_last)
    assert len(got) == 5
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# Softmax and cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_constant_logits_uniform():
    P = nn.softmax_rows(np.zeros((2, 5)))
    assert np.allclose(P, 0.2, atol=1e-12)


def test_softmax_closed_form():
    P = nn.softmax_rows(np.array([[0.0, math.log(3.0)]]))
    assert np.allclose(P, [[0.25, 0.75]], atol=1e-12)


# 1-8 rows of one width in 2-40, the shape drawn first so that no
# drawn row list has to be thrown away for unequal lengths
@given(st.tuples(st.integers(1, 8), st.integers(2, 40)).flatmap(
    lambda shape: st.lists(st.lists(st.floats(-1e4, 1e4), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])))
@settings(max_examples=200, deadline=None)
def test_softmax_rows_sum_to_one(rows):
    logits = np.array(rows, dtype=np.float32)
    P = nn.softmax_rows(logits)
    assert P.dtype == np.float32
    sums = P.sum(axis=1, dtype=np.float64)
    assert np.all(np.abs(sums - 1.0) <= 1e-6)
    assert np.all(P >= 0.0) and np.all(P <= 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1500), (16, 1500), (10, 50, 1500), (3, 7)])
def test_softmax_in_place_matches_the_allocating_formula(shape, dtype):
    logits = (8 * np.random.default_rng(len(shape)).standard_normal(shape)).astype(dtype)
    before = logits.copy()
    P = nn.softmax_rows(logits)
    want = softmax_rows_reference(logits)
    assert P.dtype == want.dtype == dtype and np.array_equal(P, want)
    assert np.array_equal(logits, before)  # the input is left as it was


def test_softmax_peak_is_the_cast_and_the_result():
    # float32 logits: one float64 work array (2x their bytes) and the
    # float32 result (1x); a new array per operation peaked at ~7x
    logits = np.random.default_rng(0).standard_normal((640, 1500)).astype(np.float32)
    _, _, peak = traced(nn.softmax_rows, logits)
    assert peak <= 3 * logits.nbytes + 2**20, peak / logits.nbytes


def test_cross_entropy_perfect_prediction_zero_loss():
    loss, d = nn.cross_entropy(np.eye(3), np.array([1, 2, 3]))
    assert loss == 0.0
    assert np.array_equal(d, np.zeros((3, 3)))


def test_cross_entropy_uniform_is_log4():
    P = np.full((2, 4), 0.25)
    loss, _ = nn.cross_entropy(P, np.array([2, 4]))
    assert abs(loss - 1.3862943611198906) < 1e-12


def test_cross_entropy_masks_padding_rows():
    rng = np.random.default_rng(5)
    P = nn.softmax_rows(rng.standard_normal((3, 4)))
    Y = np.array([2, 3, 0])  # row 2 is padding
    loss, d = nn.cross_entropy(P, Y)
    loss2, d2 = nn.cross_entropy(P[:2], Y[:2])
    assert abs(loss - loss2) < 1e-12
    assert np.array_equal(d[2], np.zeros(4))
    assert np.allclose(d[:2], d2)


def test_cross_entropy_rejects_unnormalized_rows():
    # the second row's entries are finite, but its float32 sum is NaN (inf - inf)
    for P in (np.full((1, 4), 0.3),
              np.array([[3e38, 3e38, -3e38, -3e38, 0, 0, 0, 0] * 2], np.float32)):
        with pytest.raises(ValueError):
            nn.cross_entropy(P, np.array([1]))


def test_cross_entropy_rejects_nonfinite():
    P = np.full((1, 4), 0.25)
    P[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        nn.cross_entropy(P, np.array([1]))


@pytest.mark.parametrize("target", [
    np.array([1, 2, 3]),         # one entry per row too many
    np.array([1]),               # one too few
    np.array([[1], [2]]),        # a column, not a vector
    np.array([1.0, 2.0]),        # not integers
    np.array([1, -1]),           # below 0
    np.array([5, 1]),            # above V
])
def test_cross_entropy_rejects_bad_targets(target):
    with pytest.raises(ValueError):
        nn.cross_entropy(np.full((2, 4), 0.25), target)


@pytest.mark.parametrize("padded", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_matches_one_hot_reference(padded, dtype):
    # repeated targets; padded: padding rows and an all-padding target
    rng = np.random.default_rng(6)
    V = 1500
    for pad in (3, 10) if padded else (0,):
        P = nn.softmax_rows(rng.standard_normal((10, V)).astype(dtype))
        target = rng.integers(1, 40, size=10)
        target[10 - pad:] = 0
        loss, d = nn.cross_entropy(P, target)
        want_loss, want_d = cross_entropy_one_hot(P, one_hot_rows(target, V, dtype))
        assert d.dtype == dtype and np.array_equal(d, want_d)
        assert abs(loss - want_loss) < 1e-6


@pytest.mark.parametrize("padded", [True, False])
def test_cross_entropy_batch_is_the_mean_over_sequences(padded):
    # time-major T x B x V: the loss is the mean of the B sequences'
    # losses and each gradient column that sequence's, divided by B
    rng = np.random.default_rng(8)
    T, B, V = 5, 3, 6
    P = nn.softmax_rows(rng.standard_normal((T, B, V)))
    target = rng.integers(1, V + 1, size=(T, B))
    if padded:
        target[3:, 0] = 0
        target[1:, 2] = 0
    loss, d = nn.cross_entropy(P, target)
    parts = [nn.cross_entropy(P[:, b], target[:, b]) for b in range(B)]
    assert abs(loss - sum(part[0] for part in parts) / B) < 1e-12
    for b, (_, d_b) in enumerate(parts):
        assert np.max(np.abs(d[:, b] - d_b / B)) < 1e-15


def test_cross_entropy_float32_loss_sums_in_float64():
    # target probabilities from ~1 down to 1e-30: log-probabilities from
    # ~-1e-7 to ~-69, whose float32 sum would be off in the 7th digit
    rng = np.random.default_rng(7)
    n = 1000
    p = (10.0 ** rng.uniform(-30.0, 0.0, size=n)).astype(np.float32)
    P = np.stack([p, 1.0 - p], axis=1).astype(np.float32)
    target = np.full(n, 1)
    loss, _ = nn.cross_entropy(P, target)
    # the same float32 log-probabilities, summed exactly
    want = -math.fsum(float(v) for v in np.log(p)) / n
    assert abs(loss - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_gradient_through_softmax(seed):
    rng = np.random.default_rng(seed)
    T, V = 4, 6
    Y = np.zeros(T, dtype=int)
    for t in range(T - 1):  # last row stays padding
        Y[t] = rng.integers(V) + 1
    tensors = {"logits": rng.standard_normal((T, V))}

    def loss(t):
        return nn.cross_entropy(nn.softmax_rows(t["logits"]), Y)[0]

    _, d = nn.cross_entropy(nn.softmax_rows(tensors["logits"]), Y)
    assert nn.finite_difference_check(loss, tensors, {"logits": d}) < 1e-6


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def one_tensor(name, size, lr=1e-4):
    """An AdamState over a buffer that holds one tensor."""
    return nn.AdamState(lr=lr, layout=((name, size),))


def test_adam_first_step_closed_form():
    state = one_tensor("w", 1, lr=1e-4)
    p = np.zeros(1)
    nn.adam_step(state, p, np.ones(1))
    expected = -1e-4 / (1.0 + 1e-7)  # bias-corrected m-hat = v-hat = 1
    assert abs(p[0] - expected) < 1e-18
    assert state.t == 1


def test_adam_zero_grad_is_exact_noop():
    state = one_tensor("w", 2)
    p = np.array([1.25, -3.5])
    before = p.copy()
    nn.adam_step(state, p, np.zeros(2))
    assert np.array_equal(p, before)


def test_adam_zero_lr_is_exact_noop():
    state = one_tensor("w", 2, lr=0.0)
    p = np.array([1.25, -3.5])
    before = p.copy()
    nn.adam_step(state, p, np.array([0.7, -2.0]))
    assert np.array_equal(p, before)


def test_adam_three_step_scalar_recurrence():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-7
    state = one_tensor("w", 1, lr=lr)
    p = np.array([0.5])
    grads = [0.3, -1.1, 0.05]
    w, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        nn.adam_step(state, p, np.array([g]))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p[0] - w) < 1e-12


def test_adam_nonfinite_gradient_names_tensor():
    state = nn.AdamState(layout=(("decoder.W", 2), ("head.b", 1)))
    p = np.zeros(3)
    g = np.array([1.0, np.inf, 0.0])
    with pytest.raises(FloatingPointError, match="decoder.W"):
        nn.adam_step(state, p, g)
    assert state.t == 0  # rejected before any state change


def test_adam_mismatched_names_or_shapes():
    state = one_tensor("a", 2)
    with pytest.raises(ValueError, match="layout"):
        nn.adam_step(state, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        nn.adam_step(state, np.zeros(2), np.zeros(3))
    assert state.t == 0 and state.m is None


BLOCK = nn.ADAM_BLOCK
# back to back, "short" and "tail" start mid-block and "block" on a boundary
ADAM_SHAPES = {"one": (1,), "short": (BLOCK - 1,), "block": (BLOCK // 64, 64),
               "long": (BLOCK + 1,), "tail": (3 * BLOCK + 7,)}
ADAM_LAYOUT = tuple((k, math.prod(s)) for k, s in ADAM_SHAPES.items())


def named(flat):
    """Each ADAM_SHAPES tensor's view of a buffer laid out as ADAM_LAYOUT."""
    return _tile(flat, ADAM_SHAPES)


def laid_out(tensors, dtype):
    """The ADAM_SHAPES tensors of a dict copied back to back into one buffer."""
    flat = np.empty(sum(n for _, n in ADAM_LAYOUT), dtype=dtype)
    for k, view in named(flat).items():
        view[...] = tensors[k]
    return flat


def adam_case(dtype, seed=0):
    rng = np.random.default_rng(seed)
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in ADAM_SHAPES.items()}
    grads = []
    for step in range(4):
        g = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2, size=s)).astype(dtype)
             for k, s in ADAM_SHAPES.items()}
        g["long"][::7] = 0.0  # exact zeros take the same path as in the formula
        grads.append(g)
    return params, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_blocked_in_place_matches_allocating_reference(dtype):
    # the blocks straddle the tensor boundaries of one flat buffer; the
    # reference steps each tensor alone
    ref_params, grads = adam_case(dtype)
    flat = laid_out(ref_params, dtype)
    state = nn.AdamState(lr=3e-3, layout=ADAM_LAYOUT)
    ref = AdamReferenceState(lr=3e-3)
    moments = None
    for g in grads:
        nn.adam_step(state, flat, laid_out(g, dtype))
        adam_step_reference(ref, ref_params, g)
        assert flat.dtype == state.m.dtype == state.v.dtype == dtype
        for got, want in ((flat, ref_params), (state.m, ref.m), (state.v, ref.v)):
            for k, view in named(got).items():
                assert np.array_equal(view, want[k]), k
        if moments is None:
            moments = state.m, state.v
        assert state.m is moments[0] and state.v is moments[1]  # updated in place
    assert state.t == ref.t == len(grads)


def step_rejected(flat, bad, state):
    """Assert that adam_step(state, flat, bad) raises without changing
    t, the moments or the parameters; returns the error."""
    before = [x.copy() for x in (flat, state.m, state.v)]
    t = state.t
    with pytest.raises(FloatingPointError) as err:
        nn.adam_step(state, flat, bad)
    assert state.t == t
    for x, was in zip((flat, state.m, state.v), before):
        assert np.array_equal(x, was)
    return str(err.value)


def test_adam_nonfinite_last_tensor_changes_nothing():
    params, grads = adam_case(np.float32, seed=1)
    flat = laid_out(params, np.float32)
    state = nn.AdamState(lr=3e-3, layout=ADAM_LAYOUT)
    nn.adam_step(state, flat, laid_out(grads[0], np.float32))
    bad = laid_out(grads[1], np.float32)
    bad[-1] = np.nan
    last = ADAM_LAYOUT[-1][0]
    assert f"'{last}'" in step_rejected(flat, bad, state)
    assert state.t == 1


@pytest.mark.parametrize("poisoned,named_tensor", [
    ([("tail", 0)], "tail"),  # starts mid-block, in the block where "long" ends
    ([("long", -1)], "long"),  # ends in the block where "tail" starts
    ([("long", -1), ("tail", 0)], "long"),  # the first non-finite value names it
    ([("short", 0)], "short"),  # starts at element 1 of the first block
    ([("one", 0)], "one"),  # the first tensor
    ([], None),  # only the huge finite values: the step is taken
])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_adam_nonfinite_mid_block_names_the_right_tensor(poisoned, named_tensor, bad_value):
    assert sum(n for _, n in ADAM_LAYOUT[:-1]) % BLOCK == 1  # "tail" starts mid-block
    params, grads = adam_case(np.float32, seed=2)
    flat = laid_out(params, np.float32)
    state = nn.AdamState(lr=3e-3, layout=ADAM_LAYOUT)
    nn.adam_step(state, flat, laid_out(grads[0], np.float32))
    bad = laid_out(grads[1], np.float32)
    # finite, and each square too, but their sum of squares overflows float32
    named(bad)["block"][3, :4] = 1.5e19
    for k, i in poisoned:
        named(bad)[k].reshape(-1)[i] = bad_value
    if named_tensor is None:
        nn.adam_step(state, flat, bad)
        assert state.t == 2 and np.isfinite(flat).all()
    else:
        message = step_rejected(flat, bad, state)
        assert message == f"non-finite gradient for tensor '{named_tensor}'"


def test_adam_step_makes_the_same_calls_for_one_tensor_or_eight(monkeypatch):
    # one pass over the buffer, whatever the number of tensors it holds:
    # 8 tensors of 5,000 values and one of 40,000 span the same blocks
    calls = []
    for name in ("multiply", "isfinite"):
        ufunc = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _f=ufunc, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    counts = []
    for layout in ((("all", 40_000),), tuple((f"t{i}", 5_000) for i in range(8))):
        rng = np.random.default_rng(0)
        p, g = rng.standard_normal(40_000), rng.standard_normal(40_000)
        calls.clear()
        nn.adam_step(nn.AdamState(layout=layout), p, g)
        counts.append((calls.count("multiply"), calls.count("isfinite")))
    assert counts[0] == counts[1] and counts[0][0] > 0, counts


def test_adam_rejects_non_contiguous_parameter():
    state = one_tensor("w", 4)
    p = np.zeros(8)[::2]
    with pytest.raises(ValueError, match="contiguous"):
        nn.adam_step(state, p, np.ones(4))
    assert state.t == 0


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = init_lstm(np.random.default_rng(9), 5, 4)
    b = init_lstm(np.random.default_rng(9), 5, 4)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.b, b.b)


def test_glorot_bounds():
    rng = np.random.default_rng(10)
    w = nn.glorot_uniform(rng, np.empty((30, 50), np.float32))
    limit = math.sqrt(6.0 / 80.0)
    assert np.all(np.abs(w) <= limit)


def test_orthogonal_wide_has_orthonormal_rows():
    q = nn.orthogonal(np.random.default_rng(11), 4, 16, dtype=np.float64)
    err = np.max(np.abs(q @ q.T - np.eye(4)))
    assert err < 1e-12


def test_orthogonal_tall_has_orthonormal_columns():
    q = nn.orthogonal(np.random.default_rng(12), 16, 4, dtype=np.float64)
    err = np.max(np.abs(q.T @ q - np.eye(4)))
    assert err < 1e-12


@pytest.mark.parametrize("rows,cols", [(4, 16), (16, 4), (7, 7), (1, 5), (32, 128),
                                       (512, 2048)])
def test_orthogonal_matches_householder_qr(rows, cols):
    # Cholesky QR gives Householder's positive-diagonal Q from the same draw
    seed = rows * 1000 + cols
    q = nn.orthogonal(np.random.default_rng(seed), rows, cols, dtype=np.float64)
    ref = orthogonal_householder(np.random.default_rng(seed), rows, cols, dtype=np.float64)
    assert q.shape == (rows, cols) and q.flags.c_contiguous
    assert np.max(np.abs(q - ref)) < 1e-12


@pytest.mark.parametrize("rows,cols", [(30, 50), (1, 7), (1, 3 * nn.GLOROT_BLOCK + 5),
                                       (300, 700)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_glorot_matches_one_shot_draw_bitwise(rows, cols, dtype):
    # blocked filling consumes the same stream: the next draw agrees too
    rng, ref_rng = np.random.default_rng(rows + cols), np.random.default_rng(rows + cols)
    w = nn.glorot_uniform(rng, np.empty((rows, cols), dtype))
    ref = glorot_uniform_one_shot(ref_rng, rows, cols, dtype)
    assert w.dtype == dtype and w.shape == (rows, cols)
    assert np.array_equal(w, ref)
    assert rng.random() == ref_rng.random()


def test_lstm_init_bias_blocks():
    p = init_lstm(np.random.default_rng(13), 5, 4)
    assert np.array_equal(p.b[4:8], np.ones(4))  # forget block
    assert np.array_equal(p.b[:4], np.zeros(4))
    assert np.array_equal(p.b[8:], np.zeros(8))
    assert (p.W.shape, p.U.shape, p.b.shape) == ((5, 16), (4, 16), (16,))


# ---------------------------------------------------------------------------
# Finite-difference harness
# ---------------------------------------------------------------------------

def test_fd_check_quadratic_exact():
    tensors = {"x": np.array([3.0])}
    err = nn.finite_difference_check(lambda t: float(t["x"][0] ** 2),
                                     tensors, {"x": np.array([6.0])})
    assert err < 1e-9


def test_fd_check_detects_scaled_gradient():
    tensors = {"x": np.array([3.0])}
    err = nn.finite_difference_check(lambda t: float(t["x"][0] ** 2),
                                     tensors, {"x": np.array([12.0])})
    assert 0.4 < err < 0.6
