import os
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from crashcast import autodiff as ad
from crashcast.autodiff import (
    Parameter,
    Tape,
    Tensor,
    bmm,
    causal_dilated_conv1d,
    concat,
    cross_entropy_logits,
    grad_check,
    gru_sequence,
    l2_normalize_lastdim,
    load_checkpoint,
    matmul,
    narrow,
    relu,
    save_checkpoint,
    softmax_lastdim,
    transpose2d,
)


def rand(rng, *shape):
    return rng.standard_normal(shape)


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hh) -> Tensor:
    """One GRU step from the recorded primitives: the loop oracle that
    gru_sequence is checked against.

    x: (B, I), h: (B, H). Weights stack the reset/update/new gates row-wise:
    w_ih: (3H, I), w_hh: (3H, H), biases (3H,).
    """
    hidden = h.shape[-1]
    gi = ad.add(matmul(x, transpose2d(w_ih)), b_ih)
    gh = ad.add(matmul(h, transpose2d(w_hh)), b_hh)
    i_r = narrow(gi, (slice(None), slice(0, hidden)))
    i_z = narrow(gi, (slice(None), slice(hidden, 2 * hidden)))
    i_n = narrow(gi, (slice(None), slice(2 * hidden, 3 * hidden)))
    h_r = narrow(gh, (slice(None), slice(0, hidden)))
    h_z = narrow(gh, (slice(None), slice(hidden, 2 * hidden)))
    h_n = narrow(gh, (slice(None), slice(2 * hidden, 3 * hidden)))
    r = ad.sigmoid(ad.add(i_r, h_r))
    z = ad.sigmoid(ad.add(i_z, h_z))
    n = ad.tanh(ad.add(i_n, ad.mul(r, h_n)))
    return ad.add(ad.mul(ad.sub(ad.Tensor(1.0), z), n), ad.mul(z, h))


def gru_loop(x, w_ih, w_hh, b_ih, b_hh) -> Tensor:
    """gru_cell once per step from a zero state, stacked to (B, T, H)."""
    batch, steps, _ = x.shape
    hidden = w_hh.shape[-1]
    h = ad.Tensor(np.zeros((batch, hidden)))
    outs = []
    for t in range(steps):
        h = gru_cell(narrow(x, (slice(None), t)), h, w_ih, w_hh, b_ih, b_hh)
        outs.append(ad.reshape(h, (batch, 1, hidden)))
    return concat(outs, axis=1)


def gru_params(rng, batch, steps, inp, hid):
    """x and the four GRU weights at a scale that keeps the gates off
    saturation."""
    return [Parameter(rand(rng, batch, steps, inp)),
            Parameter(rand(rng, 3 * hid, inp) * 0.4),
            Parameter(rand(rng, 3 * hid, hid) * 0.4),
            Parameter(rand(rng, 3 * hid) * 0.1),
            Parameter(rand(rng, 3 * hid) * 0.1)]


def check_unary(op, x0, tol=1e-6):
    p = Parameter(x0)
    # weighted sum so the objective is never trivially constant in x
    w = np.linspace(0.3, 1.7, x0.size).reshape(x0.shape)
    err = grad_check(lambda: ad.tsum(ad.mul(op(p), w)), [p])
    assert err <= tol, f"{op.__name__}: rel err {err}"


def test_unary_primitives_match_finite_differences():
    rng = np.random.default_rng(7)
    x = rand(rng, 4, 5) * 0.8 + 0.1
    check_unary(ad.sigmoid, x)
    check_unary(ad.tanh, x)
    check_unary(ad.sqrt, np.abs(x) + 0.5)
    check_unary(softmax_lastdim, x)
    # keep relu inputs away from the kink
    xr = x.copy()
    xr[np.abs(xr) < 0.05] = 0.2
    check_unary(relu, xr)


def test_sigmoid_matches_expit_in_both_tails():
    from scipy.special import expit

    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(-1000.0, 1000.0, 20001),
                        rng.normal(scale=20.0, size=20000),
                        [-np.inf, -745.2, -709.8, 0.0, 36.8, 709.8, np.inf]])
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                invalid="raise"):
        warnings.simplefilter("error")
        y = ad.sigmoid(x).value
    # numpy's exp and the C library's differ in the last bit: at most 2**-52
    assert np.all(np.abs(y - expit(x)) <= np.finfo(float).eps)
    assert ad.sigmoid(0.0).value == 0.5
    assert np.all((y >= 0.0) & (y <= 1.0))
    # the one-division form gives the bits of the two-branch one, also for
    # NaN and for a 0-d input (fuse_weights passes the scalar beta)
    for v in (np.append(x, np.nan), np.array(-3.5), np.array(0.25)):
        e = np.exp(-np.abs(v))
        old = np.where(v >= 0, 1 / (1 + e), e / (1 + e))
        assert ad.sigmoid(v).value.tobytes() == old.tobytes()


def test_arithmetic_and_broadcasting_gradients():
    rng = np.random.default_rng(11)
    a = Parameter(rand(rng, 3, 4))
    b = Parameter(rand(rng, 3, 4))
    bias = Parameter(rand(rng, 4))
    scalar = Parameter(np.array(1.3))

    def f():
        y = ad.sub(ad.div(ad.add(ad.mul(a, b), bias), ad.add(scalar, 2.0)),
                   ad.mul(b, 0.5))
        return ad.tmean(ad.mul(y, y))

    err = grad_check(f, [a, b, bias, scalar])
    assert err <= 1e-6


def test_matmul_and_bmm_gradients():
    rng = np.random.default_rng(13)
    a = Parameter(rand(rng, 5, 3))
    w = Parameter(rand(rng, 3, 4))
    err = grad_check(lambda: ad.tsum(matmul(a, w)), [a, w])
    assert err <= 1e-6

    stacked = Parameter(rand(rng, 6, 2, 3))
    err = grad_check(lambda: ad.tsum(ad.mul(matmul(stacked, w), 0.3)), [stacked, w])
    assert err <= 1e-6

    lhs = Parameter(rand(rng, 4, 2, 3))
    rhs = Parameter(rand(rng, 4, 3, 5))
    err = grad_check(lambda: ad.tsum(bmm(lhs, rhs)), [lhs, rhs])
    assert err <= 1e-6


def test_shape_ops_gradients():
    rng = np.random.default_rng(17)
    a = Parameter(rand(rng, 4, 6))
    b = Parameter(rand(rng, 4, 2))

    def f():
        joined = concat([a, b], axis=-1)
        part = narrow(joined, (slice(1, 3), slice(0, 5)))
        return ad.tsum(ad.mul(ad.reshape(part, (10,)), 2.0))

    err = grad_check(f, [a, b])
    assert err <= 1e-6

    c = Parameter(rand(rng, 3, 4, 2))
    err = grad_check(lambda: ad.add(ad.tmean(c), ad.tsum(transpose2d(a))),
                     [c, a])
    assert err <= 1e-6


def test_cross_entropy_matches_hand_value_and_gradient():
    # logits (10, -10), true class 0: loss = log(1 + exp(-20))
    (loss,) = cross_entropy_logits(Tensor([[10.0, -10.0]]), [0]).value
    assert loss == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)
    assert loss == pytest.approx(2.061e-9, rel=1e-3)

    rng = np.random.default_rng(19)
    logits = Parameter(rand(rng, 6, 2))
    labels = np.array([0, 1, 1, 0, 1, 0])
    err = grad_check(lambda: ad.tmean(cross_entropy_logits(logits, labels)), [logits])
    assert err <= 1e-6


def test_gru_cell_gradients_and_zero_case():
    rng = np.random.default_rng(23)
    hid, inp = 4, 3
    x = Parameter(rand(rng, 2, inp))
    h = Parameter(rand(rng, 2, hid))
    w_ih = Parameter(rand(rng, 3 * hid, inp) * 0.4)
    w_hh = Parameter(rand(rng, 3 * hid, hid) * 0.4)
    b_ih = Parameter(rand(rng, 3 * hid) * 0.1)
    b_hh = Parameter(rand(rng, 3 * hid) * 0.1)
    err = grad_check(lambda: ad.tsum(gru_cell(x, h, w_ih, w_hh, b_ih, b_hh)),
                     [x, h, w_ih, w_hh, b_ih, b_hh])
    assert err <= 1e-6

    # all-zero weights, state, and input give a zero new state
    zeros = [Tensor(np.zeros_like(t.value)) for t in (x, h, w_ih, w_hh, b_ih, b_hh)]
    out = gru_cell(*zeros)
    assert np.all(out.value == 0.0)


def test_gru_sequence_gradients_and_zero_case():
    rng = np.random.default_rng(37)
    params = gru_params(rng, 2, 5, 3, 4)
    probe = rand(rng, 2, 5, 4)
    err = grad_check(lambda: ad.tsum(ad.mul(gru_sequence(*params), probe)), params)
    assert err <= 1e-6
    with Tape() as tape:
        gru_sequence(*params)
    assert len(tape) == 1

    zeros = [Tensor(np.zeros_like(p.value)) for p in params]
    out = gru_sequence(*zeros)
    assert out.shape == (2, 5, 4)
    assert np.all(out.value == 0.0)


@pytest.mark.parametrize("shape", [(2, 5, 3, 4), (8, 50, 16, 16), (1, 1, 2, 3)])
def test_gru_sequence_matches_gru_cell_loop(shape):
    rng = np.random.default_rng(41)
    params = gru_params(rng, *shape)
    probe = rand(rng, *shape[:2], shape[3])
    outs, grads = [], []
    for fn in (gru_loop, gru_sequence):
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            out = fn(*params)
            tape.backward(ad.tsum(ad.mul(out, probe)))
        outs.append(out.value)
        grads.append([p.grad.copy() for p in params])
    assert np.abs(outs[0] - outs[1]).max() <= 1e-12
    for want, got in zip(*grads):
        assert np.abs(want - got).max() <= 1e-12 * np.abs(want).max()


def gru_reference(x, w_ih, w_hh, b_ih, b_hh, g):
    """gru_sequence's forward step loop and backward pass through time, op
    for op as first written, on plain arrays: the bit-exact oracle. Returns
    the (B, T, H) output and, for the output gradient g, the gradients of
    x, w_ih, w_hh, b_ih and b_hh."""
    def sigmoid(v):
        e = np.exp(-np.abs(v))
        y = np.where(v >= 0.0, 1.0, e)
        e += 1.0
        y /= e
        return y

    batch, steps, _ = x.shape
    hidden = w_hh.shape[-1]
    two = 2 * hidden
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
    gi = x_tm @ w_ih.T.copy() + b_ih
    w_hh_t = w_hh.T.copy()
    hs = np.zeros((steps + 1, batch, hidden))
    rz = np.empty((steps, batch, two))
    r, z = rz[..., :hidden], rz[..., hidden:]
    n = np.empty((steps, batch, hidden))
    h_n = np.empty((steps, batch, hidden))
    for t in range(steps):
        gh = hs[t] @ w_hh_t + b_hh
        rz[t] = sigmoid(gi[t, :, :two] + gh[:, :two])
        h_n[t] = gh[:, two:]
        n[t] = np.tanh(gi[t, :, two:] + r[t] * h_n[t])
        hs[t + 1] = (1.0 - z[t]) * n[t] + z[t] * hs[t]

    g_t = g.transpose(1, 0, 2)
    d_gi = np.empty_like(gi)
    d_gh = np.empty_like(gi)
    dh = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        dh = dh + g_t[t]
        dn = dh * (1.0 - z[t]) * (1.0 - n[t] * n[t])
        d_gi[t, :, two:] = dn
        d_gh[t, :, two:] = dn * r[t]
        d_gi[t, :, :hidden] = dn * h_n[t] * r[t] * (1.0 - r[t])
        d_gi[t, :, hidden:two] = dh * (hs[t] - n[t]) * z[t] * (1.0 - z[t])
        d_gh[t, :, :two] = d_gi[t, :, :two]
        dh = dh * z[t] + d_gh[t] @ w_hh

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    out = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    return out, [(d_gi @ w_ih).transpose(1, 0, 2), flat(d_gi).T @ flat(x_tm),
                 flat(d_gh).T @ flat(hs[:-1]), d_gi.sum(axis=(0, 1)),
                 d_gh.sum(axis=(0, 1))]


@pytest.mark.parametrize("shape", [(1, 50, 64, 64), (2, 50, 64, 64), (3, 50, 64, 64),
                                   (8, 50, 64, 64), (3, 7, 5, 3), (8, 1, 2, 3)])
def test_gru_sequence_is_bit_equal_to_the_reference_loop(shape):
    rng = np.random.default_rng(43)
    params = gru_params(rng, *shape)
    probe = rand(rng, *shape[:2], shape[3])
    with Tape() as tape:
        out = gru_sequence(*params)
        tape.backward(ad.tsum(ad.mul(out, probe)))
    want_out, want_grads = gru_reference(*(p.value for p in params), probe)
    assert out.value.tobytes() == want_out.tobytes()
    for p, grad in zip(params, want_grads):
        want = np.zeros_like(p.value)
        want += grad  # the accumulation backward does into a fresh grad
        assert np.array_equal(p.grad, want)
        assert p.grad.tobytes() == want.tobytes()


def test_causal_conv_is_causal_and_differentiable():
    rng = np.random.default_rng(29)
    t_len, c = 8, 3
    x = Parameter(rand(rng, t_len, c))
    w = Parameter(rand(rng, 3, c, c) * 0.5)
    b = Parameter(rand(rng, c) * 0.1)

    err = grad_check(lambda: ad.tsum(causal_dilated_conv1d(x, w, b, 2)), [x, w, b])
    assert err <= 1e-6

    # output at step t must not change when only x[t+1:] changes
    base = causal_dilated_conv1d(x, w, b, 2).value.copy()
    bumped = x.value.copy()
    bumped[5:] += 10.0
    out = causal_dilated_conv1d(Tensor(bumped), w, b, 2).value
    assert np.allclose(out[:5], base[:5])
    assert not np.allclose(out[5:], base[5:])


def test_l2_normalize_handles_zero_rows():
    v = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
    out = l2_normalize_lastdim(v).value
    assert out[0] == pytest.approx([0.6, 0.8])
    assert np.all(out[1] == 0.0)


def test_backward_requires_scalar_root_and_single_use():
    p = Parameter(np.ones(3))
    with Tape() as tape:
        y = ad.mul(p, 2.0)
        with pytest.raises(ValueError):
            tape.backward(y)
    with Tape() as tape:
        z = ad.tsum(ad.mul(p, 2.0))
        tape.backward(z)
        with pytest.raises(RuntimeError):
            tape.backward(z)


def test_grad_accumulates_across_backward_passes():
    p = Parameter(np.array([2.0]))
    for _ in range(2):
        with Tape() as tape:
            tape.backward(ad.tsum(ad.mul(p, 3.0)))
    assert p.grad == pytest.approx([6.0])
    p.zero_grad()
    assert p.grad == pytest.approx([0.0])


def test_tape_records_nothing_for_ops_on_constants():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        y = softmax_lastdim(ad.mul(l2_normalize_lastdim(x), 2.0))
        _ = ad.tsum(concat([y, x], axis=-1))
    assert len(tape) == 0


def test_tape_records_only_ops_that_reach_a_parameter():
    c_value = np.array([0.5, -1.0, 2.0])

    def run(c):
        """The nodes recorded by the forward (backward consumes them) and
        p's gradient."""
        p = Parameter(np.array([0.3, -0.2, 0.1]), name="p")
        with Tape() as tape:
            k = ad.mul(ad.sigmoid(c), 2.0)  # constants alone: not recorded
            h = ad.tanh(p)  # reaches p
            y = ad.tsum(ad.mul(h, k))  # consumes a recorded output
            nodes = list(tape._nodes)
            tape.backward(y)
        return nodes, p.grad

    nodes, grad = run(Tensor(c_value))
    assert len(nodes) == 3
    mul_node = nodes[1]
    assert mul_node.grad_fns[0] is not None and mul_node.grad_fns[1] is None
    # the same chain with the constant made a Parameter records every op,
    # and p's gradient comes out bit for bit the same
    full_nodes, full_grad = run(Parameter(c_value, name="c"))
    assert len(full_nodes) == 5
    assert np.array_equal(grad, full_grad)
    assert np.allclose(grad, (1.0 - np.tanh([0.3, -0.2, 0.1]) ** 2) * 2.0
                       / (1.0 + np.exp(-c_value)), atol=1e-15)


def test_backward_empties_the_tape():
    p = Parameter(np.array([0.5, -1.5]))
    with Tape() as tape:
        y = ad.tsum(ad.relu(ad.mul(p, 3.0)))
        assert len(tape) == 3
        tape.backward(y)
    assert len(tape) == 0 and not tape._nodes and not tape._outputs
    assert np.array_equal(p.grad, [3.0, 0.0])
    with pytest.raises(RuntimeError, match="already consumed"):
        tape.backward(y)


def test_forward_frees_arrays_no_callback_reads():
    # add's callbacks read only shapes and relu's its own output, so of each
    # (add, relu) link only the relu output outlives the forward
    n, links = 100_000, 8
    p = Parameter(np.zeros(n))
    c = ad.Tensor(np.full(n, 0.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            h = p
            for _ in range(links):
                h = relu(ad.add(h, c))
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(ad.tsum(h))
    finally:
        tracemalloc.stop()
    assert held < (links + 2) * 8 * n
    assert np.array_equal(p.grad, np.ones(n))


def test_tensor_at_a_freed_recorded_tensors_id_is_not_recorded():
    p = Parameter(np.ones(3))
    with Tape() as tape:
        h = ad.tanh(p)
        freed = id(h)
        del h  # no node holds the recorded output
        kept = []
        for _ in range(1000):
            t = Tensor(np.ones(3))
            if id(t) == freed:
                break
            kept.append(t)
        else:
            pytest.fail("no tensor landed at the freed tensor's id")
        ad.mul(t, 2.0)  # constant data: not recorded
        assert len(tape) == 1


def test_no_tape_means_no_recording():
    p = Parameter(np.ones(2))
    before = len(ad._TAPE_STACK)
    _ = ad.tsum(ad.mul(p, 2.0))
    assert len(ad._TAPE_STACK) == before


def test_tensor_has_no_arithmetic_operators():
    # ops are called as functions; an operator, on either side of a numpy
    # array, must not build an object array of Tensors off the tape
    t = Tensor(np.ones(3))
    for expr in (lambda: np.ones(3) * t, lambda: t * np.ones(3),
                 lambda: 1.0 - t, lambda: t + t):
        with pytest.raises(TypeError):
            expr()


def test_grad_check_flags_a_wrong_gradient():
    # negative control: an op with a deliberately wrong backward rule
    def bad_square(t):
        out = Tensor(t.value ** 2)
        return ad._record(out, (t,), (lambda g: g * 3.0 * t.value,))

    p = Parameter(np.array([1.5, -0.7]))
    err = grad_check(lambda: ad.tsum(bad_square(p)), [p])
    assert err > 1e-2


def test_checkpoint_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    tensors = {
        "layer.w": rand(rng, 3, 4),
        "layer.b": rand(rng, 4),
        "scalar.a": np.array(1.25),
    }
    path = os.path.join(tmp_path, "model.bin")
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(loaded[name], tensors[name])

    # same content twice -> identical bytes
    path2 = os.path.join(tmp_path, "model2.bin")
    save_checkpoint(path2, tensors)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_checkpoint_rejects_non_finite_tensors(tmp_path):
    path = os.path.join(tmp_path, "bad.bin")
    for value in (np.nan, np.inf, -np.inf):
        save_checkpoint(path, {"w": np.ones(3), "b": np.array([0.0, value])})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: tensor 'b' holds a non-finite value")):
            load_checkpoint(path)
        # a tensor its caller checks itself loads as stored
        loaded = load_checkpoint(path, exempt=("b",))
        assert loaded["b"][1] == value or np.isnan(loaded["b"][1])


def test_checkpoint_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)
    # a name that is not UTF-8 is reported with the file and its offset
    save_checkpoint(path, {"w": np.zeros(2)})
    with open(path, "r+b") as fh:
        fh.seek(16)
        fh.write(b"\xff")
    with pytest.raises(ValueError, match=re.escape(f"{path}: tensor name at byte 16")):
        load_checkpoint(path)


def _one_tensor_checkpoint(rank: int, dims) -> bytes:
    """A checkpoint of one empty tensor 'w' whose record declares the given
    rank and dims; its rank field starts at byte 17."""
    return (b"CCKPT\x00" + struct.pack("<HI", 1, 1) + struct.pack("<I", 1) + b"w"
            + struct.pack(f"<I{len(dims)}Q", rank, *dims))


@pytest.mark.parametrize("rank, dims", [
    (65, (0,) * 65),  # the payload of a 0 dim fits; numpy takes 64 dims at most
    (2**32 - 1, ()),
], ids=["rank-65-zero-dim", "rank-2^32-1"])
def test_checkpoint_rejects_a_rank_above_64(tmp_path, rank, dims):
    path = os.path.join(tmp_path, "deep.bin")
    with open(path, "wb") as fh:
        fh.write(_one_tensor_checkpoint(rank, dims))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: tensor 'w' has rank {rank} at byte 17, above numpy's 64")):
        load_checkpoint(path)


def test_checkpoint_loads_rank_64(tmp_path):
    path = os.path.join(tmp_path, "deep.bin")
    with open(path, "wb") as fh:
        fh.write(_one_tensor_checkpoint(64, (0,) + (1,) * 63))
    assert load_checkpoint(path)["w"].shape == (0,) + (1,) * 63
