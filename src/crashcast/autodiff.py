"""Minimal dense float64 tensor library with tape-based reverse-mode autodiff.

Forward ops compute eagerly with numpy. While a Tape is active, a primitive
appends a node holding the output, its inputs, and one gradient callback per
input, but only when a gradient can reach a Parameter through it: at least
one input is a Parameter or the output of a node already on the tape. Ops
on constant data alone run forward-only, and inputs that are neither get no
callback, so backward() never differentiates with respect to data. backward()
replays the tape in reverse, accumulating vector-Jacobian products.
Gradients land on Parameter.grad.

Only the shapes the downstream model needs are supported; this is not a
general broadcasting framework.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Sequence

import numpy as np

_MAGIC = b"CCKPT\x00"
_CKPT_VERSION = 1

# Stack of active tapes. Ops record onto the innermost one; with no tape
# active the library runs forward-only (cheap inference).
_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Immutable-by-convention wrapper around a float64 ndarray."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.value.shape})"


class Parameter(Tensor):
    """Leaf tensor that collects gradients across backward passes."""

    __slots__ = ("name", "grad")

    def __init__(self, value, name: str = ""):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class _Node:
    __slots__ = ("out", "inputs", "grad_fns")

    def __init__(self, out, inputs, grad_fns):
        self.out = out
        self.inputs = inputs
        self.grad_fns = grad_fns


class Tape:
    """Ordered record of the primitive ops of one forward pass that a
    Parameter's gradient can flow through; ops on constants alone are not
    recorded (see _record).

    One backward per forward; build a new tape for the next one.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        # ids of recorded outputs; each stays alive in its node, so no
        # other live tensor can share its id while the tape holds it
        self._outputs: set[int] = set()
        self._used = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(param) into every reachable Parameter.grad."""
        if self._used:
            raise RuntimeError("tape already consumed by backward(); build a new one")
        if root.value.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
        self._used = True
        grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
        # Tape order is creation order, so a node's output can only be
        # consumed by later nodes; walking in reverse guarantees the output
        # grad is complete when we pop it.
        for node in reversed(self._nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            for inp, gfn in zip(node.inputs, node.grad_fns):
                if gfn is None:
                    continue
                gi = gfn(g)
                prev = grads.get(id(inp))
                grads[id(inp)] = gi if prev is None else prev + gi
        # Whatever is left keyed by a Parameter is a leaf gradient.
        leaves = {id(node_inp): node_inp for node in self._nodes for node_inp in node.inputs}
        leaves[id(root)] = root
        for tid, g in grads.items():
            leaf = leaves.get(tid)
            if isinstance(leaf, Parameter):
                leaf.grad += g.reshape(leaf.value.shape)


def _record(out: Tensor, inputs: Sequence[Tensor], grad_fns) -> Tensor:
    """Append out's node to the innermost tape if a gradient can reach a
    Parameter through it; inputs it cannot reach get no callback."""
    if _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        outputs = tape._outputs
        fns = []
        live = False
        for t, fn in zip(inputs, grad_fns):
            if isinstance(t, Parameter) or id(t) in outputs:
                fns.append(fn)
                live = True
            else:
                fns.append(None)
        if live:
            tape._nodes.append(_Node(out, tuple(inputs), tuple(fns)))
            outputs.add(id(out))
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Tensor that never receives gradient (stop-gradient wrapper)."""
    return Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value + b.value)
    return _record(out, (a, b), (
        lambda g: _unbroadcast(g, a.value.shape),
        lambda g: _unbroadcast(g, b.value.shape),
    ))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value - b.value)
    return _record(out, (a, b), (
        lambda g: _unbroadcast(g, a.value.shape),
        lambda g: _unbroadcast(-g, b.value.shape),
    ))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value * b.value)
    return _record(out, (a, b), (
        lambda g: _unbroadcast(g * b.value, a.value.shape),
        lambda g: _unbroadcast(g * a.value, b.value.shape),
    ))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.value / b.value)
    return _record(out, (a, b), (
        lambda g: _unbroadcast(g / b.value, a.value.shape),
        lambda g: _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
    ))


# ---------------------------------------------------------------------------
# matrix products

def matmul(a, b) -> Tensor:
    """a @ b for 2-D @ 2-D or stacked (..., m, k) @ (k, n)."""
    a, b = as_tensor(a), as_tensor(b)
    if b.ndim != 2:
        raise ValueError("matmul expects a 2-D right operand; use bmm for batched pairs")
    out = Tensor(a.value @ b.value)

    def grad_a(g):
        return g @ b.value.T

    def grad_b(g):
        k = a.value.shape[-1]
        return a.value.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])

    return _record(out, (a, b), (grad_a, grad_b))


def bmm(a, b) -> Tensor:
    """Batched matmul: (..., m, k) @ (..., k, n) with identical batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 3 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"bmm batch dims must match, got {a.shape} and {b.shape}")
    out = Tensor(np.matmul(a.value, b.value))
    return _record(out, (a, b), (
        lambda g: np.matmul(g, np.swapaxes(b.value, -1, -2)),
        lambda g: np.matmul(np.swapaxes(a.value, -1, -2), g),
    ))


# ---------------------------------------------------------------------------
# unary math

def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.value)
    return _record(Tensor(y), (a,), (lambda g: g / (2.0 * y),))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp only of -|x|, so neither tail overflows
    e = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _sigmoid(a.value)
    return _record(Tensor(y), (a,), (lambda g: g * y * (1.0 - y),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.value)
    return _record(Tensor(y), (a,), (lambda g: g * (1.0 - y * y),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _record(Tensor(np.maximum(a.value, 0.0)), (a,),
                   (lambda g: g * (a.value > 0.0),))


def softmax_lastdim(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _record(Tensor(y), (a,), (grad,))


# ---------------------------------------------------------------------------
# shape ops

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.value.reshape(shape))
    return _record(out, (a,), (lambda g: g.reshape(a.value.shape),))


def narrow(a, key) -> Tensor:
    """Basic (non-fancy) slicing; backward scatters into zeros."""
    a = as_tensor(a)
    out = Tensor(a.value[key])

    def grad(g):
        z = np.zeros_like(a.value)
        z[key] = g
        return z

    return _record(out, (a,), (grad,))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.value for t in tensors], axis=axis))
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_grad(i):
        def grad(g):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(idx)]
        return grad

    return _record(out, tensors, tuple(make_grad(i) for i in range(len(tensors))))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.value.sum(axis=axis, keepdims=keepdims))

    def grad(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).copy()

    return _record(out, (a,), (grad,))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.value.mean(axis=axis, keepdims=keepdims))
    count = a.value.size if axis is None else a.value.shape[axis]

    def grad(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape) / count
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape) / count

    return _record(out, (a,), (grad,))


# ---------------------------------------------------------------------------
# losses

def cross_entropy_logits(logits, labels) -> Tensor:
    """Per-row cross entropy from raw (n, k) logits via log-sum-exp.

    labels: int array (n,). Returns the (n,) vector of losses.
    """
    logits = as_tensor(logits)
    lv = logits.value
    lab = np.asarray(labels, dtype=np.int64)
    if lv.ndim != 2 or lab.shape != (lv.shape[0],):
        raise ValueError("cross_entropy_logits expects (n, k) logits and (n,) labels")
    m = lv.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(lv - m).sum(axis=-1))
    picked = lv[np.arange(lv.shape[0]), lab]

    def grad(g):
        p = np.exp(lv - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(lv.shape[0]), lab] -= 1.0
        return p * g[:, None]

    return _record(Tensor(lse - picked), (logits,), (grad,))


# ---------------------------------------------------------------------------
# composites (register multiple primitives on the tape)

def l2_normalize_lastdim(a) -> Tensor:
    """x / ||x|| along the last axis; zero rows map to zero.

    The 1e-24 inside the sqrt is below float64 resolution for any norm of
    practical magnitude, so nonzero rows are normalized exactly.
    """
    a = as_tensor(a)
    sq = tsum(mul(a, a), axis=-1, keepdims=True)
    return div(a, sqrt(add(sq, constant(1e-24))))


def gru_sequence(x, w_ih, w_hh, b_ih, b_hh) -> Tensor:
    """GRU over a whole sequence from a zero state, as one tape node.

    x: (B, T, I) -> (B, T, H). Weights stack the reset/update/new gates
    row-wise: w_ih: (3H, I), w_hh: (3H, H), biases (3H,). Per step
    r = σ(i_r + h_r), z = σ(i_z + h_z), n = tanh(i_n + r h_n) and
    h' = (1 - z) n + z h, where i_* and h_* are the gate blocks of
    x_t W_ihᵀ + b_ih and h W_hhᵀ + b_hh. The input gates of every step come
    from one product; backward is one hand-written pass through time shared
    by the five gradients.
    """
    x, w_ih, w_hh, b_ih, b_hh = (as_tensor(t) for t in (x, w_ih, w_hh, b_ih, b_hh))
    if x.ndim != 3:
        raise ValueError(f"gru_sequence expects (B, T, I) input, got {x.shape}")
    batch, steps, _ = x.shape
    hidden = w_hh.shape[-1]
    two = 2 * hidden
    # time-major, so each step reads and writes contiguous blocks; with
    # both operands contiguous each step's gates equal a per-step product
    # bit for bit
    x_tm = np.ascontiguousarray(x.value.transpose(1, 0, 2))
    gi = x_tm @ w_ih.value.T.copy() + b_ih.value
    w_hh_t = w_hh.value.T.copy()
    hs = np.zeros((steps + 1, batch, hidden))  # hs[t] is the state step t reads
    rz = np.empty((steps, batch, two))
    r, z = rz[..., :hidden], rz[..., hidden:]
    n = np.empty((steps, batch, hidden))
    h_n = np.empty((steps, batch, hidden))
    for t in range(steps):
        gh = hs[t] @ w_hh_t + b_hh.value
        rz[t] = _sigmoid(gi[t, :, :two] + gh[:, :two])
        h_n[t] = gh[:, two:]
        n[t] = np.tanh(gi[t, :, two:] + r[t] * h_n[t])
        hs[t + 1] = (1.0 - z[t]) * n[t] + z[t] * hs[t]
    memo: list = []

    def bptt(g):
        """(dL/d input gates, dL/d hidden gates), each (T, B, 3H)."""
        if memo and memo[0] is g:
            return memo[1]
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
            dh = dh * z[t] + d_gh[t] @ w_hh.value
        memo[:] = [g, (d_gi, d_gh)]
        return memo[1]

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    out = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    return _record(Tensor(out), (x, w_ih, w_hh, b_ih, b_hh), (
        lambda g: (bptt(g)[0] @ w_ih.value).transpose(1, 0, 2),
        lambda g: flat(bptt(g)[0]).T @ flat(x_tm),
        lambda g: flat(bptt(g)[1]).T @ flat(hs[:-1]),
        lambda g: bptt(g)[0].sum(axis=(0, 1)),
        lambda g: bptt(g)[1].sum(axis=(0, 1)),
    ))


def transpose2d(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose2d expects a 2-D tensor")
    out = Tensor(a.value.T.copy())
    return _record(out, (a,), (lambda g: g.T,))


def causal_dilated_conv1d(x, weight, bias, dilation: int) -> Tensor:
    """Causal dilated 1-D convolution over the time axis.

    x: (..., T, C_in); weight: (K, C_in, C_out); bias: (C_out,).
    Output step t sees x[t - k*dilation] for k = 0..K-1 (zero left padding),
    so no future leakage by construction.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    k = weight.shape[0]
    t_len = x.shape[-2]
    pad_shape = x.shape[:-2] + ((k - 1) * dilation, x.shape[-1])
    padded = concat([constant(np.zeros(pad_shape)), x], axis=-2)
    ndim = padded.ndim
    total = None
    for tap in range(k):
        # tap 0 is the oldest sample: offset (k-1-tap)*dilation back in time
        start = tap * dilation
        idx = [slice(None)] * ndim
        idx[-2] = slice(start, start + t_len)
        term = matmul(narrow(padded, tuple(idx)), narrow(weight, (tap,)))
        total = term if total is None else add(total, term)
    return add(total, bias)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter],
               eps: float = 1e-5, max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare reverse-mode gradients against central finite differences.

    f must re-evaluate the loss from the current parameter values. Returns
    the max relative error over the checked coordinates.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        tape.backward(loss)

    worst = 0.0
    for p in params:
        analytic = p.grad.copy()
        flat = p.value.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = f().item()
            flat[idx] = orig - eps
            lo = f().item()
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic.reshape(-1)[idx]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# checkpoint serialization

def save_checkpoint(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Single binary file: magic, version, count, then per-tensor records.

    Each record is name length (u32), utf-8 name, rank (u32), dims (u64 each)
    and the raw little-endian float64 payload.
    """
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<HI", _CKPT_VERSION, len(tensors))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f8")  # tobytes() below emits C order
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.tobytes()
    from .util import atomic_write_bytes

    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path: str, exempt: Sequence[str] = ()) -> dict[str, np.ndarray]:
    """Inverse of save_checkpoint. A short or malformed file raises
    ValueError naming the path and the byte offset where reading stopped.
    A tensor that holds NaN or infinity raises ValueError naming the path
    and the tensor, unless it is named in exempt (its caller checks it)."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(size: int, what: str) -> int:
        """Claim the next size bytes; returns their start offset."""
        nonlocal off
        if off + size > len(data):
            raise ValueError(
                f"{path}: truncated checkpoint: {what} at byte {off} needs "
                f"{size} bytes, {len(data) - off} left")
        off += size
        return off - size

    if data[: len(_MAGIC)] != _MAGIC[: len(data)]:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    take(len(_MAGIC), "magic")
    version, count = struct.unpack_from("<HI", data, take(6, "header"))
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, take(4, "name length"))
        start = take(name_len, "tensor name")
        try:
            name = data[start:off].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor name at byte {start} is not UTF-8") from None
        (rank,) = struct.unpack_from("<I", data, take(4, f"rank of {name!r}"))
        dims = struct.unpack_from(f"<{rank}Q", data,
                                  take(8 * rank, f"shape of {name!r}"))
        n = math.prod(dims)
        start = take(8 * n, f"payload of {name!r}")
        arr = np.frombuffer(data, dtype="<f8", count=n, offset=start).reshape(dims)
        if name not in exempt and not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
        out[name] = arr.astype(np.float64)
    if off != len(data):
        raise ValueError(f"{path}: trailing bytes after last tensor at byte {off}")
    return out
