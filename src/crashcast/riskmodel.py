"""Accident anticipation network.

Per frame: object embeddings are gate-fused from visual and text streams,
propagated through two GCN layers whose learned adjacency is modulated by
the per-frame fused edge weights, then mean-pooled over present objects and
concatenated with the fused frame-level embedding. The resulting sequence
runs through a causal dilated TCN, a GRU, and a two-layer head that emits
per-frame accident logits; the risk curve is the positive-class probability.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .features import FeatureBatch, FusionGate, GeometryParams, edge_weight_stack, gated_fuse

_GCN_LAYERS = 2
_TCN_KERNEL = 3
_TCN_DILATIONS = (1, 2, 4)


@dataclass(frozen=True)
class ModelConfig:
    """Shape of a trained model and of the features it reads."""

    feature_dim: int = 32
    max_objects: int = 19

    def __post_init__(self):
        if self.feature_dim < 2 or self.feature_dim % 2:
            raise ValueError("feature_dim must be even and >= 2")
        if self.max_objects < 1:
            raise ValueError("max_objects must be >= 1")

    @property
    def hidden_dim(self) -> int:
        return 2 * self.feature_dim

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class TCNBlock:
    weight: Parameter  # (K, C, C)
    bias: Parameter  # (C,)
    dilation: int


@dataclass
class ModelParams:
    u: Parameter  # (O, O) adjacency factor
    v: Parameter  # (O, O) adjacency factor
    psi: tuple[Parameter, ...]  # GCN layer weights, each (F, F)
    geometry: GeometryParams
    gate_obj: FusionGate  # carries beta for the edge-weight mix
    gate_frame: FusionGate
    tcn: tuple[TCNBlock, ...]
    gru_w_ih: Parameter  # (3H, 2F)
    gru_w_hh: Parameter  # (3H, H)
    gru_b_ih: Parameter  # (3H,)
    gru_b_hh: Parameter  # (3H,)
    head_w1: Parameter  # (H, F)
    head_b1: Parameter  # (F,)
    head_w2: Parameter  # (F, 2)
    head_b2: Parameter  # (2,)
    align_w1: Parameter  # (F, F)
    align_b1: Parameter  # (F,)
    align_w2: Parameter  # (F, F // 2)
    align_b2: Parameter  # (F // 2,)

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator) -> "ModelParams":
        f_dim = cfg.feature_dim
        n_obj = cfg.max_objects
        hidden = cfg.hidden_dim
        k = _TCN_KERNEL

        def normal(shape, fan_in, name):
            return Parameter(rng.normal(size=shape) / math.sqrt(fan_in), name=name)

        def zeros(shape, name):
            return Parameter(np.zeros(shape), name=name)

        psi = tuple(normal((f_dim, f_dim), f_dim, f"gcn.psi{i}")
                    for i in range(_GCN_LAYERS))
        tcn = tuple(
            TCNBlock(normal((k, hidden, hidden), k * hidden, f"tcn.{i}.weight"),
                     zeros(hidden, f"tcn.{i}.bias"), dilation)
            for i, dilation in enumerate(_TCN_DILATIONS))
        bound = 1.0 / math.sqrt(hidden)

        def uniform(shape, name):
            return Parameter(rng.uniform(-bound, bound, size=shape), name=name)

        gate_obj = FusionGate.init(f_dim, rng, "gate_obj", with_beta=True)
        gate_frame = FusionGate.init(f_dim, rng, "gate_frame")
        return cls(
            u=Parameter(rng.normal(size=(n_obj, n_obj)) / n_obj, name="adj.u"),
            v=Parameter(rng.normal(size=(n_obj, n_obj)) / n_obj, name="adj.v"),
            psi=psi,
            geometry=GeometryParams.init(),
            gate_obj=gate_obj,
            gate_frame=gate_frame,
            tcn=tcn,
            gru_w_ih=uniform((3 * hidden, hidden), "gru.w_ih"),
            gru_w_hh=uniform((3 * hidden, hidden), "gru.w_hh"),
            gru_b_ih=uniform(3 * hidden, "gru.b_ih"),
            gru_b_hh=uniform(3 * hidden, "gru.b_hh"),
            head_w1=normal((hidden, f_dim), hidden, "head.w1"),
            head_b1=zeros(f_dim, "head.b1"),
            head_w2=normal((f_dim, 2), f_dim, "head.w2"),
            head_b2=zeros(2, "head.b2"),
            align_w1=normal((f_dim, f_dim), f_dim, "align.w1"),
            align_b1=zeros(f_dim, "align.b1"),
            align_w2=normal((f_dim, f_dim // 2), f_dim, "align.w2"),
            align_b2=zeros(f_dim // 2, "align.b2"),
        )

    def parameters(self) -> tuple[Parameter, ...]:
        out = [self.u, self.v, *self.psi, self.geometry.a,
               self.gate_obj.w_g, self.gate_obj.b_g, self.gate_obj.beta,
               self.gate_frame.w_g, self.gate_frame.b_g]
        for block in self.tcn:
            out += [block.weight, block.bias]
        out += [self.gru_w_ih, self.gru_w_hh, self.gru_b_ih, self.gru_b_hh,
                self.head_w1, self.head_b1, self.head_w2, self.head_b2,
                self.align_w1, self.align_b1, self.align_w2, self.align_b2]
        return tuple(out)

    def state_dict(self) -> dict[str, np.ndarray]:
        named = {}
        for p in self.parameters():
            if p.name in named:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            named[p.name] = p.value
        return named

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"checkpoint missing parameter {p.name!r}")
            arr = np.asarray(state[p.name], dtype=float)
            if arr.shape != p.value.shape:
                raise ValueError(
                    f"{p.name}: checkpoint shape {arr.shape} != {p.value.shape}")
            p.value[...] = arr


@dataclass
class RiskOutput:
    logits: Tensor  # (B, T, 2)
    probabilities: Tensor  # (B, T, 2)
    risk: Tensor  # (B, T) positive-class probability
    pooled: Tensor  # (B, T, F)
    z: Tensor  # (B, T, 2F)
    h: Tensor  # (B, T, 2F)

    @property
    def risk_curves(self) -> np.ndarray:
        return self.risk.value


def adjacency(u, v) -> Tensor:
    """Ã = D^{-1/2} (A + I) D^{-1/2} with A = row-softmax(U V); one static
    structure shared by every frame."""
    u, v = ad.as_tensor(u), ad.as_tensor(v)
    n = u.shape[0]
    a = ad.softmax_lastdim(ad.matmul(u, v))
    a_hat = a + np.eye(n)
    d_inv_sqrt = ad.div(1.0, ad.sqrt(ad.tsum(a_hat, axis=-1)))
    left = ad.reshape(d_inv_sqrt, (n, 1))
    right = ad.reshape(d_inv_sqrt, (1, n))
    return ad.mul(ad.mul(left, a_hat), right)


def gcn_layer(h, a_tilde, w_t, psi) -> Tensor:
    """H' = relu((W_t elementwise Ã) H Ψ); leading batch/time axes pass
    through. Rows of W_t at absent objects are zero, which keeps their
    embeddings at exactly zero."""
    h = ad.as_tensor(h)
    mixed = ad.mul(w_t, a_tilde)
    prop = ad.matmul(mixed, h) if h.ndim == 2 else ad.bmm(mixed, h)
    return ad.relu(ad.matmul(prop, psi))


def pool_nodes(h, mask=None) -> Tensor:
    """Mean over the node axis; with a mask, mean over present nodes only
    (all-absent frames pool to zero)."""
    h = ad.as_tensor(h)
    if mask is None:
        return ad.tmean(h, axis=-2)
    m = np.asarray(mask, dtype=float)[..., None]
    total = ad.tsum(ad.mul(h, m), axis=-2)
    return ad.div(total, np.maximum(m.sum(axis=-2), 1.0))


def forward(batch: FeatureBatch, params: ModelParams, cfg: ModelConfig) -> RiskOutput:
    """Run the full network over a feature batch."""
    if batch.objects != cfg.max_objects:
        raise ValueError(
            f"batch has {batch.objects} object slots, model expects {cfg.max_objects}")
    if batch.feature_dim != cfg.feature_dim:
        raise ValueError(
            f"batch feature dim {batch.feature_dim} != model {cfg.feature_dim}")
    b, t = batch.batch_size, batch.frames

    vis_obj = batch.visual[:, :, 1:]
    text_obj = batch.text[:, :, 1:]
    norm = np.linalg.norm(text_obj, axis=-1, keepdims=True)
    text_norm = np.divide(text_obj, norm, out=np.zeros_like(text_obj),
                          where=norm > 0)
    stack = edge_weight_stack(
        batch.centers, batch.depths, batch.mask, text_norm,
        alpha=params.geometry.alpha, beta=params.gate_obj.beta)

    h_nodes = gated_fuse(vis_obj, text_obj, params.gate_obj)
    a_tilde = adjacency(params.u, params.v)
    for psi in params.psi:
        h_nodes = gcn_layer(h_nodes, a_tilde, stack.w, psi)
    pooled = pool_nodes(h_nodes, batch.mask)

    f_fuse = gated_fuse(batch.visual[:, :, 0], batch.text[:, :, 0],
                        params.gate_frame)
    z = ad.concat([pooled, f_fuse], axis=-1)

    x = z
    for block in params.tcn:
        x = ad.relu(ad.add(x, ad.causal_dilated_conv1d(
            x, block.weight, block.bias, block.dilation)))

    hidden = cfg.hidden_dim
    h_t = ad.constant(np.zeros((b, hidden)))
    steps = []
    for step in range(t):
        x_t = ad.narrow(x, (slice(None), step))
        h_t = ad.gru_cell(x_t, h_t, params.gru_w_ih, params.gru_w_hh,
                          params.gru_b_ih, params.gru_b_hh)
        steps.append(ad.reshape(h_t, (b, 1, hidden)))
    h_all = ad.concat(steps, axis=1)

    inner = ad.relu(ad.add(ad.matmul(h_all, params.head_w1), params.head_b1))
    logits = ad.add(ad.matmul(inner, params.head_w2), params.head_b2)
    probs = ad.softmax_lastdim(logits)
    risk = ad.narrow(probs, (slice(None), slice(None), 1))
    return RiskOutput(logits, probs, risk, pooled, z, h_all)


def align_project(params: ModelParams, x) -> Tensor:
    """Shared projection head for the cross-modal alignment objective:
    normalize, F -> F relu -> F/2, normalize."""
    x = ad.l2_normalize_lastdim(ad.as_tensor(x))
    inner = ad.relu(ad.add(ad.matmul(x, params.align_w1), params.align_b1))
    out = ad.add(ad.matmul(inner, params.align_w2), params.align_b2)
    return ad.l2_normalize_lastdim(out)


def save_model(path: str, params: ModelParams) -> None:
    ad.save_checkpoint(path, params.state_dict())


def load_model(path: str, cfg: ModelConfig) -> ModelParams:
    params = ModelParams.init(cfg, np.random.default_rng(0))
    params.load_state_dict(ad.load_checkpoint(path))
    return params
