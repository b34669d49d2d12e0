import dataclasses

import numpy as np
import pytest

from crashcast import autodiff as ad
from crashcast.autodiff import Parameter, grad_check
from crashcast.features import FeatureBatch
from crashcast.riskmodel import (
    ModelConfig,
    ModelParams,
    adjacency,
    align_project,
    forward,
    gcn_layer,
    pool_nodes,
)


def random_batch(b, t, o, f, rng, holes=True):
    """Synthetic feature batch with the same zero conventions as the real
    builder: absent slots carry zero features, centers, and depths."""
    visual = rng.normal(size=(b, t, o + 1, f))
    text = rng.normal(size=(b, t, o + 1, f))
    mask = np.ones((b, t, o), dtype=bool)
    if holes:
        mask &= rng.random((b, t, o)) > 0.3
        mask[..., 0] = True
    centers = rng.uniform(0, 1280, (b, t, o, 2))
    depths = rng.uniform(1, 80, (b, t, o))
    absent = ~mask
    visual[:, :, 1:][absent] = 0.0
    text[:, :, 1:][absent] = 0.0
    centers[absent] = 0.0
    depths[absent] = 0.0
    labels = np.asarray(rng.integers(0, 2, b))
    lam = np.where(labels == 1, rng.integers(2, t + 1, b), 0)
    return FeatureBatch(visual, text, mask, centers, depths,
                        tuple(f"v{i}" for i in range(b)), labels, lam)


# --- adjacency ---------------------------------------------------------------

def test_adjacency_zero_factors_hand_value():
    zero = np.zeros((2, 2))
    at = adjacency(zero, zero).value
    assert np.allclose(at, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)


def test_adjacency_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        u = rng.normal(size=(n, n))
        v = rng.normal(size=(n, n))
        raw = u @ v
        e = np.exp(raw - raw.max(axis=-1, keepdims=True))
        a = e / e.sum(axis=-1, keepdims=True)
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-9
        ahat = a + np.eye(n)
        d = ahat.sum(axis=-1)
        expect = ahat / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
        assert np.allclose(adjacency(u, v).value, expect, atol=1e-12)


def test_adjacency_preserves_symmetry():
    u = np.array([[0.3, 0.3], [0.3, 0.3]])
    at = adjacency(u, u).value
    assert np.allclose(at, at.T, atol=1e-15)


# --- gcn layer and pooling ---------------------------------------------------

def test_gcn_layer_identity_propagation():
    # one (batch, frame) of nodes, as forward passes them
    rng = np.random.default_rng(1)
    h = rng.normal(size=(1, 1, 3, 4))
    w_t = np.ones((1, 1, 3, 3))
    out = gcn_layer(h, np.eye(3), w_t, np.eye(4)).value
    assert np.allclose(out, np.maximum(h, 0.0), atol=1e-12)
    assert np.all(gcn_layer(np.zeros((1, 1, 3, 4)), np.eye(3), w_t,
                            np.eye(4)).value == 0.0)


def test_gcn_layer_hand_case():
    at = np.array([[0.75, 0.25], [0.25, 0.75]])
    out = gcn_layer(np.eye(2)[None, None], at, np.ones((1, 1, 2, 2)),
                    np.eye(2)).value
    assert np.allclose(out[0, 0], at, atol=1e-12)


def test_pool_nodes():
    # with every node present the pool is the plain mean
    row = np.array([2.0, -1.0, 3.0])
    h = np.tile(row, (4, 1))
    assert np.allclose(pool_nodes(h, np.ones(4, bool)).value, row, atol=1e-12)
    assert np.allclose(pool_nodes(row[None, :], np.ones(1, bool)).value, row,
                       atol=1e-12)
    h = np.array([[1.0, 3.0], [3.0, 5.0]])
    assert np.allclose(pool_nodes(h, np.ones(2, bool)).value, [2.0, 4.0],
                       atol=1e-12)


def test_pool_nodes_masked():
    h = np.array([[1.0, 3.0], [3.0, 5.0], [100.0, 100.0]])
    mask = np.array([True, True, False])
    assert np.allclose(pool_nodes(h, mask).value, [2.0, 4.0], atol=1e-12)
    assert np.all(pool_nodes(h, np.zeros(3, dtype=bool)).value == 0.0)


# --- forward -----------------------------------------------------------------

def _tiny_cfg(**kw):
    kw.setdefault("feature_dim", 4)
    kw.setdefault("max_objects", 2)
    return ModelConfig(**kw)


def test_forward_zero_params_is_uniform():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(2)
    params = ModelParams.init(cfg, rng)
    for p in params.parameters():
        p.value[...] = 0.0
    batch = random_batch(2, 5, 2, 4, rng)
    out = forward(batch, params, cfg)
    assert np.allclose(out.risk.value, 0.5, atol=1e-12)
    assert np.allclose(out.probabilities.value.sum(axis=-1), 1.0, atol=1e-12)


def test_forward_shapes_and_probability_rows():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(3)
    params = ModelParams.init(cfg, rng)
    batch = random_batch(3, 6, 2, 4, rng)
    out = forward(batch, params, cfg)
    assert out.logits.shape == (3, 6, 2)
    assert out.risk.shape == (3, 6)
    assert out.pooled.shape == (3, 6, 4)
    assert out.z.shape == (3, 6, 8)
    assert out.h.shape == (3, 6, 8)
    assert np.abs(out.probabilities.value.sum(axis=-1) - 1.0).max() < 1e-9
    assert np.all(out.risk.value >= 0.0) and np.all(out.risk.value <= 1.0)


def test_forward_rejects_mismatched_dims():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(4)
    params = ModelParams.init(cfg, rng)
    with pytest.raises(ValueError):
        forward(random_batch(1, 4, 3, 4, rng), params, cfg)
    with pytest.raises(ValueError):
        forward(random_batch(1, 4, 2, 6, rng), params, cfg)


def test_forward_is_causal():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(5)
    params = ModelParams.init(cfg, rng)
    batch = random_batch(2, 8, 2, 4, rng, holes=False)
    base = forward(batch, params, cfg).risk.value
    cut = 4
    batch.visual[:, cut:] = rng.normal(size=batch.visual[:, cut:].shape)
    batch.text[:, cut:] = rng.normal(size=batch.text[:, cut:].shape)
    batch.centers[:, cut:] = rng.uniform(0, 1280, batch.centers[:, cut:].shape)
    batch.depths[:, cut:] = rng.uniform(1, 80, batch.depths[:, cut:].shape)
    bumped = forward(batch, params, cfg).risk.value
    assert np.array_equal(base[:, :cut], bumped[:, :cut])
    assert not np.allclose(base[:, cut:], bumped[:, cut:])


def test_forward_permutation_consistency():
    cfg = ModelConfig(feature_dim=4, max_objects=3)
    rng = np.random.default_rng(6)
    params = ModelParams.init(cfg, rng)
    batch = random_batch(2, 5, 3, 4, np.random.default_rng(7))
    base = forward(batch, params, cfg).risk.value

    perm = np.array([2, 0, 1])
    permuted = FeatureBatch(
        np.concatenate([batch.visual[:, :, :1], batch.visual[:, :, 1:][:, :, perm]], axis=2),
        np.concatenate([batch.text[:, :, :1], batch.text[:, :, 1:][:, :, perm]], axis=2),
        batch.mask[:, :, perm], batch.centers[:, :, perm],
        batch.depths[:, :, perm], batch.video_ids, batch.labels,
        batch.accident_frames)
    params2 = ModelParams.init(cfg, np.random.default_rng(6))
    params2.u.value[...] = params.u.value[perm][:, perm]
    params2.v.value[...] = params.v.value[perm][:, perm]
    swapped = forward(permuted, params2, cfg).risk.value
    assert np.abs(base - swapped).max() <= 1e-9


# --- dual-implementation oracle ----------------------------------------------

def numpy_forward(batch, params, cfg):
    """Straight-line numpy transcription of the network equations, written
    independently of the autodiff graph; returns the risk curves."""
    b_n, t_n = batch.batch_size, batch.frames
    o_n, f_n = cfg.max_objects, cfg.feature_dim
    h_n = 2 * f_n
    s = 1.0 / 1280.0
    mask = batch.mask

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def smax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    a_val = float(params.geometry.a.value)
    alpha = a_val / (a_val + 1.0)
    lam = sig(float(params.gate_obj.beta.value))

    d = np.zeros((b_n, t_n, o_n, o_n))
    for b in range(b_n):
        for t in range(t_n):
            for i in range(o_n):
                for j in range(o_n):
                    if mask[b, t, i] and mask[b, t, j]:
                        dc = batch.centers[b, t, i] - batch.centers[b, t, j]
                        dz = batch.depths[b, t, i] - batch.depths[b, t, j]
                        d[b, t, i, j] = s * s * (dc @ dc) + dz * dz
    v = np.zeros_like(d)
    for b in range(b_n):
        for t in range(1, t_n):
            for i in range(o_n):
                for j in range(o_n):
                    if (mask[b, t, i] and mask[b, t, j]
                            and mask[b, t - 1, i] and mask[b, t - 1, j]):
                        v[b, t, i, j] = d[b, t, i, j] - d[b, t - 1, i, j]
    dbar = np.zeros_like(d)
    vbar = np.zeros_like(v)
    for b in range(b_n):
        for t in range(t_n):
            peak = np.abs(d[b, t]).max()
            if peak > 0:
                dbar[b, t] = d[b, t] / peak
            peak = np.abs(v[b, t]).max()
            if peak > 0:
                vbar[b, t] = v[b, t] / peak
    w_geo = alpha * np.exp(-dbar) + (1.0 - alpha) * vbar

    text_obj = batch.text[:, :, 1:]
    norm = np.linalg.norm(text_obj, axis=-1, keepdims=True)
    tn = np.divide(text_obj, norm, out=np.zeros_like(text_obj), where=norm > 0)
    w_text = np.zeros_like(d)
    for b in range(b_n):
        for t in range(t_n):
            pair = np.outer(mask[b, t], mask[b, t])
            logits = tn[b, t] @ tn[b, t].T / 0.5
            logits = logits + np.where(pair, 0.0, -1e30)
            w_text[b, t] = smax(logits)
    w = (1.0 - lam) * w_geo + lam * w_text

    vis_obj = batch.visual[:, :, 1:]
    gate_in = np.concatenate([vis_obj, text_obj], axis=-1)
    g = sig(gate_in @ params.gate_obj.w_g.value + params.gate_obj.b_g.value)
    h_nodes = g * vis_obj + (1.0 - g) * text_obj

    a_soft = smax(params.u.value @ params.v.value)
    ahat = a_soft + np.eye(o_n)
    deg = ahat.sum(axis=-1)
    at = ahat / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]

    for psi in params.psi:
        nxt = np.zeros_like(h_nodes)
        for b in range(b_n):
            for t in range(t_n):
                nxt[b, t] = np.maximum(
                    (w[b, t] * at) @ h_nodes[b, t] @ psi.value, 0.0)
        h_nodes = nxt

    pooled = np.zeros((b_n, t_n, f_n))
    for b in range(b_n):
        for t in range(t_n):
            present = mask[b, t]
            if present.any():
                pooled[b, t] = h_nodes[b, t][present].mean(axis=0)

    gate_in = np.concatenate([batch.visual[:, :, 0], batch.text[:, :, 0]], axis=-1)
    g = sig(gate_in @ params.gate_frame.w_g.value + params.gate_frame.b_g.value)
    f_fuse = g * batch.visual[:, :, 0] + (1.0 - g) * batch.text[:, :, 0]
    x = np.concatenate([pooled, f_fuse], axis=-1)

    for block in params.tcn:
        wgt = block.weight.value
        k = wgt.shape[0]
        y = np.zeros_like(x)
        for b in range(b_n):
            for t in range(t_n):
                acc = block.bias.value.copy()
                for tap in range(k):
                    src = t - (k - 1 - tap) * block.dilation
                    if src >= 0:
                        acc = acc + x[b, src] @ wgt[tap]
                y[b, t] = acc
        x = np.maximum(x + y, 0.0)

    h = np.zeros((b_n, h_n))
    hs = np.zeros((b_n, t_n, h_n))
    for t in range(t_n):
        gi = x[:, t] @ params.gru_w_ih.value.T + params.gru_b_ih.value
        gh = h @ params.gru_w_hh.value.T + params.gru_b_hh.value
        r = sig(gi[:, :h_n] + gh[:, :h_n])
        z = sig(gi[:, h_n:2 * h_n] + gh[:, h_n:2 * h_n])
        n = np.tanh(gi[:, 2 * h_n:] + r * gh[:, 2 * h_n:])
        h = (1.0 - z) * n + z * h
        hs[:, t] = h

    inner = np.maximum(hs @ params.head_w1.value + params.head_b1.value, 0.0)
    logits = inner @ params.head_w2.value + params.head_b2.value
    return smax(logits)[..., 1]


def test_forward_matches_numpy_oracle():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(8)
    params = ModelParams.init(cfg, rng)
    batch = random_batch(2, 3, 2, 4, rng)
    got = forward(batch, params, cfg).risk.value
    want = numpy_forward(batch, params, cfg)
    assert np.abs(got - want).max() <= 1e-9


def test_forward_tape_does_not_grow_with_frames():
    cfg = _tiny_cfg(feature_dim=8, max_objects=4)
    params = ModelParams.init(cfg, np.random.default_rng(9))
    sizes = []
    for frames in (10, 20):
        batch = random_batch(2, frames, 4, 8, np.random.default_rng(frames))
        with ad.Tape() as tape:
            forward(batch, params, cfg)
        sizes.append(len(tape))
    assert sizes[0] == sizes[1], sizes


# --- gradients, alignment head, persistence ----------------------------------

def test_forward_gradients_match_fd():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(10)
    params = ModelParams.init(cfg, rng)
    batch = random_batch(2, 3, 2, 4, rng)
    probe = rng.normal(size=(2, 3))

    def f():
        return ad.tsum(ad.mul(forward(batch, params, cfg).risk, probe))

    err = grad_check(f, params.parameters(), max_coords_per_param=3,
                     rng=np.random.default_rng(0))
    assert err < 1e-4


def test_align_project_shape_and_norm():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(11)
    params = ModelParams.init(cfg, rng)
    x = rng.normal(size=(5, 4))
    out = align_project(params, x).value
    assert out.shape == (5, 2)
    # rows are unit norm except where the relu kills every channel, which
    # the zero-safe normalizer maps to exact zero
    norms = np.linalg.norm(out, axis=-1)
    assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))
    assert np.any(np.abs(norms - 1.0) < 1e-9)
    zeroed = align_project(params, np.zeros((2, 4))).value
    assert np.all(zeroed == 0.0)


def test_model_config_roundtrip_and_validation():
    cfg = ModelConfig(feature_dim=8, max_objects=5)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.hidden_dim == 16
    # the shape is the only setting; every other model value is a constant
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "feature_dim", "max_objects"]
    for bad in (0, 7):
        with pytest.raises(ValueError):
            ModelConfig(feature_dim=bad)
    with pytest.raises(ValueError):
        ModelConfig(max_objects=0)


def test_checkpoint_roundtrip(tmp_path):
    cfg = _tiny_cfg()
    rng = np.random.default_rng(12)
    params = ModelParams.init(cfg, rng)
    path = str(tmp_path / "model.ckpt")
    ad.save_checkpoint(path, params.state_dict())
    loaded = ModelParams.init(cfg, np.random.default_rng(0))
    loaded.load_state_dict(ad.load_checkpoint(path))
    for name, arr in params.state_dict().items():
        assert np.array_equal(loaded.state_dict()[name], arr)
    batch = random_batch(1, 4, 2, 4, rng)
    assert np.array_equal(forward(batch, params, cfg).risk.value,
                          forward(batch, loaded, cfg).risk.value)


def test_checkpoint_shape_mismatch_raises(tmp_path):
    cfg = _tiny_cfg()
    params = ModelParams.init(cfg, np.random.default_rng(13))
    path = str(tmp_path / "model.ckpt")
    ad.save_checkpoint(path, params.state_dict())
    other = ModelParams.init(ModelConfig(feature_dim=8, max_objects=2),
                             np.random.default_rng(0))
    with pytest.raises((KeyError, ValueError)):
        other.load_state_dict(ad.load_checkpoint(path))
