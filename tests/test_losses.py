import math

import numpy as np
import pytest

from crashcast import autodiff as ad
from crashcast.autodiff import Parameter, grad_check
from crashcast.losses import (
    LabeledBatch,
    align_loss,
    earliness_weights,
    frame_loss,
    total_loss,
    video_loss,
)


def _batch(logits, labels, taus):
    return LabeledBatch(ad.as_tensor(np.asarray(logits, dtype=float)),
                        np.asarray(labels), np.asarray(taus))


# --- earliness weights -------------------------------------------------------

def test_earliness_weight_hand_value():
    w = earliness_weights([1], [50], 50, fps=10)
    assert w[0, 29] == pytest.approx(0.14956861922263506, abs=1e-12)
    # from one frame before onset onward the weight is exactly 1
    assert w[0, 47] == math.exp(-0.1)
    assert w[0, 48] == 1.0 and w[0, 49] == 1.0


def test_earliness_weight_properties():
    w = earliness_weights([1, 0], [26, 0], 50, fps=10)
    assert np.all(w > 0) and np.all(w <= 1)
    assert np.all(np.diff(w[0]) >= 0)
    assert np.all(w[1] == 1.0)


def test_earliness_weight_missing_tau_raises():
    with pytest.raises(ValueError):
        earliness_weights([1], [0], 50, fps=10)


# --- frame loss --------------------------------------------------------------

def test_frame_loss_negative_video_is_plain_mean_ce():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 5, 2))
    batch = _batch(logits, [0, 0], [0, 0])
    got = frame_loss(batch, fps=10).item()
    flat = logits.reshape(-1, 2)
    lse = np.log(np.exp(flat).sum(axis=-1))
    want = float(np.mean(lse - flat[:, 0]))
    assert got == pytest.approx(want, abs=1e-12)


def test_frame_loss_positive_weighting_hand_case():
    batch = _batch(np.zeros((1, 3, 2)), [1], [3])
    got = frame_loss(batch, fps=10).item()
    want = math.log(2.0) * (math.exp(-0.1) + 1.0 + 1.0) / 3.0
    assert got == pytest.approx(want, abs=1e-12)


def test_frame_loss_requires_tau_for_positives():
    with pytest.raises(ValueError):
        frame_loss(_batch(np.zeros((1, 4, 2)), [1], [0]), fps=10)


# --- video loss --------------------------------------------------------------

def test_video_loss_pool_of_one_is_first_frame_ce():
    # a positive whose accident is on frame 1 pools over that frame alone
    batch = _batch([[[2.0, 0.0], [0.0, 5.0]]], [1], [1])
    got = video_loss(batch).item()
    assert got == pytest.approx(math.log(1.0 + math.exp(2.0)), abs=1e-12)


def test_video_loss_saturated_frame_is_near_zero():
    logits = np.zeros((1, 4, 2))
    logits[0, 2, 1] = 50.0
    batch = _batch(logits, [1], [4])
    assert video_loss(batch).item() <= 1e-9


def test_video_loss_tie_picks_earliest_frame():
    batch = _batch([[[0.0, 0.0], [1.0, 0.0]]], [1], [2])
    got = video_loss(batch).item()
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_video_loss_pool_window_per_item():
    logits = np.zeros((1, 4, 2))
    logits[0, 3, 1] = 50.0  # confident frame after the onset
    pos = _batch(logits, [1], [2])
    assert video_loss(pos).item() == pytest.approx(math.log(2.0), abs=1e-12)
    neg = _batch(logits, [0], [0])
    # the negative pools over the whole video and pays for the spike
    assert video_loss(neg).item() > 10.0


# --- alignment loss ----------------------------------------------------------

def test_align_loss_single_matched_pair_is_zero():
    v = np.array([[1.0, 0.0]])
    assert align_loss(v, v).item() == pytest.approx(0.0, abs=1e-12)


def test_align_loss_orthogonal_pairs_hand_value():
    e = np.eye(2)
    got = align_loss(e, e, tau_c=1.0).item()
    assert got == pytest.approx(0.3132616875182228, abs=1e-9)


def test_align_loss_mask_reduces_to_lone_positives():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(1, 3, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    # three frames lie within the radius-2 neighborhood of each other
    assert align_loss(v, v).item() == pytest.approx(0.0, abs=1e-12)


def test_align_loss_symmetric_in_modalities():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(3, 4, 6))
    x = rng.normal(size=(3, 4, 6))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    assert align_loss(v, x).item() == pytest.approx(
        align_loss(x, v).item(), abs=1e-12)
    assert align_loss(v, x).item() >= 0.0


def test_align_loss_input_validation():
    with pytest.raises(ValueError):
        align_loss(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        align_loss(np.zeros((2, 3, 4, 5)), np.zeros((2, 3, 4, 5)))


# --- total loss -------------------------------------------------------------

def test_total_loss_combination():
    zero = ad.as_tensor(0.0)
    got = total_loss(zero, ad.as_tensor(0.01), zero, 50.0).item()
    assert got == pytest.approx(0.5, abs=1e-12)
    assert total_loss(zero, zero, zero, 50.0).item() == 0.0
    l = total_loss(ad.as_tensor(0.25), zero, ad.as_tensor(0.5), 50.0).item()
    assert l == pytest.approx(0.75, abs=1e-12)


def test_loss_terms_are_nonnegative():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 6, 2)) * 3
    batch = _batch(logits, [1, 0, 1, 0], [4, 0, 6, 0])
    l1 = frame_loss(batch, fps=10)
    l2 = video_loss(batch)
    v = rng.normal(size=(4, 6, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    x = rng.normal(size=(4, 6, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    l3 = align_loss(v, x)
    assert l1.item() >= 0 and l2.item() >= 0 and l3.item() >= 0
    assert total_loss(l1, l2, l3, 50.0).item() >= 0


# --- gradients ---------------------------------------------------------------

def test_frame_and_video_loss_gradients_match_fd():
    rng = np.random.default_rng(4)
    logits = Parameter(rng.normal(size=(2, 4, 2)), name="logits")
    labels = np.array([1, 0])
    taus = np.array([3, 0])

    def f1():
        return frame_loss(LabeledBatch(logits, labels, taus), fps=10)

    def f2():
        return video_loss(LabeledBatch(logits, labels, taus))

    assert grad_check(f1, [logits], rng=rng) < 1e-6
    assert grad_check(f2, [logits], rng=rng) < 1e-6


def test_align_loss_gradients_match_fd():
    rng = np.random.default_rng(5)
    v = Parameter(rng.normal(size=(2, 3, 4)), name="v")
    x = Parameter(rng.normal(size=(2, 3, 4)), name="x")

    def f():
        return align_loss(ad.l2_normalize_lastdim(v),
                          ad.l2_normalize_lastdim(x))

    assert grad_check(f, [v, x], rng=rng) < 1e-6
