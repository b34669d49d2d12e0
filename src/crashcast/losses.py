"""Training objectives: earliness-weighted frame loss, amplified video-level
loss at the most confident early frame, and a bidirectional contrastive
alignment loss between visual and textual frame embeddings.

The frame rate and the video-loss amplification (the frame count) come from
the records; the two alignment constants below are fixed.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

TAU_C = 0.1  # InfoNCE temperature
NEIGHBOR_MASK_RADIUS = 2  # same-video frames this close leave the denominator


def earliness_weights(labels, accident_frames, frames: int,
                      fps: int) -> np.ndarray:
    """(B, T) frame weights: 1 everywhere for negatives; for positives
    exp(-max(0, tau - t - 1) / fps) over 1-based t, so weight 1 holds from
    one frame before onset onward and decays smoothly into the past."""
    labels = np.asarray(labels)
    tau = np.asarray(accident_frames, dtype=float)
    if np.any((labels == 1) & (tau < 1)):
        raise ValueError("positive items need a 1-based accident frame")
    t = np.arange(1, frames + 1, dtype=float)
    slack = np.maximum(0.0, tau[:, None] - t[None, :] - 1.0)
    w = np.exp(-(slack / fps))
    w[labels == 0] = 1.0
    return w


def frame_loss(logits, labels, accident_frames, fps: int) -> Tensor:
    """Mean over all B*T frames of the cross entropy of the (B, T, 2)
    logits against each video's label (1 positive), with positive videos
    reweighted by distance to their 1-based accident frame (see
    earliness_weights)."""
    b, t = logits.shape[0], logits.shape[1]
    w = earliness_weights(labels, accident_frames, t, fps)
    flat = ad.reshape(logits, (b * t, 2))
    targets = np.repeat(np.asarray(labels, dtype=np.int64), t)
    ce = ad.cross_entropy_logits(flat, targets)
    return ad.tmean(ad.mul(ce, w.reshape(-1)))


def _pool_lengths(labels, accident_frames, frames: int) -> np.ndarray:
    """Frames each item pools over: up to the accident frame for positives,
    the whole video for negatives."""
    pools = np.full(len(labels), frames, dtype=int)
    for i, y in enumerate(np.asarray(labels)):
        if y == 1:
            tau = int(accident_frames[i])
            if tau < 1 or tau > frames:
                raise ValueError("positive items need a 1-based accident frame")
            pools[i] = tau
    return pools


def video_loss(logits, labels, accident_frames) -> Tensor:
    """Mean over the B videos of the cross entropy of the (B, T, 2) logits
    against the video's label (1 positive) at its most accident-confident
    frame within the pool window: up to the 1-based accident frame for
    positives, the whole video for negatives. Ties resolve to the earliest
    frame."""
    b, t = logits.shape[0], logits.shape[1]
    pools = _pool_lengths(labels, accident_frames, t)
    pos_logit = logits.value[..., 1]
    select = np.zeros((b, t, 1))
    for i in range(b):
        select[i, int(np.argmax(pos_logit[i, :pools[i]])), 0] = 1.0
    chosen = ad.tsum(ad.mul(logits, select), axis=1)
    targets = np.asarray(labels, dtype=np.int64)
    return ad.tmean(ad.cross_entropy_logits(chosen, targets))


def align_loss(f_vis, f_text) -> Tensor:
    """Bidirectional InfoNCE over all (video, frame) pairs in the batch, as
    one tape node with a hand-written backward.

    Expects projected, unit-normalized embeddings of shape (B, T, D) or
    (N, D); the matching pair at the same (video, frame) is the positive
    and same-video temporal neighbors are masked out of the denominator.
    With logits S = V Xᵀ / TAU_C over the N = B·T anchors, -1e30 added at
    each anchor's neighbors (0 < |dt| <= NEIGHBOR_MASK_RADIUS), the loss is
    0.5 (mean(lse_row(S) - diag S) + mean(lse_col(S) - diag S)): the mask
    is symmetric, so the text-to-visual direction reads the columns of the
    same matrix. Backward reuses the forward's two softmaxes:
    dS = g (P_row + P_col - 2I) / 2N, dV = dS X / TAU_C, dX = dSᵀ V / TAU_C.
    """
    v = ad.as_tensor(f_vis)
    x = ad.as_tensor(f_text)
    if v.shape != x.shape:
        raise ValueError(f"embedding shapes differ: {v.shape} vs {x.shape}")
    if v.ndim not in (2, 3):
        raise ValueError("align_loss expects (B, T, D) or (N, D) embeddings")
    frames = v.shape[1] if v.ndim == 3 else 1
    vv = v.value.reshape(-1, v.shape[-1])
    xv = x.value.reshape(-1, x.shape[-1])
    n = vv.shape[0]
    s = vv @ xv.T
    s /= TAU_C
    flat = s.reshape(-1)
    frame = np.arange(n) % frames
    for dt in range(1, min(NEIGHBOR_MASK_RADIUS, frames - 1) + 1):
        a = np.flatnonzero(frame < frames - dt)  # anchors dt frames before a neighbor
        flat[a * (n + 1) + dt] += -1e30  # (a, a + dt)
        flat[a * (n + 1) + dt * n] += -1e30  # (a + dt, a)
    diag = s.diagonal().copy()
    # the softmaxes are exponentiated in place, the row one in the buffer of
    # S: fresh N x N buffers cost more than the exp itself
    m_row = s.max(axis=1, keepdims=True)
    m_col = s.max(axis=0)
    p_col = s - m_col
    np.exp(p_col, out=p_col)
    z_col = p_col.sum(axis=0)
    p_row = s
    p_row -= m_row
    np.exp(p_row, out=p_row)
    z_row = p_row.sum(axis=1, keepdims=True)
    l_vt = np.mean(m_row[:, 0] + np.log(z_row[:, 0]) - diag)
    l_tv = np.mean(m_col + np.log(z_col) - diag)
    done: list = []  # the one d_logits result

    def d_logits(g):
        """dL/d(V Xᵀ) = g (P_row + P_col - 2I) / (2 N TAU_C), built in the
        buffer of P_row on the first call; a tape runs backward once, so
        both callbacks get the same g."""
        if not done:
            d = np.divide(p_row, z_row, out=p_row)
            d += np.divide(p_col, z_col, out=p_col)
            d.flat[::n + 1] -= 2.0
            d *= g / (2.0 * n * TAU_C)
            done.append(d)
        return done[0]

    shape = v.shape
    out = Tensor((l_vt + l_tv) * 0.5)
    return ad._record(out, (v, x), (
        lambda g: (d_logits(g) @ xv).reshape(shape),
        lambda g: (d_logits(g).T @ vv).reshape(shape),
    ))


def total_loss(l1, l2, l3, gamma: float) -> Tensor:
    """L = L1 + gamma * L2 + L3, with gamma the video frame count."""
    return ad.add(ad.add(ad.as_tensor(l1), ad.mul(ad.as_tensor(l2), gamma)),
                  ad.as_tensor(l3))
