"""Training objectives: earliness-weighted frame loss, amplified video-level
loss at the most confident early frame, and a bidirectional contrastive
alignment loss between visual and textual frame embeddings.

The frame rate and the video-loss amplification (the frame count) come from
the records; the two alignment constants below are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

TAU_C = 0.1  # InfoNCE temperature
NEIGHBOR_MASK_RADIUS = 2  # same-video frames this close leave the denominator


@dataclass
class LabeledBatch:
    logits: Tensor  # (B, T, 2)
    labels: np.ndarray  # (B,) in {0, 1}
    accident_frames: np.ndarray  # (B,) 1-based onset; 0 for negatives


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


def frame_loss(batch: LabeledBatch, fps: int) -> Tensor:
    """Mean over all B*T frames of cross entropy, with positive videos
    reweighted by distance to the accident."""
    b, t = batch.logits.shape[0], batch.logits.shape[1]
    w = earliness_weights(batch.labels, batch.accident_frames, t, fps)
    flat = ad.reshape(batch.logits, (b * t, 2))
    targets = np.repeat(np.asarray(batch.labels, dtype=np.int64), t)
    ce = ad.cross_entropy_logits(flat, targets)
    return ad.tmean(ad.mul(ce, w.reshape(-1)))


def _pool_lengths(batch: LabeledBatch, frames: int) -> np.ndarray:
    """Frames each item pools over: up to the accident frame for positives,
    the whole video for negatives."""
    pools = np.full(len(batch.labels), frames, dtype=int)
    for i, y in enumerate(np.asarray(batch.labels)):
        if y == 1:
            tau = int(batch.accident_frames[i])
            if tau < 1 or tau > frames:
                raise ValueError("positive items need a 1-based accident frame")
            pools[i] = tau
    return pools


def video_loss(batch: LabeledBatch) -> Tensor:
    """Cross entropy at the most accident-confident frame within the pool
    window (the onset for positives, the whole video for negatives); ties
    resolve to the earliest frame."""
    b, t = batch.logits.shape[0], batch.logits.shape[1]
    pools = _pool_lengths(batch, t)
    pos_logit = batch.logits.value[..., 1]
    select = np.zeros((b, t, 1))
    for i in range(b):
        select[i, int(np.argmax(pos_logit[i, :pools[i]])), 0] = 1.0
    chosen = ad.tsum(ad.mul(batch.logits, select), axis=1)
    targets = np.asarray(batch.labels, dtype=np.int64)
    return ad.tmean(ad.cross_entropy_logits(chosen, targets))


def _candidate_mask(videos: int, frames: int, radius: int) -> np.ndarray:
    """(N, N) bool over flattened (video, frame) anchors: False where the
    candidate is a temporal neighbor (0 < |dt| <= radius) of the anchor in
    the same video; the anchor itself stays allowed."""
    vid = np.repeat(np.arange(videos), frames)
    frm = np.tile(np.arange(frames), videos)
    same = vid[:, None] == vid[None, :]
    dt = np.abs(frm[:, None] - frm[None, :])
    return ~(same & (dt > 0) & (dt <= radius))


def align_loss(f_vis, f_text, *, tau_c: float = TAU_C) -> Tensor:
    """Bidirectional InfoNCE over all (video, frame) pairs in the batch.

    Expects projected, unit-normalized embeddings of shape (B, T, D) or
    (N, D); the matching pair at the same (video, frame) is the positive
    and same-video temporal neighbors are masked out of the denominator.
    """
    v = ad.as_tensor(f_vis)
    x = ad.as_tensor(f_text)
    if v.shape != x.shape:
        raise ValueError(f"embedding shapes differ: {v.shape} vs {x.shape}")
    if v.ndim == 2:
        videos, frames = v.shape[0], 1
    elif v.ndim == 3:
        videos, frames = v.shape[0], v.shape[1]
        v = ad.reshape(v, (videos * frames, v.shape[2]))
        x = ad.reshape(x, (videos * frames, x.shape[2]))
    else:
        raise ValueError("align_loss expects (B, T, D) or (N, D) embeddings")
    n = videos * frames
    sim = ad.div(ad.matmul(v, ad.transpose2d(x)), tau_c)
    penal = np.where(_candidate_mask(videos, frames, NEIGHBOR_MASK_RADIUS),
                     0.0, -1e30)
    targets = np.arange(n)
    l_vt = ad.tmean(ad.cross_entropy_logits(ad.add(sim, penal), targets))
    l_tv = ad.tmean(ad.cross_entropy_logits(ad.add(ad.transpose2d(sim), penal),
                                            targets))
    return ad.mul(ad.add(l_vt, l_tv), 0.5)


def total_loss(l1, l2, l3, gamma: float) -> Tensor:
    """L = L1 + gamma * L2 + L3, with gamma the video frame count."""
    return ad.add(ad.add(ad.as_tensor(l1), ad.mul(ad.as_tensor(l2), gamma)),
                  ad.as_tensor(l3))
