"""Feature tensors and edge-weight matrices for the risk model.

Embeddings are synthesized from simulator ground truth: object slots carry
a fixed random projection of the kinematic state, text slots carry a fixed
per-label table row, both lightly noised. Slot index 0 of every frame is
the frame-level feature; objects occupy slots 1..S with a per-video stable
assignment (S <= max_objects is the most slots any video of the batch
fills), so frame-to-frame differences are differences of the same
object, not of whichever object happened to sort first. The edge-weight and
fusion functions take the learned tensors (a, beta, W_g, b_g) as plain
arguments; riskmodel.ModelParams holds them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .scenario.records import BEHAVIOR_LABELS, MAX_VISIBLE, ScenarioRecord
from .util import stable_u64, stream_rng

# fixed scales that bring each state coordinate to roughly unit range
_STATE_SCALES = np.array([100.0, 100.0, 15.0, math.pi, 3.0, 100.0])
_FEATURE_SEED = 0  # seeds the projections, the label table and the noise
_NOISE_SIGMA = 0.01
_SCALE = 1.0 / 1280.0  # pixel-to-depth balance in the distance
_TAU_TEXT = 0.5


@dataclass
class FeatureBatch:
    """Stacked per-video tensors in record order, and the labels and accident
    frames that train's losses read; slot 0 is the frame-level feature.

    The object axis is S wide, S <= the model's max_objects: build_features
    stores only as many object slots as the batch's fullest video fills, and
    the slots a video does not fill hold +0.0."""

    visual: np.ndarray  # (B, T, 1+S, F)
    text: np.ndarray  # (B, T, 1+S, F)
    mask: np.ndarray  # (B, T, S) bool, object slots only
    centers: np.ndarray  # (B, T, S, 2) pixel centers, zero where absent
    depths: np.ndarray  # (B, T, S) meters, zero where absent
    labels: np.ndarray  # (B,) int, 1 for accident videos
    accident_frames: np.ndarray  # (B,) 1-based frame index, 0 for negatives

    @property
    def batch_size(self) -> int:
        return self.visual.shape[0]

    @property
    def frames(self) -> int:
        return self.visual.shape[1]

    @property
    def objects(self) -> int:
        return self.visual.shape[2] - 1

    @property
    def feature_dim(self) -> int:
        return self.visual.shape[3]


def object_size(object_id: str) -> float:
    """Deterministic stand-in footprint, meters; the record schema has no
    size field, so it is derived from the id wherever needed."""
    return 1.5 + (stable_u64("size", object_id) % 2001) / 1000.0


def assign_slots(record: ScenarioRecord, max_objects: int) -> tuple[str, ...]:
    """Stable object-slot layout for one video.

    Ranked by (most frames visible, earliest appearance, id); ids past
    max_objects are dropped for the whole video rather than flickering in
    and out of different slots.
    """
    count = np.bincount(record.id_of, minlength=len(record.ids)).tolist()
    first_row = np.unique(record.id_of, return_index=True)[1]
    first = (np.searchsorted(record.frame_starts, first_row, side="right") - 1).tolist()
    order = sorted(range(len(record.ids)),
                   key=lambda k: (-count[k], first[k], record.ids[k]))
    return tuple(record.ids[k] for k in order[:max_objects])


@functools.lru_cache(maxsize=8)
def _visual_projections(feature_dim: int) -> dict[str, np.ndarray]:
    """The object and frame projections every video shares; cached per
    feature dim, so read-only."""
    rng = stream_rng(_FEATURE_SEED, "projections")
    shape = (len(_STATE_SCALES), feature_dim)
    out = {
        "object": rng.normal(size=shape) / math.sqrt(shape[0]),
        "frame": rng.normal(size=shape) / math.sqrt(shape[0]),
    }
    for v in out.values():
        v.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _label_embedding(table_seed: int, label: str, feature_dim: int) -> np.ndarray:
    """One row of the label table; cached across calls, so read-only."""
    v = stream_rng(table_seed, "text-table", label).normal(size=feature_dim)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=8)
def _behavior_table(feature_dim: int) -> np.ndarray:
    """(len(BEHAVIOR_LABELS), F) label-table rows, indexed by the behavior
    codes of the records; cached per feature dim, so read-only."""
    table = np.stack([_label_embedding(_FEATURE_SEED, label, feature_dim)
                      for label in BEHAVIOR_LABELS])
    table.flags.writeable = False
    return table


def _env_code(env) -> float:
    """The environment's code in [0, 1), the last frame aggregate."""
    return (stable_u64("env", env.weather, env.lighting, env.road_type) % 1000) / 1000.0


def build_features(records, feature_dim: int, max_objects: int) -> FeatureBatch:
    """Stack records into one batch with S = max(1, the most object slots
    any of its videos fills) <= max_objects object slots.

    Visual slot 0 of a frame projects the frame's aggregates (object count,
    mean speed, depth, x and y, an environment code); an object slot
    projects the object's (x, y, speed, heading, size, depth). Text rows are
    unit-norm label-table rows (the frame's scene label, the object's
    behavior). Both get small Gaussian noise, text rows are then
    re-normalized, and visual entries of unfilled slots are zeroed.

    One pass over the concatenated object rows of all the records makes
    the frame aggregates (one bincount per column), the slot of every row
    and the gathered table rows. Per video remain its two noise draws, each
    from its own stream, and its two projections, agg @ P_frame and
    obj @ P_object, each over that video's rows alone: a product over more
    rows need not give the same bits for the same row. The visual draw is
    (T, 1 + the video's own slots, F). The text draw is (T + kept rows, F)
    and equals the two draws, frames then kept object rows, that it
    replaces, since a stream's normals follow on from call to call.

    A video's values depend only on (video, feature_dim, max_objects), never
    on which other videos share the batch; only the width S of the +0.0 tail
    past its own slots does. So stack() of one-record batches equals the
    batch of all their records, and a video cut out of a batch at its own
    width equals its one-record batch: train builds its videos in chunks
    here and keeps each one cut out that way, and eval builds each chunk
    here."""
    records = list(records)
    if not records:
        raise ValueError("cannot build features from zero records")
    t_count = records[0].frames
    if any(r.frames != t_count for r in records):
        raise ValueError("all records in a batch must share the frame count")
    slot_ids = [assign_slots(rec, max_objects) for rec in records]
    widths = list(map(len, slot_ids))
    width = max(1, max(widths))
    b = len(records)
    frames = b * t_count

    # the object rows of all videos in order; frame i*T + t is video i's t
    states = np.concatenate([rec.states for rec in records])
    row_counts = [len(rec.states) for rec in records]
    per_frame = np.concatenate([np.diff(rec.frame_starts) for rec in records])
    frame_of = np.repeat(np.arange(frames), per_frame)
    id_base = np.cumsum([0] + [len(rec.ids) for rec in records[:-1]])
    id_of = (np.concatenate([rec.id_of for rec in records])
             + np.repeat(id_base, row_counts))
    slot_of_id, size_of_id = [], []
    for rec, slots in zip(records, slot_ids):
        index = dict(zip(slots, range(len(slots))))
        slot_of_id += [index.get(oid, -1) for oid in rec.ids]
        size_of_id += map(object_size, rec.ids)
    slot_of = np.array(slot_of_id, dtype=np.int64)[id_of]
    kept = slot_of >= 0
    vid_k, t_k = np.divmod(frame_of[kept], t_count)
    slot_k = slot_of[kept]
    state_k = states[kept]

    seen = per_frame > 0
    count = per_frame[seen]
    env = np.array([_env_code(rec.environment) for rec in records])

    def frame_mean(col: int) -> np.ndarray:
        return np.bincount(frame_of, weights=states[:, col],
                           minlength=frames)[seen] / count

    agg = np.stack([
        count / MAX_VISIBLE,
        frame_mean(2) / 15.0,
        frame_mean(6) / 100.0,
        frame_mean(0) / 100.0,
        frame_mean(1) / 100.0,
        np.repeat(env, t_count)[seen],
    ], axis=1)
    # (x, y, speed, heading, size, depth) of the kept rows
    obj = np.column_stack([state_k[:, :4], np.array(size_of_id)[id_of[kept]],
                           state_k[:, 6]]) / _STATE_SCALES

    # text rows: every frame's scene label, then every kept row's behavior
    scene = [label for rec in records for label in rec.scene_labels]
    scene_code = {label: k for k, label in enumerate(dict.fromkeys(scene))}
    # (0, F) when the videos have no frames
    scene_table = np.reshape([_label_embedding(_FEATURE_SEED, label, feature_dim)
                              for label in scene_code], (-1, feature_dim))
    behavior = np.concatenate([rec.behavior for rec in records])[kept]
    rows = np.concatenate([scene_table[list(map(scene_code.__getitem__, scene))],
                           _behavior_table(feature_dim)[behavior]])

    projections = _visual_projections(feature_dim)
    seen_end = np.cumsum(seen.reshape(b, t_count).sum(axis=1)).tolist()
    kept_end = np.cumsum(np.bincount(vid_k, minlength=b)).tolist()
    t_s = np.flatnonzero(seen) % t_count
    visual = np.zeros((b, t_count, width + 1, feature_dim))
    for i, rec, s_lo, s_hi, k_lo, k_hi in zip(range(b), records, [0] + seen_end,
                                              seen_end, [0] + kept_end, kept_end):
        own = visual[i, :, :widths[i] + 1]
        if s_hi > s_lo:  # else the video has no object rows
            own[t_s[s_lo:s_hi], 0] = agg[s_lo:s_hi] @ projections["frame"]
            own[t_k[k_lo:k_hi], slot_k[k_lo:k_hi] + 1] = (
                obj[k_lo:k_hi] @ projections["object"])
        own += _NOISE_SIGMA * stream_rng(_FEATURE_SEED, "visual", rec.id).normal(
            size=own.shape)
        text_noise = stream_rng(_FEATURE_SEED, "text", rec.id).normal(
            size=(t_count + k_hi - k_lo, feature_dim))
        text_noise *= _NOISE_SIGMA
        rows[i * t_count:(i + 1) * t_count] += text_noise[:t_count]
        rows[frames + k_lo:frames + k_hi] += text_noise[t_count:]
    mask = np.zeros((b, t_count, width), dtype=bool)
    mask[vid_k, t_k, slot_k] = True
    visual[:, :, 0] *= seen.reshape(b, t_count, 1)
    visual[:, :, 1:] *= mask[..., None]

    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    text = np.zeros((b, t_count, width + 1, feature_dim))
    text[:, :, 0] = rows[:frames].reshape(b, t_count, feature_dim)
    text[vid_k, t_k, slot_k + 1] = rows[frames:]

    centers = np.zeros((b, t_count, width, 2))
    centers[vid_k, t_k, slot_k] = state_k[:, 4:6]
    depths = np.zeros((b, t_count, width))
    depths[vid_k, t_k, slot_k] = state_k[:, 6]
    labels = np.array([int(rec.positive) for rec in records], dtype=np.int64)
    lam = np.array([rec.accident_frame or 0 for rec in records], dtype=np.int64)
    return FeatureBatch(visual, text, mask, centers, depths, labels, lam)


def stack(batches) -> FeatureBatch:
    """The videos of the batches, in order, as one batch padded with +0.0
    (False in the mask) to the widest one's object slots: equal, byte for
    byte, to build_features of all their records."""
    batches = list(batches)

    def padded(name: str) -> np.ndarray:
        parts = [getattr(fb, name) for fb in batches]
        first = parts[0]
        out = np.zeros((sum(len(p) for p in parts), first.shape[1],
                        max(p.shape[2] for p in parts)) + first.shape[3:],
                       dtype=first.dtype)
        lo = 0
        for p in parts:
            out[lo:lo + len(p), :, :p.shape[2]] = p
            lo += len(p)
        return out

    return FeatureBatch(
        *(padded(name) for name in ("visual", "text", "mask", "centers", "depths")),
        np.concatenate([fb.labels for fb in batches]),
        np.concatenate([fb.accident_frames for fb in batches]))


# ---------------------------------------------------------------------------
# edge weights

def pairwise_distance(centers, depths) -> np.ndarray:
    """d_ij = s^2 * ||c_i - c_j||^2 + |z_i - z_j|^2 with s = _SCALE, the
    pixel-to-depth balance, elementwise over any leading axes; symmetric
    with an exact zero diagonal."""
    c = np.asarray(centers, dtype=float)
    z = np.asarray(depths, dtype=float)
    diff = c[..., :, None, :] - c[..., None, :, :]
    pix = (diff * diff).sum(axis=-1)
    dz = z[..., :, None] - z[..., None, :]
    return _SCALE * _SCALE * pix + dz * dz


def _maxabs_normalize(stack: np.ndarray) -> np.ndarray:
    peak = np.abs(stack).max(axis=(-2, -1), keepdims=True)
    return np.divide(stack, peak, out=np.zeros_like(stack), where=peak > 0)


def distance_velocity_stacks(centers, depths, mask):
    """Per-frame max-abs normalized distance and velocity stacks of
    pairwise_distance, and the pair mask.

    Entries touching an absent object are zeroed; velocities, the change of
    the distance from the frame before, additionally require the pair in
    both frames. Returns (dbar, vbar, pair_mask).
    """
    mask = np.asarray(mask, dtype=bool)
    d = pairwise_distance(centers, depths)
    pair = mask[..., :, None] & mask[..., None, :]
    d = np.where(pair, d, 0.0)
    v = np.zeros_like(d)
    v[..., 1:, :, :] = d[..., 1:, :, :] - d[..., :-1, :, :]
    both = pair.copy()
    both[..., 1:, :, :] &= pair[..., :-1, :, :]
    both[..., 0, :, :] = False
    v = np.where(both, v, 0.0)
    return _maxabs_normalize(d), _maxabs_normalize(v), pair


def geo_weights(dbar, vbar, alpha) -> Tensor:
    """W_geo = alpha * exp(-dbar) + (1 - alpha) * vbar."""
    alpha = ad.as_tensor(alpha)
    return ad.add(ad.mul(alpha, np.exp(-np.asarray(dbar, dtype=float))),
                  ad.mul(ad.sub(1.0, alpha), np.asarray(vbar, dtype=float)))


def text_weights(embeddings, pair_mask, slots: int) -> Tensor:
    """Row softmax over cosine similarity / _TAU_TEXT; masked pairs
    contribute exactly zero. Expects unit-normalized embeddings (..., k, F)
    and a (..., k, k) pair mask, and returns (..., k, k) weights.

    ``slots`` >= k is the width O of the row softmax: the columns k..O-1
    past the embeddings are masked pairs of absent slots, as at full width.
    So a row whose pairs are all masked (an absent object) is uniform 1/O
    over all O slots, and its first k entries are returned.

    The embeddings are data: the similarity is one product e @ e^T of their
    values, and no gradient flows back to them."""
    e = ad.as_tensor(embeddings).value
    logits = (e @ np.swapaxes(e, -1, -2)) / _TAU_TEXT
    logits = logits + np.where(np.asarray(pair_mask, dtype=bool), 0.0, -1e30)
    k = logits.shape[-1]
    pad = np.full(logits.shape[:-1] + (slots - k,), -1e30)
    w = ad.softmax_lastdim(np.concatenate([logits, pad], axis=-1))
    return ad.Tensor(w.value[..., :k])


def fuse_weights(w_geo, w_text, beta) -> Tensor:
    """W = (1 - sigmoid(beta)) * W_geo + sigmoid(beta) * W_text."""
    lam = ad.sigmoid(ad.as_tensor(beta))
    return ad.add(ad.mul(ad.sub(1.0, lam), w_geo), ad.mul(lam, w_text))


def geometry_alpha(a) -> Tensor:
    """alpha = a / (a + 1), the geometry balance of geo_weights, in [0, 1)
    for the a >= 0 that training's projection keeps."""
    return ad.div(a, ad.add(a, 1.0))


def gated_fuse(x_vis, x_text, w_g, b_g) -> Tensor:
    """g = sigmoid([x_vis; x_text] W_g + b_g); g*x_vis + (1-g)*x_text, with
    W_g (2F, F) and b_g (F,)."""
    x_vis = ad.as_tensor(x_vis)
    x_text = ad.as_tensor(x_text)
    both = ad.concat([x_vis, x_text], axis=-1)
    g = ad.sigmoid(ad.add(ad.matmul(both, w_g), b_g))
    return ad.add(ad.mul(g, x_vis), ad.mul(ad.sub(1.0, g), x_text))


def edge_weight_stack(centers, depths, mask, text_normalized, *,
                      alpha, beta, slots: int) -> Tensor:
    """The fused (..., T, k, k) edge weights of (..., T, k, ...) data:
    fuse_weights of geo_weights over distance_velocity_stacks' normalized
    distance and velocity and of text_weights over its pair mask. ``slots``
    is the width O of the text row softmax (see text_weights)."""
    dbar, vbar, pair = distance_velocity_stacks(centers, depths, mask)
    return fuse_weights(geo_weights(dbar, vbar, alpha),
                        text_weights(text_normalized, pair, slots), beta)
