"""Feature tensors and edge-weight matrices for the risk model.

Embeddings are synthesized from simulator ground truth: object slots carry
a fixed random projection of the kinematic state, text slots carry a fixed
per-label table row, both lightly noised. Slot index 0 of every frame is
the frame-level feature; objects occupy slots 1..S with a per-video stable
assignment (S <= max_objects is the most slots any video of the batch
fills), so frame-to-frame differences are differences of the same
object, not of whichever object happened to sort first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .scenario import BEHAVIOR_LABELS, ScenarioRecord
from .util import stable_u64, stream_rng

# fixed scales that bring each state coordinate to roughly unit range
_STATE_SCALES = np.array([100.0, 100.0, 15.0, math.pi, 3.0, 100.0])
_FEATURE_SEED = 0  # seeds the projections, the label table and the noise
_NOISE_SIGMA = 0.01
_SCALE = 1.0 / 1280.0  # pixel-to-depth balance in the distance
_TAU_TEXT = 0.5


@dataclass
class FeatureBatch:
    """Stacked per-video tensors; slot 0 is the frame-level feature.

    The object axis is S wide, S <= the model's max_objects: build_features
    stores only as many object slots as the batch's fullest video fills, and
    the slots a video does not fill hold +0.0."""

    visual: np.ndarray  # (B, T, 1+S, F)
    text: np.ndarray  # (B, T, 1+S, F)
    mask: np.ndarray  # (B, T, S) bool, object slots only
    centers: np.ndarray  # (B, T, S, 2) pixel centers, zero where absent
    depths: np.ndarray  # (B, T, S) meters, zero where absent
    video_ids: tuple[str, ...]
    labels: np.ndarray  # (B,) int, 1 for accident videos
    accident_frames: np.ndarray  # (B,) 1-based frame index, 0 for negatives

    @property
    def batch_size(self) -> int:
        return self.visual.shape[0]

    @property
    def frames(self) -> int:
        return self.visual.shape[1]

    @property
    def slots(self) -> int:
        return self.visual.shape[2]

    @property
    def objects(self) -> int:
        return self.slots - 1

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


def _slot_of_rows(record: ScenarioRecord, slot_ids: tuple[str, ...]) -> np.ndarray:
    """(n,) the 0-based slot of each object row, -1 for ids not in slot_ids."""
    index = {oid: k for k, oid in enumerate(slot_ids)}
    return np.array([index.get(oid, -1) for oid in record.ids],
                    dtype=np.int64)[record.id_of]


def _visual_projections(feature_dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    shape = (len(_STATE_SCALES), feature_dim)
    return {
        "object": rng.normal(size=shape) / math.sqrt(shape[0]),
        "frame": rng.normal(size=shape) / math.sqrt(shape[0]),
    }


def synth_visual_features(record: ScenarioRecord, feature_dim: int,
                          rng: np.random.Generator, *,
                          projections: dict[str, np.ndarray],
                          slot_ids: tuple[str, ...],
                          noise_sigma: float = _NOISE_SIGMA) -> np.ndarray:
    """(T, 1+len(slot_ids), F) embeddings: slot 0 projects scene aggregates,
    object slots (in slot_ids order) project (x, y, speed, heading, size,
    depth). Deterministic given the generator; the projections are shared
    by the whole dataset."""
    t_count = record.frames
    n_slots = len(slot_ids) + 1
    out = np.zeros((t_count, n_slots, feature_dim))
    filled = np.zeros((t_count, n_slots), dtype=bool)
    env_code = (stable_u64("env", record.environment.weather,
                           record.environment.lighting,
                           record.environment.road_type) % 1000) / 1000.0
    if len(record.states):
        sizes = np.array([object_size(oid) for oid in record.ids])[record.id_of]
        # (n, 6) raw (x, y, speed, heading, size, depth)
        state = np.column_stack([record.states[:, :4], sizes, record.states[:, 6]])
        frame_of = record.frame_of
        slot_of = _slot_of_rows(record, slot_ids) + 1  # 0: not in a slot
        count = np.bincount(frame_of, minlength=t_count)
        seen = count > 0

        def frame_mean(col: int) -> np.ndarray:
            return np.bincount(frame_of, weights=state[:, col],
                               minlength=t_count)[seen] / count[seen]

        agg = np.stack([
            count[seen] / 19.0,
            frame_mean(2) / 15.0,
            frame_mean(5) / 100.0,
            frame_mean(0) / 100.0,
            frame_mean(1) / 100.0,
            np.full(int(seen.sum()), env_code),
        ], axis=1)
        out[seen, 0] = agg @ projections["frame"]
        filled[seen, 0] = True
        slotted = slot_of > 0
        t_idx, k_idx = frame_of[slotted], slot_of[slotted]
        out[t_idx, k_idx] = (state[slotted] / _STATE_SCALES) @ projections["object"]
        filled[t_idx, k_idx] = True
    if noise_sigma > 0:
        out = out + noise_sigma * rng.normal(size=out.shape)
    return out * filled[:, :, None]


@functools.lru_cache(maxsize=256)
def _label_embedding(table_seed: int, label: str, feature_dim: int) -> np.ndarray:
    """One row of the label table; cached across calls, so read-only."""
    v = stream_rng(table_seed, "text-table", label).normal(size=feature_dim)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


def synth_text_features(labels, feature_dim: int, rng: np.random.Generator, *,
                        table_seed: int,
                        noise_sigma: float = _NOISE_SIGMA) -> np.ndarray:
    """(len(labels), F) rows from a fixed unit-norm per-label table plus
    small noise, re-normalized."""
    rows = np.empty((len(labels), feature_dim))
    for i, label in enumerate(labels):
        rows[i] = _label_embedding(table_seed, label, feature_dim)
    if noise_sigma > 0:
        rows = rows + noise_sigma * rng.normal(size=rows.shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def build_features(records, feature_dim: int, max_objects: int) -> FeatureBatch:
    """Stack records into one batch with S = max(1, the most object slots
    any of its videos fills) <= max_objects object slots.

    A video's values depend only on (video, feature_dim, max_objects), never
    on which other videos share the batch; only the width S of the +0.0 tail
    past its own slots does."""
    records = list(records)
    if not records:
        raise ValueError("cannot build features from zero records")
    t_count = records[0].frames
    if any(r.frames != t_count for r in records):
        raise ValueError("all records in a batch must share the frame count")
    slot_ids = [assign_slots(rec, max_objects) for rec in records]
    width = max(1, max(map(len, slot_ids)))
    b = len(records)

    projections = _visual_projections(feature_dim, stream_rng(_FEATURE_SEED, "projections"))
    visual = np.zeros((b, t_count, width + 1, feature_dim))
    text = np.zeros((b, t_count, width + 1, feature_dim))
    mask = np.zeros((b, t_count, width), dtype=bool)
    centers = np.zeros((b, t_count, width, 2))
    depths = np.zeros((b, t_count, width))
    labels = np.zeros(b, dtype=np.int64)
    lam = np.zeros(b, dtype=np.int64)

    for i, (rec, slots) in enumerate(zip(records, slot_ids)):
        vis = synth_visual_features(
            rec, feature_dim, stream_rng(_FEATURE_SEED, "visual", rec.id),
            projections=projections, slot_ids=slots)
        visual[i, :, :vis.shape[1]] = vis

        text_rng = stream_rng(_FEATURE_SEED, "text", rec.id)
        frame_rows = synth_text_features(
            rec.scene_labels, feature_dim, text_rng, table_seed=_FEATURE_SEED)
        text[i, :, 0] = frame_rows
        slot = _slot_of_rows(rec, slots)
        kept = slot >= 0
        t, k = rec.frame_of[kept], slot[kept]
        mask[i, t, k] = True
        centers[i, t, k] = rec.states[kept, 4:6]
        depths[i, t, k] = rec.states[kept, 6]
        if kept.any():
            text[i, t, k + 1] = synth_text_features(
                [BEHAVIOR_LABELS[c] for c in rec.behavior[kept].tolist()],
                feature_dim, text_rng, table_seed=_FEATURE_SEED)
        labels[i] = int(rec.positive)
        lam[i] = rec.accident_frame or 0

    return FeatureBatch(visual, text, mask, centers, depths,
                        tuple(r.id for r in records), labels, lam)


# ---------------------------------------------------------------------------
# edge weights

def pairwise_distance(centers, depths, s: float) -> np.ndarray:
    """d_ij = s^2 * ||c_i - c_j||^2 + |z_i - z_j|^2, elementwise over any
    leading axes; symmetric with an exact zero diagonal."""
    c = np.asarray(centers, dtype=float)
    z = np.asarray(depths, dtype=float)
    diff = c[..., :, None, :] - c[..., None, :, :]
    pix = (diff * diff).sum(axis=-1)
    dz = z[..., :, None] - z[..., None, :]
    return s * s * pix + dz * dz


def _maxabs_normalize(stack: np.ndarray) -> np.ndarray:
    peak = np.abs(stack).max(axis=(-2, -1), keepdims=True)
    return np.divide(stack, peak, out=np.zeros_like(stack), where=peak > 0)


def distance_velocity_stacks(centers, depths, mask, s: float):
    """Raw and per-frame max-abs normalized distance/velocity stacks.

    Entries touching an absent object are zeroed; velocities additionally
    require the pair in both frames. Returns (d, v, dbar, vbar, pair_mask).
    """
    mask = np.asarray(mask, dtype=bool)
    d = pairwise_distance(centers, depths, s)
    pair = mask[..., :, None] & mask[..., None, :]
    d = np.where(pair, d, 0.0)
    v = np.zeros_like(d)
    v[..., 1:, :, :] = d[..., 1:, :, :] - d[..., :-1, :, :]
    both = pair.copy()
    both[..., 1:, :, :] &= pair[..., :-1, :, :]
    both[..., 0, :, :] = False
    v = np.where(both, v, 0.0)
    return d, v, _maxabs_normalize(d), _maxabs_normalize(v), pair


def geo_weights(dbar, vbar, alpha) -> Tensor:
    """W_geo = alpha * exp(-dbar) + (1 - alpha) * vbar."""
    alpha = ad.as_tensor(alpha)
    return ad.add(ad.mul(alpha, np.exp(-np.asarray(dbar, dtype=float))),
                  ad.mul(ad.sub(1.0, alpha), np.asarray(vbar, dtype=float)))


def text_weights(embeddings, tau_text: float, pair_mask=None, slots=None) -> Tensor:
    """Row softmax over cosine similarity / tau; masked pairs contribute
    exactly zero. Expects unit-normalized embeddings (..., k, F) and returns
    (..., k, k) weights.

    ``slots`` (default k) is the width O of the row softmax: the columns
    k..O-1 past the embeddings are masked pairs of absent slots, as at full
    width. So a row whose pairs are all masked (an absent object) is uniform
    1/O over all O slots, and its first k entries are returned.

    The embeddings are data: the similarity is one product e @ e^T of their
    values, and no gradient flows back to them."""
    if tau_text <= 0:
        raise ValueError("tau_text must be positive")
    e = ad.as_tensor(embeddings).value
    logits = (e @ np.swapaxes(e, -1, -2)) / tau_text
    if pair_mask is not None:
        logits = logits + np.where(np.asarray(pair_mask, dtype=bool), 0.0, -1e30)
    k = logits.shape[-1]
    slots = k if slots is None else slots
    pad = np.full(logits.shape[:-1] + (slots - k,), -1e30)
    w = ad.softmax_lastdim(np.concatenate([logits, pad], axis=-1))
    return ad.constant(w.value[..., :k])


def fuse_weights(w_geo, w_text, beta) -> Tensor:
    """W = (1 - sigmoid(beta)) * W_geo + sigmoid(beta) * W_text."""
    lam = ad.sigmoid(ad.as_tensor(beta))
    return ad.add(ad.mul(ad.sub(1.0, lam), w_geo), ad.mul(lam, w_text))


@dataclass
class GeometryParams:
    a: Parameter  # balance, kept >= 0 by the optimizer projection

    @property
    def alpha(self) -> Tensor:
        return ad.div(self.a, ad.add(self.a, 1.0))

    @classmethod
    def init(cls, a0: float = 1.0) -> "GeometryParams":
        return cls(Parameter(a0, name="geom.a"))


@dataclass
class FusionGate:
    """Gate parameters: W_g, b_g drive the embedding gate, beta (where
    present) drives the geometry/text weight mix."""

    w_g: Parameter  # (2F, F)
    b_g: Parameter  # (F,)
    beta: Parameter | None = None

    @classmethod
    def init(cls, feature_dim: int, rng: np.random.Generator, prefix: str,
             with_beta: bool = False) -> "FusionGate":
        w = rng.normal(size=(2 * feature_dim, feature_dim)) / math.sqrt(2 * feature_dim)
        beta = Parameter(0.0, name=f"{prefix}.beta") if with_beta else None
        return cls(Parameter(w, name=f"{prefix}.w_g"),
                   Parameter(np.zeros(feature_dim), name=f"{prefix}.b_g"),
                   beta)


def gated_fuse(x_vis, x_text, gate: FusionGate) -> Tensor:
    """g = sigmoid([x_vis; x_text] W_g + b_g); g*x_vis + (1-g)*x_text."""
    x_vis = ad.as_tensor(x_vis)
    x_text = ad.as_tensor(x_text)
    both = ad.concat([x_vis, x_text], axis=-1)
    g = ad.sigmoid(ad.add(ad.matmul(both, gate.w_g), gate.b_g))
    return ad.add(ad.mul(g, x_vis), ad.mul(ad.sub(1.0, g), x_text))


@dataclass
class EdgeWeightStack:
    w_geo: Tensor
    w_text: Tensor
    w: Tensor


def edge_weight_stack(centers, depths, mask, text_normalized, *,
                      alpha, beta, slots=None) -> EdgeWeightStack:
    """Full geometry/text/fused weight pipeline over (..., T, k, ...) data.
    ``slots`` is the width O of the text row softmax (see text_weights)."""
    _, _, dbar, vbar, pair = distance_velocity_stacks(centers, depths, mask, _SCALE)
    w_geo = geo_weights(dbar, vbar, alpha)
    w_text = text_weights(text_normalized, _TAU_TEXT, pair, slots)
    w = fuse_weights(w_geo, w_text, beta)
    return EdgeWeightStack(w_geo, w_text, w)
