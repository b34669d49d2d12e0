"""Training loop (adaptive-moment SGD with gradient clipping) and the
evaluation stack: risk curves, and from them one report (report_from_curves)
of threshold triggers, time-to-accident, average precision, and the
threshold-averaged mean TTA. TrainConfig and TrainingDivergedError live in
crashcast.config and are imported here under their old names.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .config import TrainConfig, TrainingDivergedError
from .features import FeatureBatch, build_features, stack
from .losses import align_loss, frame_loss, total_loss, video_loss
from .riskmodel import ModelConfig, ModelParams, align_project, forward, used_slots
from .util import map_in_order, stable_u64, stream_rng


# Adam's moment decays and denominator guard, and the global gradient-norm cap
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CLIP_NORM = 5.0
# records per build_features call when train builds its videos, and per
# forward batch when eval scores them
FEATURE_CHUNK = 32
EVAL_CHUNK = 8


class Adam:
    """Adaptive moment estimation over a fixed parameter tuple."""

    def __init__(self, params, lr=1e-3):
        self.params = tuple(params)
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {"opt.step": np.array(float(self.t))}
        for name in self.m:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Continue from the opt.* tensors of state (a whole checkpoint will
        do), the one check of a valid optimizer state: each tensor present
        at the shape state_dict writes, no negative second moment (step
        takes its root) and opt.step a whole number >= 0. A missing tensor
        raises KeyError, any other fault ValueError, each naming the tensor
        and loading nothing."""
        for key, own in self.state_dict().items():
            if key not in state:
                raise KeyError(f"optimizer state lacks the {key} tensor")
            if state[key].shape != own.shape:
                raise ValueError(f"optimizer state {key} has shape "
                                 f"{state[key].shape}, expected {own.shape}")
            if key.startswith("opt.v.") and (state[key] < 0).any():
                raise ValueError(f"optimizer state {key} holds a negative value")
        step = float(state["opt.step"])
        if not (step >= 0 and step.is_integer()):
            raise ValueError(f"optimizer state opt.step is {step!r}, "
                             f"expected a whole number >= 0")
        self.t = int(step)
        for name in self.m:
            self.m[name][...] = state[f"opt.m.{name}"]
            self.v[name][...] = state[f"opt.v.{name}"]


def clip_gradients(params) -> float:
    """Scale all gradients together so their global L2 norm is at most
    CLIP_NORM; returns the pre-clip norm, inf when it overflows (which
    train refuses)."""
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            total += float((p.grad * p.grad).sum())
    total = float(np.sqrt(total))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for p in params:
            p.grad *= scale
    return total


def split_dataset(records):
    """Deterministic 75/25 train/test split keyed on the scenario id hash,
    independent of record order."""
    train, test = [], []
    for rec in records:
        (test if stable_u64("split", rec.id) % 4 == 0 else train).append(rec)
    return train, test


def _batch_losses(fb: FeatureBatch, params: ModelParams, model_cfg: ModelConfig,
                  frames: int, fps: int):
    logits = forward(fb, params, model_cfg).logits
    l1 = frame_loss(logits, fb.labels, fb.accident_frames, fps)
    l2 = video_loss(logits, fb.labels, fb.accident_frames)
    l3 = align_loss(align_project(params, fb.visual[:, :, 0]),
                    align_project(params, fb.text[:, :, 0]))
    return l1, l2, l3, total_loss(l1, l2, l3, float(frames))


@dataclass
class TrainResult:
    log: list[dict]  # rows: step, epoch, split, L1, L2, L3, L
    opt_state: dict[str, np.ndarray]
    final_loss: float


def train(records, params: ModelParams, model_cfg: ModelConfig,
          train_cfg: TrainConfig, *, val_records=None, start_epoch: int = 0,
          opt: Adam | None = None) -> TrainResult:
    """Minimize the total loss over the records, updating params in place;
    deterministic given the seed (the per-epoch shuffle is derived from
    (seed, epoch), so resuming at an epoch boundary replays the
    uninterrupted schedule). The training records' frame count and rate set
    the loss for validation too. opt is the optimizer over params to
    continue (a resumed run's); a fresh one at the learning rate by default.

    The features of every training and validation video are built once
    (see _video_batches), as one batch per video at that video's own slot
    width, and each step stacks its videos into one batch (see
    features.stack)."""
    records = list(records)
    if not records:
        raise ValueError("training set is empty")
    frames, fps = records[0].frames, records[0].fps
    videos = _video_batches(records, model_cfg)
    val_videos = _video_batches(val_records or (), model_cfg)
    if opt is None:
        opt = Adam(params.parameters(), train_cfg.learning_rate)
    n = len(records)
    rows: list[dict] = []
    step = opt.t
    last = float("nan")
    try:
        with np.errstate(over="raise"):
            for epoch in range(start_epoch, train_cfg.epochs):
                order = stream_rng(train_cfg.seed, "epoch", epoch).permutation(n)
                for lo in range(0, n, train_cfg.batch_size):
                    step += 1
                    batch = stack(videos[i]
                                  for i in order[lo:lo + train_cfg.batch_size])
                    for p in params.parameters():
                        p.zero_grad()
                    with Tape() as tape:
                        l1, l2, l3, loss = _batch_losses(batch, params, model_cfg,
                                                         frames, fps)
                        values = (l1.item(), l2.item(), l3.item(), loss.item())
                        if not all(np.isfinite(values)):
                            raise TrainingDivergedError(
                                f"non-finite loss at step {step} (epoch {epoch}): "
                                f"L1={values[0]} L2={values[1]} L3={values[2]} "
                                f"L={values[3]}")
                        tape.backward(loss)
                    norm = clip_gradients(params.parameters())
                    if not np.isfinite(norm):
                        # Adam would write it into every parameter; stop before that
                        raise TrainingDivergedError(
                            f"non-finite gradient norm at step {step} "
                            f"(epoch {epoch}): {norm}")
                    opt.step()
                    # the geometry balance stays nonnegative so alpha stays in [0, 1)
                    np.maximum(params.geom_a.value, 0.0, out=params.geom_a.value)
                    last = values[3]
                    rows.append({"step": step, "epoch": epoch, "split": "train",
                                 "L1": values[0], "L2": values[1],
                                 "L3": values[2], "L": values[3]})
                if val_videos:
                    l1, l2, l3 = _validation_losses(val_videos, params, model_cfg,
                                                    train_cfg.batch_size, frames,
                                                    fps)
                    rows.append({"step": step, "epoch": epoch, "split": "val",
                                 "L1": l1, "L2": l2, "L3": l3,
                                 "L": total_loss(l1, l2, l3, float(frames)).item()})
    except FloatingPointError as exc:
        # a huge but finite weight or Adam moment (a resumed checkpoint can
        # hold one) can overflow in a pass yet leave the loss and norm finite
        raise TrainingDivergedError(f"{exc} at step {step} (epoch {epoch})") from exc
    return TrainResult(rows, opt.state_dict(), last)


def _video_batches(records, model_cfg: ModelConfig) -> list[FeatureBatch]:
    """One batch per record at its own slot width, byte for byte
    build_features([rec]), from one build_features call per FEATURE_CHUNK
    records: a video's values do not depend on the batch, and its slots past
    used_slots of its mask are the chunk's +0.0 padding, which the cut
    drops. Each cut is a copy, so no chunk-wide array outlives its chunk."""
    videos = []
    for chunk in _chunks(records, FEATURE_CHUNK):
        fb = build_features(chunk, model_cfg.feature_dim, model_cfg.max_objects)
        for i in range(len(chunk)):
            one = slice(i, i + 1)
            k = used_slots(fb.mask[one])
            videos.append(FeatureBatch(
                *(arr[one, :, :k + 1].copy() for arr in (fb.visual, fb.text)),
                *(arr[one, :, :k].copy() for arr in (fb.mask, fb.centers, fb.depths)),
                fb.labels[one].copy(), fb.accident_frames[one].copy()))
    return videos


def _validation_losses(videos: list[FeatureBatch], params: ModelParams,
                       model_cfg: ModelConfig, batch_size: int, frames: int,
                       fps: int) -> tuple[float, float, float]:
    """L1, L2 and L3 over the validation videos (one batch each), scored in
    chunks of batch_size in record order and averaged weighted by each
    chunk's video count. L3 is thus the per-batch InfoNCE the train rows
    log, and the alignment matrices stay (batch_size * T)^2 however large
    the set."""
    count = len(videos)
    sums = np.zeros(3)
    for lo in range(0, count, batch_size):
        chunk = videos[lo:lo + batch_size]
        l1, l2, l3, _ = _batch_losses(stack(chunk), params, model_cfg,
                                      frames, fps)
        sums += len(chunk) * np.array([l1.item(), l2.item(), l3.item()])
    l1, l2, l3 = sums / count
    return float(l1), float(l2), float(l3)


# ---------------------------------------------------------------------------
# evaluation

def first_crossings(curves, deltas) -> np.ndarray:
    """(B, D) trigger frames: entry [b, k] is the smallest 1-based m < T
    with curves[b, m-1] >= deltas[k], or 0 when curve b never reaches
    deltas[k] before its final frame. NaN risk never triggers."""
    head = np.asarray(curves, dtype=float)[:, :-1]
    deltas = np.asarray(deltas, dtype=float)
    # running max of each curve with NaN read as -inf: nondecreasing, so the
    # first crossing of delta is the number of entries still below it, which
    # a binary search counts without a (B, T - 1, D) comparison
    peak = np.where(np.isnan(head), -np.inf, head)
    np.maximum.accumulate(peak, axis=1, out=peak)
    out = np.empty((len(head), len(deltas)), dtype=np.int64)
    for row, curve_peak in zip(out, peak):
        row[:] = np.searchsorted(curve_peak, deltas, side="left")
    out += 1
    out[out > head.shape[1]] = 0
    return out


def video_score(curve, label: int, accident_frame: int) -> float:
    """Max risk over frames strictly before the accident for positives
    (post-accident evidence must not count), over all frames otherwise."""
    curve = np.asarray(curve, dtype=float)
    if label == 1:
        cut = curve[:max(0, accident_frame - 1)]
        return float(cut.max()) if cut.size else 0.0
    return float(curve.max())


def average_precision(scores, labels) -> float:
    """Area under the precision-recall curve by step interpolation, with
    thresholds at distinct score values (ties form one block)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = int(labels.sum())
    if pos == 0 or pos == len(labels):
        raise ValueError("average precision needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    tp = np.cumsum(y)
    k = np.arange(1, len(s) + 1)
    block_end = np.append(s[1:] != s[:-1], True)
    prec = tp[block_end] / k[block_end]
    rec = tp[block_end] / pos
    return float(np.sum(np.diff(np.concatenate([[0.0], rec])) * prec))


_MTTA_GRID = np.arange(1, 100) / 100.0


def report_from_curves(curves, ids, labels, accident_frames, fps: int,
                       threshold: float) -> dict:
    """The report.json object of (B, T) risk curves, each video given by its
    id, label (1 positive) and accident frame. A video triggers at delta on
    the smallest 1-based frame m < T with curve[m-1] >= delta (see
    first_crossings); a positive that triggers has a TTA of
    max(0, (accident frame - m) / fps) seconds, and negatives have none.
    ``ap`` is the average precision of the video scores (see video_score);
    ``videos`` holds each video's score, trigger and TTA at ``threshold``;
    ``sweep`` holds, per threshold of the grid {0.01..0.99}, the count of
    positives that trigger and their mean TTA (0 when none does); and
    ``mtta`` is the mean of the sweep's mean TTAs over the grid points where
    some positive triggers, 0 when none ever does."""
    labels = np.asarray(labels, dtype=int)
    lams = np.asarray(accident_frames).astype(np.int64)
    scores = [video_score(curve, y, lam)
              for curve, y, lam in zip(curves, labels, lams)]
    # one trigger table: the grid's columns, then the report threshold's
    m = first_crossings(curves, np.append(_MTTA_GRID, threshold))
    # in float64, exact for frame counts, so no integer table is held beside it
    secs = np.subtract(lams[:, None], m, dtype=float)
    secs /= fps
    np.maximum(secs, 0.0, out=secs)
    hit = (m > 0) & (labels == 1)[:, None]
    grid_ttas = [secs[hit[:, k], k] for k in range(len(_MTTA_GRID))]
    grid_means = [float(np.mean(t)) for t in grid_ttas if t.size]
    return {
        "ap": average_precision(scores, labels),
        "mtta": float(np.mean(grid_means)) if grid_means else 0.0,
        "threshold": threshold,
        "sweep": [{"delta": round(float(delta), 2),
                   "triggered": int(t.size),
                   "mean_tta": float(np.mean(t)) if t.size else 0.0}
                  for delta, t in zip(_MTTA_GRID, grid_ttas)],
        "videos": [{"id": video_id, "label": int(labels[i]), "score": scores[i],
                    "trigger": int(m[i, -1]) or None,
                    "tta_seconds": float(secs[i, -1]) if hit[i, -1] else None}
                   for i, video_id in enumerate(ids)],
    }


def _chunks(records, size: int):
    """Lists of up to size consecutive records, each drawn from the
    iterable only when it is asked for."""
    records = iter(records)
    while chunk := list(itertools.islice(records, size)):
        yield chunk


def _chunk_risk(params: ModelParams, model_cfg: ModelConfig, videos) -> np.ndarray:
    """(b, T) risk curves of one chunk, at module level so that it pickles."""
    fb = build_features(videos, model_cfg.feature_dim, model_cfg.max_objects)
    return forward(fb, params, model_cfg).risk.value


def risk_curves(records, params: ModelParams, model_cfg: ModelConfig,
                jobs: int = 1) -> np.ndarray:
    """(B, T) risk curves, computed in chunks of at most EVAL_CHUNK records
    drawn from the iterable as they are scored, so only the chunks in
    flight are held (one with jobs 1; see util.map_in_order). A chunk is
    one forward batch, so the chunk size bounds the forward's (b, T, O, O)
    graph temporaries. Features are per-record deterministic, so a chunk's
    contents move a video's values only in the last bits: a batch of
    another size can take another BLAS path, and the forward runs at the
    chunk's width k (the object slots its videos use), which changes
    summation order. Measured on 128 videos against chunks of 8, chunks of
    1, 2 and 3 moved bits (a 1-, 2- or 3-row product need not equal the
    same rows of a taller one) and chunks of 4 or more did not; the
    trailing chunk is that short whenever B mod EVAL_CHUNK is 1, 2 or 3.

    ``jobs`` > 1 scores chunks on at most that many worker processes, each
    sent the model with its chunk; the records are still decoded here.
    Results are merged in chunk order, so the output bytes never depend on
    the worker count.
    """
    score = functools.partial(_chunk_risk, params, model_cfg)
    chunks = _chunks(records, EVAL_CHUNK)
    return np.concatenate(list(map_in_order(score, chunks, jobs)))


def evaluate(records, params: ModelParams, model_cfg: ModelConfig, *,
             threshold: float = 0.5, jobs: int = 1) -> tuple[dict, np.ndarray]:
    """The report of the records' risk curves (see report_from_curves) and
    the curves themselves, for export (see risk_curves).

    The records may be any iterable; it is drawn once, here, in the chunks
    that risk_curves scores (on worker processes with jobs > 1), and of
    each video only its id, label, accident frame and curve are kept. The
    frame rate is the first record's."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    records = iter(records)
    first = next(records, None)
    if first is None:
        raise ValueError("evaluation set is empty")
    ids, labels, lams = [], [], []

    def noted(records):
        for rec in records:
            ids.append(rec.id)
            labels.append(int(rec.positive))
            lams.append(rec.accident_frame or 0)
            yield rec

    curves = risk_curves(noted(itertools.chain([first], records)), params,
                         model_cfg, jobs=jobs)
    return report_from_curves(curves, ids, labels, lams, first.fps, threshold), curves
