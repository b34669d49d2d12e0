"""Training loop (adaptive-moment SGD with gradient clipping) and the
evaluation stack: risk curves, threshold triggers, time-to-accident, average
precision, and the threshold-averaged mean TTA.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape
from .features import FeatureBatch, build_features
from .losses import LabeledBatch, align_loss, frame_loss, total_loss, video_loss
from .riskmodel import ModelConfig, ModelParams, align_project, forward
from .util import stable_u64, stream_rng


class TrainingDivergedError(RuntimeError):
    pass


# Adam's moment decays and denominator guard, and the global gradient-norm cap
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CLIP_NORM = 5.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs >= 0, batch_size >= 1")


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
        self.t = int(np.asarray(state["opt.step"]))
        for name in self.m:
            self.m[name][...] = state[f"opt.m.{name}"]
            self.v[name][...] = state[f"opt.v.{name}"]


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients together so their global L2 norm is at most
    max_norm; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    total = float(np.sqrt(total))
    if total > max_norm:
        scale = max_norm / total
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


def _subset(fb: FeatureBatch, idx) -> FeatureBatch:
    return FeatureBatch(fb.visual[idx], fb.text[idx], fb.mask[idx],
                        fb.centers[idx], fb.depths[idx],
                        tuple(fb.video_ids[i] for i in idx),
                        fb.labels[idx], fb.accident_frames[idx])


def _batch_losses(fb: FeatureBatch, params: ModelParams, model_cfg: ModelConfig,
                  frames: int, fps: int):
    out = forward(fb, params, model_cfg)
    labeled = LabeledBatch(out.logits, fb.labels, fb.accident_frames)
    l1 = frame_loss(labeled, fps)
    l2 = video_loss(labeled)
    l3 = align_loss(align_project(params, fb.visual[:, :, 0]),
                    align_project(params, fb.text[:, :, 0]))
    return l1, l2, l3, total_loss(l1, l2, l3, float(frames))


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict]  # rows: step, epoch, split, L1, L2, L3, L
    opt_state: dict[str, np.ndarray]
    final_loss: float


def train(records, params: ModelParams, model_cfg: ModelConfig,
          train_cfg: TrainConfig, *, val_records=None, start_epoch: int = 0,
          opt_state: dict | None = None) -> TrainResult:
    """Minimize the total loss over the records; deterministic given the
    seed (the per-epoch shuffle is derived from (seed, epoch), so resuming
    at an epoch boundary replays the uninterrupted schedule). The training
    records' frame count and rate set the loss for validation too."""
    records = list(records)
    if not records:
        raise ValueError("training set is empty")
    frames, fps = records[0].frames, records[0].fps
    shape = (model_cfg.feature_dim, model_cfg.max_objects)
    fb = build_features(records, *shape)
    val_fb = build_features(val_records, *shape) if val_records else None
    opt = Adam(params.parameters(), train_cfg.learning_rate)
    if opt_state is not None:
        opt.load_state_dict(opt_state)
    n = len(records)
    rows: list[dict] = []
    step = opt.t
    last = float("nan")
    for epoch in range(start_epoch, train_cfg.epochs):
        order = stream_rng(train_cfg.seed, "epoch", epoch).permutation(n)
        for lo in range(0, n, train_cfg.batch_size):
            idx = order[lo:lo + train_cfg.batch_size]
            sub = _subset(fb, idx)
            for p in params.parameters():
                p.zero_grad()
            with Tape() as tape:
                l1, l2, l3, loss = _batch_losses(sub, params, model_cfg,
                                                 frames, fps)
                values = (l1.item(), l2.item(), l3.item(), loss.item())
                if not all(np.isfinite(values)):
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step + 1} (epoch {epoch}): "
                        f"L1={values[0]} L2={values[1]} L3={values[2]} L={values[3]}")
                tape.backward(loss)
            norm = clip_gradients(params.parameters(), CLIP_NORM)
            if not np.isfinite(norm):
                # Adam would write it into every parameter; stop before that
                raise TrainingDivergedError(
                    f"non-finite gradient norm at step {step + 1} "
                    f"(epoch {epoch}): {norm}")
            opt.step()
            # the geometry balance stays nonnegative so alpha stays in [0, 1)
            np.maximum(params.geometry.a.value, 0.0,
                       out=params.geometry.a.value)
            step += 1
            last = values[3]
            rows.append({"step": step, "epoch": epoch, "split": "train",
                         "L1": values[0], "L2": values[1], "L3": values[2],
                         "L": values[3]})
        if val_fb is not None:
            l1, l2, l3, loss = _batch_losses(val_fb, params, model_cfg,
                                             frames, fps)
            rows.append({"step": step, "epoch": epoch, "split": "val",
                         "L1": l1.item(), "L2": l2.item(), "L3": l3.item(),
                         "L": loss.item()})
    return TrainResult(params, rows, opt.state_dict(), last)


# ---------------------------------------------------------------------------
# evaluation

def first_crossings(curves, deltas) -> np.ndarray:
    """(B, D) trigger frames: entry [b, k] is the smallest 1-based m < T
    with curves[b, m-1] >= deltas[k], or 0 when curve b never reaches
    deltas[k] before its final frame. NaN risk never triggers."""
    head = np.asarray(curves, dtype=float)[:, :-1]
    deltas = np.asarray(deltas, dtype=float)
    # running max of each curve with NaN read as -inf: nondecreasing, so the
    # first crossing of delta is the number of entries still below it
    peak = np.maximum.accumulate(np.where(np.isnan(head), -np.inf, head), axis=1)
    below = (peak[:, :, None] < deltas).sum(axis=1)
    return np.where(below < head.shape[1], below + 1, 0)


def trigger_frame(curve, delta: float) -> int | None:
    """Smallest 1-based m with u_m >= delta and m < T; None when the curve
    never crosses before the final frame."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {delta}")
    m = int(first_crossings([curve], [delta])[0, 0])
    return m or None


def tta(trigger: int, accident_frame: int, fps: int) -> float:
    """Seconds of anticipation, clipped at zero for late triggers."""
    return max(0.0, (accident_frame - trigger) / fps)


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


def _grid_ttas(curves, labels, accident_frames, fps) -> list[np.ndarray]:
    """Per threshold of the mTTA grid, the TTA seconds of the positives
    that trigger there, in video order."""
    pos = np.asarray(labels, dtype=int) == 1
    if not pos.any():
        return [np.empty(0)] * len(_MTTA_GRID)
    lams = np.asarray(accident_frames)[pos].astype(np.int64)
    m = first_crossings(np.asarray(curves, dtype=float)[pos], _MTTA_GRID)
    secs = np.maximum(0.0, (lams[:, None] - m) / fps)  # tta() per entry
    return [secs[m[:, k] > 0, k] for k in range(len(_MTTA_GRID))]


def _mean_of_grid(grid_ttas) -> float:
    grid_means = [float(np.mean(t)) for t in grid_ttas if t.size]
    return float(np.mean(grid_means)) if grid_means else 0.0


def mtta(curves, labels, accident_frames, fps: int) -> float:
    """Mean over the threshold grid {0.01..0.99} of the mean TTA across
    positives that trigger at that threshold; grid points with no trigger
    are skipped, and the result is 0 when nothing ever triggers."""
    return _mean_of_grid(_grid_ttas(curves, labels, accident_frames, fps))


@dataclass
class VideoEval:
    id: str
    label: int
    score: float
    trigger: int | None
    tta_seconds: float | None


@dataclass
class EvalReport:
    ap: float
    mtta: float
    threshold: float
    videos: list[VideoEval]
    sweep: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "mtta": self.mtta,
            "threshold": self.threshold,
            "sweep": self.sweep,
            "videos": [{"id": v.id, "label": v.label, "score": v.score,
                        "trigger": v.trigger, "tta_seconds": v.tta_seconds}
                       for v in self.videos],
        }


def risk_curves(records, params: ModelParams, model_cfg: ModelConfig,
                chunk: int = 32, jobs: int = 1) -> np.ndarray:
    """(B, T) risk curves, computed in fixed-size chunks. Features are
    per-record deterministic, so the chunk size moves values only in the
    last bits (a batch of another size can take another BLAS path).

    ``jobs`` > 1 runs the same chunks on a thread pool. Results are merged
    in chunk order, so the output bytes never depend on the worker count.
    """
    records = list(records)
    spans = [(lo, min(lo + chunk, len(records)))
             for lo in range(0, len(records), chunk)]

    def one(span):
        fb = build_features(records[span[0]:span[1]], model_cfg.feature_dim,
                            model_cfg.max_objects)
        return forward(fb, params, model_cfg).risk.value

    if jobs <= 1 or len(spans) <= 1:
        out = [one(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            out = list(pool.map(one, spans))
    return np.concatenate(out, axis=0)


def evaluate(records, params: ModelParams, model_cfg: ModelConfig, *,
             threshold: float = 0.5, jobs: int = 1) -> tuple[EvalReport, np.ndarray]:
    """Full evaluation: AP over video scores, grid mTTA, per-video triggers
    at the report threshold, and the threshold sweep table. Returns the
    report plus the raw risk curves for export."""
    records = list(records)
    if not records:
        raise ValueError("evaluation set is empty")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    fps = records[0].fps
    curves = risk_curves(records, params, model_cfg, jobs=jobs)
    labels = np.array([int(r.positive) for r in records])
    lams = np.array([r.accident_frame or 0 for r in records])

    scores = np.array([video_score(curves[i], labels[i], lams[i])
                       for i in range(len(records))])
    ap = average_precision(scores, labels)
    grid_ttas = _grid_ttas(curves, labels, lams, fps)

    videos = []
    for i, rec in enumerate(records):
        m = trigger_frame(curves[i], threshold)
        t_sec = tta(m, int(lams[i]), fps) if (labels[i] == 1 and m is not None) else None
        videos.append(VideoEval(rec.id, int(labels[i]), float(scores[i]),
                                m, t_sec))

    sweep = [{"delta": round(float(delta), 2),
              "triggered": int(t.size),
              "mean_tta": float(np.mean(t)) if t.size else 0.0}
             for delta, t in zip(_MTTA_GRID, grid_ttas)]
    report = EvalReport(ap, _mean_of_grid(grid_ttas), threshold, videos, sweep)
    return report, curves
