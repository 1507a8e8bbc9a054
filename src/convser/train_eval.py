"""Training and evaluation: ADAM optimization, 70/30 shuffle validation,
the 48-run hyper-parameter grid, and the confusion-matrix metrics suite.

"Three-fold cross-validation" here means three independent random 70/30
shuffles (Monte Carlo CV): each fold reshuffles the whole corpus, trains a
fresh model, and the reported metrics are the arithmetic mean over folds.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .audio_io import DatasetManifest
from .exceptions import ParameterError
from .neural_net import (
    GRID_FILTERS,
    GRID_KERNELS,
    GRID_LSTM_UNITS,
    GRID_WIDTHS,
    ModelConfig,
    ModelParams,
    bce_from_logit,
    init_params,
    model_backward,
    model_forward,
)
from .seeding import derive_seed, rng_for

SPLIT_MODES = ("paper", "grouped")
MODEL_SELECTIONS = ("final_epoch", "best_val")
# Each batch gradient is rescaled to this global L2 norm when it is larger: a
# guard against the exploding-gradient cliffs of backpropagation through time,
# which ADAM's momentum turns into loss spikes.
GRAD_CLIP_NORM = 1.0
# The tensors ADAM updates. The shared convolution bias sums its gradient over
# every (batch, frame, coefficient) position and carries most of each spike; it
# is left out and keeps its zero initialisation.
TRAINED_TENSORS = tuple(name for name in ModelParams.TENSOR_NAMES if name != "conv_b")


@dataclass
class TrainConfig:
    epochs: int = 250
    batch_size: int = 16
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    split_ratio: float = 0.7
    n_shuffles: int = 3
    split_mode: str = "paper"
    seed: int = 0
    model_selection: str = "final_epoch"
    dtype: str = "float32"

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ParameterError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if self.epochs < 1 or self.batch_size < 1 or self.n_shuffles < 1:
            raise ParameterError("epochs, batch_size, and n_shuffles must be >= 1")
        if self.split_mode not in SPLIT_MODES:
            raise ParameterError(f"split_mode {self.split_mode!r} not in {SPLIT_MODES}")
        if self.model_selection not in MODEL_SELECTIONS:
            raise ParameterError(
                f"model_selection {self.model_selection!r} not in {MODEL_SELECTIONS}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ParameterError(f"dtype must be float32 or float64, got {self.dtype!r}")


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricsReport:
    """accuracy/precision/sensitivity/f1 in [0, 1]; None marks an undefined
    ratio (zero denominator), reported as "n/a" and excluded from averages."""

    accuracy: float
    precision: float | None
    sensitivity: float | None
    f1: float | None

    def as_dict(self) -> dict:
        return asdict(self)


# --- ADAM ---------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(val) for k, val in params.items()},
            v={k: np.zeros_like(val) for k, val in params.items()},
        )


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig):
    """One ADAM update of the named tensors in params, in place: moment
    updates, bias correction, then
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). Returns (params, state)."""
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    state.t += 1
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    for name, theta in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        theta -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)
    return params, state


def clip_global_norm(grads: dict, max_norm: float) -> None:
    """Scale every gradient tensor in place by max_norm / ||g|| when the global
    L2 norm ||g|| over all of them exceeds max_norm. The norm is a float64
    pairwise sum, so it does not depend on the BLAS thread count.

    train_model passes the gradients of all tensors, conv_b's included, though
    conv_b is never updated. That is on purpose: conv_b's gradient carries most
    of each exploding-gradient spike, so counting it in the norm shrinks the
    update of the trained tensors on exactly the batches where it spikes."""
    norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


# --- Dataset splitting ----------------------------------------------------------


def split_dataset(manifest: DatasetManifest, ratio: float, mode: str = "paper",
                  seed: int = 0):
    """Shuffle and split into (train ids, validation ids).

    paper mode shuffles every record independently (augmented variants may
    land on either side); grouped mode shuffles group_ids and assigns whole
    groups to the training side until it holds >= ratio of the records, so no
    group ever straddles the split.
    """
    n = len(manifest)
    if n < 2:
        raise ParameterError(f"cannot split {n} record(s)")
    if mode not in SPLIT_MODES:
        raise ParameterError(f"split mode {mode!r} not in {SPLIT_MODES}")
    rng = np.random.default_rng(seed)
    ids = [rec.id for rec in manifest.records]

    if mode == "paper":
        perm = rng.permutation(n)
        n_train = min(max(int(round(n * ratio)), 1), n - 1)
        train = [ids[i] for i in perm[:n_train]]
        val = [ids[i] for i in perm[n_train:]]
        return train, val

    groups = {}
    for rec in manifest.records:
        groups.setdefault(rec.group_id, []).append(rec.id)
    keys = sorted(groups)
    if len(keys) < 2:
        raise ParameterError("grouped split needs at least two group_ids")
    order = rng.permutation(len(keys))
    target = ratio * n
    train, val, taken = [], [], 0
    train_group_sizes = []
    for idx in order:
        members = groups[keys[idx]]
        if taken < target:
            train.extend(members)
            train_group_sizes.append(len(members))
            taken += len(members)
        else:
            val.extend(members)
    if not val:
        # every group landed in train; give the last one back to validation
        last = train_group_sizes[-1]
        val = train[-last:]
        train = train[:-last]
    return train, val


# --- Metrics --------------------------------------------------------------------


def confusion(predictions, labels) -> ConfusionCounts:
    """Count TP/FP/TN/FN with class 1 (conviction represented) as positive."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ParameterError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise ParameterError("need at least one prediction")
    counts = ConfusionCounts()
    for p, y in zip(predictions, labels):
        if p not in (0, 1) or y not in (0, 1):
            raise ParameterError(f"labels must be 0 or 1, got prediction {p!r} label {y!r}")
        if y == 1:
            counts.tp += p
            counts.fn += 1 - p
        else:
            counts.fp += p
            counts.tn += 1 - p
    return counts


def metrics(counts: ConfusionCounts) -> MetricsReport:
    """accuracy = (tp+tn)/total, precision = tp/(tp+fp),
    sensitivity = tp/(tp+fn), f1 = harmonic mean of the last two."""
    total = counts.total
    if total <= 0:
        raise ParameterError("no samples counted")
    accuracy = (counts.tp + counts.tn) / total
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else None
    sensitivity = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else None
    if precision is None or sensitivity is None:
        f1 = None
    elif precision + sensitivity == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return MetricsReport(accuracy=accuracy, precision=precision, sensitivity=sensitivity, f1=f1)


METRIC_NAMES = ("accuracy", "precision", "sensitivity", "f1")


def average_metrics(reports) -> tuple[MetricsReport, dict]:
    """Arithmetic mean per metric over folds; undefined values are excluded
    and the per-metric exclusion count is returned alongside."""
    averaged = {}
    excluded = {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in reports]
        defined = [v for v in values if v is not None]
        excluded[name] = len(values) - len(defined)
        averaged[name] = sum(defined) / len(defined) if defined else None
    return MetricsReport(**averaged), excluded


# --- Training --------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    history: dict
    metrics: MetricsReport
    counts: ConfusionCounts
    train_ids: list
    val_ids: list
    seed: int
    selected_epoch: int
    wall_time_s: float


@dataclass
class RunReport:
    model_id: str
    model_config: ModelConfig
    train_config: TrainConfig
    fold_seeds: list
    fold_metrics: list
    fold_counts: list
    averaged: MetricsReport
    excluded: dict
    histories: list
    wall_time_s: float
    folds: list = field(default=None, repr=False)  # TrainResults; not serialized

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "model_config": asdict(self.model_config),
            "train_config": asdict(self.train_config),
            "fold_seeds": self.fold_seeds,
            "fold_metrics": [m.as_dict() for m in self.fold_metrics],
            "fold_counts": [asdict(c) for c in self.fold_counts],
            "averaged": self.averaged.as_dict(),
            "excluded": self.excluded,
            "histories": self.histories,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class GridFailure:
    model_id: str
    model_config: ModelConfig
    error: str


def _stack(features: dict, ids, model_config: ModelConfig, dtype):
    mats = []
    for sample_id in ids:
        try:
            fm = features[sample_id]
        except KeyError:
            raise ParameterError(f"no extracted features for record {sample_id!r}") from None
        if fm.values.shape[1] != model_config.n_mfcc:
            raise ParameterError(
                f"feature width {fm.values.shape[1]} of {sample_id!r} != model n_mfcc "
                f"{model_config.n_mfcc}"
            )
        if fm.values.shape[0] != model_config.max_frames:
            raise ParameterError(
                f"{sample_id!r} has {fm.values.shape[0]} frames, model expects "
                f"{model_config.max_frames}"
            )
        mats.append(fm.values)
    return np.stack(mats).astype(dtype)


def evaluate(params: ModelParams, x: np.ndarray, y: np.ndarray, batch_size: int):
    """Score (B, T, n_mfcc) inputs against labels y in batches of batch_size.

    Returns (mean loss, accuracy, per-sample predictions at threshold 0.5).
    Training's per-epoch curves, its final validation metrics and
    `convser evaluate` all come from this function."""
    losses = np.empty(len(x))
    preds = np.empty(len(x), dtype=int)
    for start in range(0, len(x), batch_size):
        stop = start + batch_size
        prob, trace = model_forward(x[start:stop], params)
        losses[start:stop] = bce_from_logit(trace.logit, y[start:stop])
        preds[start:stop] = (prob >= 0.5).astype(int)
    accuracy = float((preds == y).mean())
    return float(losses.mean()), accuracy, preds


def train_model(model_config: ModelConfig, train_config: TrainConfig,
                features: dict, manifest: DatasetManifest) -> TrainResult:
    """One full training run: split, minibatch ADAM for the configured number
    of epochs, per-epoch loss/accuracy curves, final validation metrics.

    history arrays have epochs+1 entries; index 0 is evaluated before any
    update, index e after epoch e. Training loss/accuracy for e >= 1 are the
    running in-epoch means.
    """
    label_counts = manifest.label_counts()
    if label_counts[0] == 0 or label_counts[1] == 0:
        raise ParameterError(
            f"training needs both labels, manifest has {label_counts[1]}x1 / {label_counts[0]}x0"
        )
    start_time = time.perf_counter()
    dtype = np.dtype(train_config.dtype)
    seed = train_config.seed

    train_ids, val_ids = split_dataset(
        manifest, train_config.split_ratio, train_config.split_mode, seed
    )
    labels = {rec.id: rec.label for rec in manifest.records}
    x_train = _stack(features, train_ids, model_config, dtype)
    y_train = np.array([labels[i] for i in train_ids], dtype=dtype)
    x_val = _stack(features, val_ids, model_config, dtype)
    y_val = np.array([labels[i] for i in val_ids], dtype=dtype)

    params = init_params(model_config, derive_seed(seed, "init"), dtype)
    # views into params: adam_step updates them in place
    trained = {name: getattr(params, name) for name in TRAINED_TENSORS}
    state = AdamState.for_params(trained)

    history = {k: [] for k in ("train_loss", "train_accuracy", "val_loss", "val_accuracy")}
    loss0, acc0, _ = evaluate(params, x_train, y_train, train_config.batch_size)
    vloss0, vacc0, _ = evaluate(params, x_val, y_val, train_config.batch_size)
    history["train_loss"].append(loss0)
    history["train_accuracy"].append(acc0)
    history["val_loss"].append(vloss0)
    history["val_accuracy"].append(vacc0)

    best = (vacc0, 0, params.copy() if train_config.model_selection == "best_val" else None)
    n_train = len(x_train)
    for epoch in range(1, train_config.epochs + 1):
        order = rng_for(seed, "epoch", epoch).permutation(n_train)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n_train, train_config.batch_size):
            batch = order[start : start + train_config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            prob, trace = model_forward(xb, params)
            loss_sum += float(bce_from_logit(trace.logit, yb).sum())
            correct += int(((prob >= 0.5).astype(int) == yb).sum())
            grads = model_backward(trace, yb, params).tensors()
            clip_global_norm(grads, GRAD_CLIP_NORM)
            adam_step(trained, {name: grads[name] for name in TRAINED_TENSORS}, state,
                      train_config)
        val_loss, val_acc, _ = evaluate(params, x_val, y_val, train_config.batch_size)
        history["train_loss"].append(loss_sum / n_train)
        history["train_accuracy"].append(correct / n_train)
        history["val_loss"].append(val_loss)
        history["val_accuracy"].append(val_acc)
        if train_config.model_selection == "best_val" and val_acc > best[0]:
            best = (val_acc, epoch, params.copy())

    if train_config.model_selection == "best_val" and best[2] is not None:
        params, selected_epoch = best[2], best[1]
    else:
        selected_epoch = train_config.epochs

    _, _, preds = evaluate(params, x_val, y_val, train_config.batch_size)
    counts = confusion(preds.tolist(), [int(v) for v in y_val])
    report = metrics(counts)
    return TrainResult(
        params=params,
        history=history,
        metrics=report,
        counts=counts,
        train_ids=train_ids,
        val_ids=val_ids,
        seed=seed,
        selected_epoch=selected_epoch,
        wall_time_s=time.perf_counter() - start_time,
    )


def grid_model_id(model_config: ModelConfig) -> str:
    """Paper-order naming: M1..M8 per MFCC width, filters varying fastest,
    then kernel size, then LSTM width."""
    try:
        k = (
            1
            + GRID_FILTERS.index(model_config.filters)
            + 2 * GRID_KERNELS.index(model_config.kernel_size)
            + 4 * GRID_LSTM_UNITS.index(model_config.lstm_units)
        )
    except ValueError:
        return f"custom-{model_config.filters}-{model_config.kernel_size}-{model_config.lstm_units}"
    return f"M{k}-{model_config.n_mfcc}"


def cross_validate(model_config: ModelConfig, train_config: TrainConfig,
                   features: dict, manifest: DatasetManifest) -> RunReport:
    """Three (or n_shuffles) independent reshuffle-and-train runs with seeds
    seed+0 .. seed+n-1; metrics averaged arithmetically across folds."""
    start_time = time.perf_counter()
    folds = []
    fold_seeds = [train_config.seed + k for k in range(train_config.n_shuffles)]
    for fold_seed in fold_seeds:
        folds.append(
            train_model(model_config, replace(train_config, seed=fold_seed), features, manifest)
        )
    averaged, excluded = average_metrics([f.metrics for f in folds])
    return RunReport(
        model_id=grid_model_id(model_config),
        model_config=model_config,
        train_config=train_config,
        fold_seeds=fold_seeds,
        fold_metrics=[f.metrics for f in folds],
        fold_counts=[f.counts for f in folds],
        averaged=averaged,
        excluded=excluded,
        histories=[f.history for f in folds],
        wall_time_s=time.perf_counter() - start_time,
        folds=folds,
    )


def grid_configs(n_mfcc: int, max_frames: int):
    """The 8 grid cells for one MFCC width, in report row order M1..M8."""
    return [
        ModelConfig(
            filters=filters,
            kernel_size=kernel,
            lstm_units=units,
            n_mfcc=n_mfcc,
            max_frames=max_frames,
        )
        for units in GRID_LSTM_UNITS
        for kernel in GRID_KERNELS
        for filters in GRID_FILTERS
    ]


def map_tasks(fn, tasks, jobs: int) -> list:
    """[fn(task) for task in tasks], in order: in this process when jobs <= 1,
    else in a pool of up to jobs worker processes. fn is a module-level
    function that returns its failure as a result instead of raising, so one
    bad task never loses the results of the others."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _run_cell(task):
    model_config, train_config, features, manifest = task
    try:
        return cross_validate(model_config, train_config, features, manifest)
    except Exception as exc:  # a failed cell is recorded, not silently skipped
        return GridFailure(
            model_id=grid_model_id(model_config),
            model_config=model_config,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_grid(train_config: TrainConfig, features13: dict, manifest13: DatasetManifest,
             features40: dict, manifest40: DatasetManifest, jobs: int = 1):
    """Train all 16 grid cells (8 per MFCC width, 3 folds each = 48 runs).

    Returns {13: [RunReport | GridFailure x8], 40: [... x8]} in M1..M8 order.
    Cells are independent; jobs > 1 runs them in worker processes with a
    deterministic, order-preserving reduce.
    """
    tasks = []
    for width, features, manifest in zip(GRID_WIDTHS, (features13, features40),
                                         (manifest13, manifest40)):
        if not features:
            raise ParameterError(f"no features provided for the {width}-MFCC track")
        max_frames = next(iter(features.values())).values.shape[0]
        for model_config in grid_configs(width, max_frames):
            tasks.append((model_config, train_config, features, manifest))

    results = map_tasks(_run_cell, tasks, jobs)
    cells = len(tasks) // len(GRID_WIDTHS)
    return {width: results[k * cells : (k + 1) * cells] for k, width in enumerate(GRID_WIDTHS)}
