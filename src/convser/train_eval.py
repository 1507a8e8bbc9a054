"""Training and evaluation: ADAM optimization, 70/30 shuffle validation,
the 48-run hyper-parameter grid, and the confusion-matrix metrics suite.

"Three-fold cross-validation" here means three independent random 70/30
shuffles (Monte Carlo CV): each fold reshuffles the whole corpus, trains a
fresh model, and the reported metrics are the arithmetic mean over folds.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .audio_io import DatasetManifest
from .exceptions import ConvserError, ParameterError
from .neural_net import (
    ModelConfig,
    ModelParams,
    bce_from_logit,
    init_params,
    model_backward,
    model_forward,
    model_score,
    save_model,
)
from .seeding import derive_seed, rng_for

log = logging.getLogger(__name__)

SPLIT_MODES = ("paper", "grouped")
# The share of records each shuffle trains on; the rest validate.
SPLIT_RATIO = 0.7
# ADAM's moment decay rates and denominator floor, the defaults of Kingma & Ba.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
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
    n_shuffles: int = 3
    split_mode: str = "paper"
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.n_shuffles < 1:
            raise ParameterError("epochs, batch_size, and n_shuffles must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(f"learning_rate must be a finite number > 0, "
                                 f"got {self.learning_rate}")
        if self.split_mode not in SPLIT_MODES:
            raise ParameterError(f"split_mode {self.split_mode!r} not in {SPLIT_MODES}")
        if self.dtype not in ("float32", "float64"):
            raise ParameterError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


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


def adam_step(params: dict, grads: dict, state: AdamState, learning_rate: float):
    """One ADAM update of the named tensors in params, in place: moment
    updates, bias correction, then
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). Returns (params, state)."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
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
        theta -= learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)
    return params, state


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale every gradient tensor in place by max_norm / ||g|| when the global
    L2 norm ||g|| over all of them exceeds max_norm, and return ||g||. The
    norm is a float64 pairwise sum, so it does not depend on the BLAS thread
    count.

    train_model passes the gradients of all tensors, conv_b's included, though
    conv_b is never updated. That is on purpose: conv_b's gradient carries most
    of each exploding-gradient spike, so counting it in the norm shrinks the
    update of the trained tensors on exactly the batches where it spikes."""
    norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


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
    params: ModelParams | None  # None once the fold saved its model, or its grid cell was scored
    history: dict
    metrics: MetricsReport
    counts: ConfusionCounts
    train_ids: list
    val_ids: list
    seed: int
    wall_time_s: float


@dataclass
class RunReport:
    model_config: ModelConfig
    train_config: TrainConfig
    folds: list = field(repr=False)  # one TrainResult per shuffle
    wall_time_s: float

    @property
    def model_id(self) -> str:
        return grid_model_id(self.model_config)

    @property
    def averaged(self) -> MetricsReport:
        return average_metrics(self.fold_metrics)[0]

    @property
    def excluded(self) -> dict:
        return average_metrics(self.fold_metrics)[1]

    @property
    def fold_seeds(self) -> list:
        return [f.seed for f in self.folds]

    @property
    def fold_metrics(self) -> list:
        return [f.metrics for f in self.folds]

    @property
    def fold_counts(self) -> list:
        return [f.counts for f in self.folds]

    @property
    def histories(self) -> list:
        return [f.history for f in self.folds]

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
    model_config: ModelConfig
    error: str

    @property
    def model_id(self) -> str:
        return grid_model_id(self.model_config)


def evaluate(params: ModelParams, x: np.ndarray, y: np.ndarray, batch_size: int):
    """Score (B, T, n_mfcc) inputs against labels y in batches of batch_size.

    Returns (mean loss, accuracy, per-sample predictions at threshold 0.5)
    of one model_score call, which runs one step loop over all rows,
    remainder batch included. Training's per-epoch curves, its final
    validation metrics and `convser evaluate` all come from this function."""
    prob, logit = model_score(x, params, batch_size)
    preds = (prob >= 0.5).astype(int)
    accuracy = float((preds == y).mean())
    return float(bce_from_logit(logit, y).mean()), accuracy, preds


def train_model(model_config: ModelConfig, train_config: TrainConfig,
                features: np.ndarray, manifest: DatasetManifest) -> TrainResult:
    """One full training run on features, one (max_frames, n_mfcc) matrix per
    manifest record in manifest order: split, minibatch ADAM for the configured
    number of epochs, per-epoch loss/accuracy curves, and the validation
    metrics of the weights left after the last epoch.

    history arrays have epochs+1 entries; index 0 is evaluated before any
    update, index e after epoch e. Training loss/accuracy for e >= 1 are the
    running in-epoch means.
    """
    label_counts = manifest.label_counts()
    if label_counts[0] == 0 or label_counts[1] == 0:
        raise ParameterError(
            f"training needs both labels, manifest has {label_counts[1]}x1 / {label_counts[0]}x0"
        )
    expected = (len(manifest), model_config.max_frames, model_config.n_mfcc)
    if features.shape != expected:
        raise ParameterError(f"feature array of shape {features.shape} != (records, frames, "
                             f"width) {expected} of the manifest and model")
    start_time = time.perf_counter()
    dtype = np.dtype(train_config.dtype)
    seed = train_config.seed

    train_ids, val_ids = split_dataset(manifest, SPLIT_RATIO, train_config.split_mode, seed)
    row = {rec.id: k for k, rec in enumerate(manifest.records)}
    labels = np.array([rec.label for rec in manifest.records], dtype=dtype)
    train_rows, val_rows = [row[i] for i in train_ids], [row[i] for i in val_ids]
    # the row selection is a copy already; features stacked in dtype need no second one
    x_train, y_train = features[train_rows].astype(dtype, copy=False), labels[train_rows]
    x_val, y_val = features[val_rows].astype(dtype, copy=False), labels[val_rows]

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

    n_train = len(x_train)
    for epoch in range(1, train_config.epochs + 1):
        order = rng_for(seed, "epoch", epoch).permutation(n_train)
        loss_sum = 0.0
        correct = 0
        for batch_no, start in enumerate(range(0, n_train, train_config.batch_size), 1):
            batch = order[start : start + train_config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            prob, trace = model_forward(xb, params)
            batch_loss = float(bce_from_logit(trace.logit, yb).sum())
            loss_sum += batch_loss
            correct += int(((prob >= 0.5).astype(int) == yb).sum())
            grads = model_backward(trace, yb, params).tensors()
            norm = clip_global_norm(grads, GRAD_CLIP_NORM)
            if not (math.isfinite(batch_loss) and math.isfinite(norm)):
                raise ConvserError(f"training diverged at fold seed {seed}, epoch {epoch}, "
                                   f"batch {batch_no}: loss {batch_loss}, gradient norm {norm}")
            adam_step(trained, {name: grads[name] for name in TRAINED_TENSORS}, state,
                      train_config.learning_rate)
            del trace, grads  # so the next forward does not run beside this batch's trace
        val_loss, val_acc, val_preds = evaluate(params, x_val, y_val, train_config.batch_size)
        history["train_loss"].append(loss_sum / n_train)
        history["train_accuracy"].append(correct / n_train)
        history["val_loss"].append(val_loss)
        history["val_accuracy"].append(val_acc)

    # the last epoch's validation predictions are those of the returned weights
    counts = confusion(val_preds.tolist(), [int(v) for v in y_val])
    report = metrics(counts)
    return TrainResult(
        params=params,
        history=history,
        metrics=report,
        counts=counts,
        train_ids=train_ids,
        val_ids=val_ids,
        seed=seed,
        wall_time_s=time.perf_counter() - start_time,
    )


# The paper's grid: filters x kernel size x LSTM units for each MFCC width
GRID_FILTERS = (16, 32)
GRID_KERNELS = (5, 20)
GRID_LSTM_UNITS = (20, 40)
GRID_WIDTHS = (13, 40)


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


def grid_model_id(model_config: ModelConfig) -> str:
    """Paper-order naming: Mk-<n_mfcc> for the k-th of grid_configs, else
    custom-<filters>-<kernel>-<lstm units>."""
    cells = grid_configs(model_config.n_mfcc, model_config.max_frames)
    if model_config in cells:
        return f"M{cells.index(model_config) + 1}-{model_config.n_mfcc}"
    return f"custom-{model_config.filters}-{model_config.kernel_size}-{model_config.lstm_units}"


def cross_validate(model_config: ModelConfig, train_config: TrainConfig,
                   features: np.ndarray, manifest: DatasetManifest, jobs: int = 1,
                   save_dir=None, model_extra: dict | None = None) -> RunReport:
    """Three (or n_shuffles) independent reshuffle-and-train runs with seeds
    seed+0 .. seed+n-1; metrics averaged arithmetically across folds. jobs > 1
    trains the folds in worker processes; the results do not depend on jobs.

    With save_dir, an existing directory, fold k saves its model in the
    process that trained it, as save_dir/<model id>_fold<k>.model.json with
    model_extra, its fold seed and the model id as metadata, and its
    TrainResult comes back without params. Each fold writes a .tmp file; the
    files are renamed into place once every fold has succeeded, and removed
    when any fold fails."""
    start_time = time.perf_counter()
    fold_seeds = [train_config.seed + k for k in range(train_config.n_shuffles)]
    model_id = grid_model_id(model_config)
    saves = [None] * len(fold_seeds)
    if save_dir is not None:
        saves = [(Path(save_dir) / f"{model_id}_fold{k}.model.json.tmp",
                  {"fold_seed": fold_seed, "model_id": model_id} | (model_extra or {}))
                 for k, fold_seed in enumerate(fold_seeds)]
    tasks = [(model_config, replace(train_config, seed=fold_seed), features, manifest, save)
             for fold_seed, save in zip(fold_seeds, saves)]
    tmp_paths = [save[0] for save in saves if save is not None]
    try:
        folds = map_tasks(_run_fold, tasks, jobs)
    except BaseException:
        for tmp in tmp_paths:
            tmp.unlink(missing_ok=True)
        raise
    for tmp in tmp_paths:
        tmp.replace(tmp.with_suffix(""))
    return RunReport(
        model_config=model_config,
        train_config=train_config,
        folds=folds,
        wall_time_s=time.perf_counter() - start_time,
    )


def _run_fold(task):
    """train_model on the task's first four items. The last is None, or the
    (path, extra) the fold saves its model to; the result then drops its
    params, so no tensor crosses back to the caller."""
    *args, save = task
    result = train_model(*args)
    if save is not None:
        path, extra = save
        save_model(result.params, path, extra=extra)
        result.params = None
    return result


# OpenBLAS's thread-count setter under the names its builds export: the
# scipy-openblas library numpy wheels bundle, then 64-bit-integer and plain builds
OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads")


@functools.cache
def _openblas_setter():
    """(library, thread-count setter, getter) of the OpenBLAS numpy has loaded
    into this process, the getter named as the setter with get for set, or
    None when none is found (another BLAS, or no /proc)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = {fields[5] for fields in (line.split(maxsplit=5) for line in maps)
             if len(fields) == 6 and "openblas" in Path(fields[5]).name.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # already loaded: this adds a reference, not a copy
        for name in OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("set_num_threads", "get_num_threads"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return lib, setter, getter
    return None


def _blas_threads():
    """This process's OpenBLAS thread count, or None without an OpenBLAS
    thread-count function."""
    found = _openblas_setter()
    return None if found is None else found[2]()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the with-block on one OpenBLAS thread, then restore this process's
    thread count."""
    before = _blas_threads()
    # at one thread already, the setter would restart the pool a worker shut down
    if before is None or before == 1:
        yield
        return
    setter = _openblas_setter()[1]
    setter(1)
    try:
        yield
    finally:
        setter(before)


def fold_workers(n_folds: int, cores: int) -> int:
    """Default worker count for n_folds equal-sized folds on cores cores: the
    fewest workers w with min(cores, n_folds) <= w <= n_folds that divide the
    folds evenly. 3 folds on 2 cores take 3 workers, which the OS shares out
    so that no core idles through a lone last fold; 4 folds take 2."""
    least = max(1, min(cores, n_folds))
    return next((w for w in range(least, n_folds + 1) if n_folds % w == 0), 1)


# (fn, tasks) of the pool this worker process belongs to, set by _start_worker
_worker_job = None


def _start_worker(fn, tasks):
    """Pool initializer: keep the pool's fn and tasks, and run OpenBLAS on one
    thread when it can, so that jobs workers keep jobs cores busy instead of
    oversubscribing them."""
    global _worker_job
    _worker_job = fn, tasks
    found = _openblas_setter()
    if found is not None:
        lib, setter, _ = found
        setter(1)
        # The setter restarts the thread pool that fork took down, and its idle
        # threads spin for about 0.1 s, taking half the cores from the workers;
        # one thread needs no pool.
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown()


def _run_task(index):
    fn, tasks = _worker_job
    return fn(tasks[index])


def map_tasks(fn, tasks, jobs: int) -> list:
    """[fn(task) for task in tasks], in order: in this process when jobs <= 1,
    else in a pool of up to jobs worker processes. When fn raises, the first
    failed task's exception reaches the caller with its type and message
    either way, from a pool only once no task is still running. A caller that
    must keep the other tasks' results, like _run_cell, has fn return its
    failure instead. A worker that dies (killed, or out of memory) raises
    ConvserError naming fn.

    Workers are forked where the platform allows it: they inherit fn and the
    tasks, so neither needs to be picklable, and only task indices and
    results cross the pipes. Elsewhere fn and tasks must be picklable and are
    sent once per worker, not once per task.

    Every task runs on one OpenBLAS thread wherever it runs: each worker
    pins itself when it starts, and in this process the loop runs pinned and
    the caller's count is restored after it. A BLAS product's last bits can
    depend on its thread count (extract's Mel product, the LSTM input
    projection of a custom shape), so every jobs value gives the bits of one
    thread. The pool takes the tasks in about four chunks per worker, which
    spares most of the pipe round trips of one task at a time."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        with _one_blas_thread():
            return [fn(task) for task in tasks]
    if _openblas_setter() is None:
        log.warning("no OpenBLAS thread-count function found; %d pool workers run BLAS "
                    "with its default thread count, so training workers may "
                    "oversubscribe the cores", workers)
    # fork is named, not left to the default: Python 3.14 defaults to forkserver
    fork = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context(fork),
                                 initializer=_start_worker,
                                 initargs=(fn, tasks)) as pool:
            return list(pool.map(_run_task, range(len(tasks)),
                                 chunksize=-(-len(tasks) // (4 * workers))))
    except BrokenProcessPool as exc:
        name = getattr(fn, "__name__", repr(fn))
        raise ConvserError(f"{name}: a worker process ended abruptly "
                           "(killed or out of memory)") from exc


def _run_cell(task):
    """cross_validate one grid cell: its RunReport, or a GridFailure. The
    report carries the folds' metrics and histories but not their tensors, so
    a grid holds one model at a time and a pool sends none back; `convser
    train` is what keeps a cell's models."""
    model_config, train_config, features, manifest = task
    try:
        report = cross_validate(model_config, train_config, features, manifest)
    except Exception as exc:  # a failed cell is recorded, not silently skipped
        return GridFailure(model_config=model_config, error=f"{type(exc).__name__}: {exc}")
    for fold in report.folds:
        fold.params = None
    return report


def run_grid(train_config: TrainConfig, features: dict, manifest: DatasetManifest,
             jobs: int = 1):
    """Train all 16 grid cells (8 per MFCC width, 3 folds each = 48 runs) on
    features {13: array, 40: array}, each (records, frames, width) in manifest
    order. Returns {13: [RunReport | GridFailure x8], 40: [... x8]} in M1..M8
    order; jobs > 1 runs the independent cells in worker processes with a
    deterministic, order-preserving reduce. Each cell trains its folds
    serially, so pools never nest. A cell carries its metrics and histories,
    not its tensors: `convser train` is what keeps a cell's models."""
    tasks = [(model_config, train_config, features[width], manifest)
             for width in GRID_WIDTHS
             for model_config in grid_configs(width, features[width].shape[1])]
    results = map_tasks(_run_cell, tasks, jobs)
    cells = len(tasks) // len(GRID_WIDTHS)
    return {width: results[k * cells : (k + 1) * cells] for k, width in enumerate(GRID_WIDTHS)}
