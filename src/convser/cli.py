"""Command-line entry point.

Subcommands: synth, augment, extract, train, grid, evaluate, predict, report.
Each takes only the options it reads, and each setting has one route: a
flag, or for the augmentation plan the JSON object `augment --plan` reads,
which is the augmentation_plan.json augment writes. What no run varies is a
constant: the feature framing (dsp_features.FRAME_LEN, HOP, N_MELS) and the
synthetic class signatures and jitter (synth_data), so a feature config is
its width and frame count, and a synthetic corpus is separable or --null.
synth, augment, train and grid take --seed and --jobs, and extract takes
--jobs; all randomness flows from --seed, and full runs are reproducible bit
for bit. Every task of a --jobs command runs on one BLAS thread, in a worker
or in this process, so its bytes do not depend on --jobs or on the core
count; evaluate and predict score on one BLAS thread too. Feature stores,
model files and run reports record the feature config that produced them; a
re-run of extract reuses the stored rows of every record whose audio and
feature config are unchanged. main pins glibc's malloc thresholds first, so
freed arrays stay in the heap. Log verbosity comes from CONVSER_LOG
(error|info|debug).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import augmentation, dsp_features, report, synth_data, train_eval
from .audio_io import load_manifest, load_wav, save_manifest
from .exceptions import ConvserError, FormatError, ParameterError
from .neural_net import ModelConfig, load_model, model_score
from .neural_net import model_forward  # noqa: F401  (perfbench's tracer self-test looks it up here)
from .train_eval import GRID_WIDTHS, TrainConfig

log = logging.getLogger("convser")


def _setup_logging():
    level_name = os.environ.get("CONVSER_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: CONVSER_LOG={level_name!r} not in {sorted(levels)}", file=sys.stderr)
        level_name = "info"
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


# glibc's mallopt parameter numbers, and the ceilings its dynamic thresholds
# reach on 64-bit (the trim threshold follows at twice the mmap threshold)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 << 20


@functools.cache
def _pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    once per process; True where mallopt took both.

    By default glibc serves a block from a fresh mapping until a free raises
    its dynamic threshold past that size, and gives freed heap back to the OS
    past a trim threshold that follows it. Freed numpy temporaries of a few
    hundred KB then return to the kernel and fault in again on the next
    call. Pinned, they stay in the heap and are reused; only both pinned
    together do it. Forked pool workers inherit the setting. False, and
    nothing changed, where there is no mallopt or it refuses (musl, macOS)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) == 1
            and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX) == 1)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# (type of a plan field's default, test of a JSON value for that field, what it
# takes); bool comes before int because a bool is an int
PLAN_VALUE_RULES = (
    (bool, lambda v: isinstance(v, bool), "a boolean"),
    (int, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    (float, _is_number, "a number"),
    (tuple, lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
)


def _load_plan_file(path) -> augmentation.AugmentationPlan:
    """The JSON AugmentationPlan object at path, the format augment writes as
    augmentation_plan.json; the default plan without a path."""
    if path is None:
        return augmentation.AugmentationPlan()
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParameterError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: augmentation plan must be a JSON object")
    defaults = {f.name: f.default for f in fields(augmentation.AugmentationPlan)}
    for key, value in doc.items():
        if key not in defaults:
            raise ParameterError(f"{path}: unknown key {key!r}; expected one of "
                                 f"{sorted(defaults)}")
        _, accepts, expected = next(rule for rule in PLAN_VALUE_RULES
                                    if isinstance(defaults[key], rule[0]))
        if not accepts(value):
            raise ParameterError(f"{path}: key {key!r} must be {expected}, got {value!r}")
    try:
        return augmentation.AugmentationPlan(**doc)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


# {argparse dest: field} of the flags that set each config object
SYNTH_FLAGS = {"n": "n_originals", "duration": "duration_s", "seed": "seed"}
FEATURE_FLAGS = {"max_frames": "max_frames"}
TRAIN_FLAGS = {name: name for name in ("epochs", "batch_size", "learning_rate", "split_mode",
                                       "n_shuffles", "dtype", "seed")}
MODEL_FLAGS = {"filters": "filters", "kernel": "kernel_size", "lstm": "lstm_units"}


def _settings(cls, args, flags, **base):
    """cls built from the base fields, each flag given on the command line
    setting the field flags maps it to."""
    given = {name: getattr(args, dest) for dest, name in flags.items()
             if getattr(args, dest) is not None}
    return cls(**(base | given))


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_feature_store(features_root, n_mfcc, manifest, dtype):
    """The stored FeatureConfig and the manifest's (records, frames, n_mfcc)
    feature array in dtype, the model's, in manifest order."""
    store = dsp_features.load_features(features_root, n_mfcc)
    return store.config, store.stack((rec.id for rec in manifest.records), dtype)


def _model_feature_config(path, extra) -> dsp_features.FeatureConfig:
    """The FeatureConfig recorded in the model file at path."""
    try:
        return dsp_features.FeatureConfig(**extra["feature_config"])
    except (KeyError, TypeError, ParameterError) as exc:
        raise FormatError(f"{path}: no usable feature_config section "
                          f"({type(exc).__name__}: {exc}); the file is corrupt or was written "
                          f"by another convser version; re-run `convser train`") from None


# --- Subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = _settings(synth_data.SynthSpec, args, SYNTH_FLAGS, null=args.null)
    manifest = synth_data.generate_corpus(spec, args.out, jobs=args.jobs or _usable_cores())
    counts = manifest.label_counts()
    print(f"wrote {len(manifest)} files to {args.out} "
          f"(labels: {counts[1]}x1 / {counts[0]}x0)")
    return 0


def cmd_augment(args) -> int:
    plan = _load_plan_file(args.plan)
    if args.seed is not None:
        plan = replace(plan, rng_seed=args.seed)
    manifest = load_manifest(args.manifest)
    merged = augmentation.augment_dataset(manifest, plan, args.out,
                                          jobs=args.jobs or _usable_cores())
    save_manifest(merged, Path(args.out) / "manifest.jsonl")
    (Path(args.out) / "augmentation_plan.json").write_text(
        json.dumps(asdict(plan), indent=2, sort_keys=True) + "\n"
    )
    print(f"{len(manifest)} -> {len(merged)} records")
    return 0


def cmd_extract(args) -> int:
    manifest = load_manifest(args.manifest)
    widths = GRID_WIDTHS if args.mfcc == "both" else (int(args.mfcc),)
    max_frames = _settings(dsp_features.FeatureConfig, args, FEATURE_FLAGS).max_frames
    failures = []
    hashes = {}
    for rec in manifest.records:
        try:
            hashes[rec.id] = hashlib.sha256(manifest.resolve(rec).read_bytes()).hexdigest()[:16]
        except OSError as exc:
            failures.append((rec.id, str(exc)))
    stores, fresh, stale = {}, {}, {}
    for width in widths:
        # rows of another config are dropped; ids outside this manifest are kept
        stores[width], fresh[width] = dsp_features.cached_features_fresh(
            args.out, dsp_features.FeatureConfig(width, max_frames), hashes)
        stale[width] = set(hashes) - fresh[width]
    # each record is read and transformed once for all the widths it lacks
    records = [(rec, [w for w in widths if rec.id in stale[w]]) for rec in manifest.records]
    records = [(rec, lacking) for rec, lacking in records if lacking]
    tasks = [(manifest.resolve(rec), lacking, max_frames) for rec, lacking in records]
    dsp_features._dsp_constants()  # built before the pool forks, so its workers inherit it
    results = train_eval.map_tasks(_extract_record, tasks, args.jobs or _usable_cores())
    extracted = dict.fromkeys(widths, 0)
    for (rec, lacking), rows in zip(records, results):
        if isinstance(rows, str):
            failures.append((rec.id, rows))
            continue
        for width, valid in zip(lacking, rows):
            stores[width].rows[rec.id] = valid
            stores[width].hashes[rec.id] = hashes[rec.id]
            extracted[width] += 1
    for width in widths:
        if stale[width] or not fresh[width]:  # a warm run rewrites nothing
            dsp_features.save_features(stores[width], args.out)
        print(f"mfcc={width}: extracted {extracted[width]}, cached {len(fresh[width])}")

    if failures:
        print(f"{len(failures)} extraction failure(s):", file=sys.stderr)
        for sample_id, message in failures:
            print(f"  {sample_id}: {message}", file=sys.stderr)
        return 1
    return 0


def _extract_record(task):
    """The valid rows of one record at each width it lacks, or its failure
    message: a failed record is reported, not silently skipped."""
    path, widths, max_frames = task
    try:
        return dsp_features.extract_widths(load_wav(path), widths, max_frames)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def cmd_train(args) -> int:
    train_config = _settings(TrainConfig, args, TRAIN_FLAGS)
    manifest = load_manifest(args.manifest)
    width = int(args.mfcc)
    feature_config, features = _load_feature_store(args.features, width, manifest,
                                                   train_config.dtype)
    model_config = _settings(ModelConfig, args, MODEL_FLAGS, n_mfcc=width,
                             max_frames=feature_config.max_frames)
    if train_eval.grid_model_id(model_config).startswith("custom-"):
        log.info("model config %s is outside the standard 16-cell grid", model_config)

    jobs = args.jobs or train_eval.fold_workers(train_config.n_shuffles, _usable_cores())
    feature_doc = {"feature_config": asdict(feature_config)}
    out_dir = Path(args.out)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # each fold writes its own model file into out_dir
        result = train_eval.cross_validate(model_config, train_config, features, manifest,
                                           jobs=jobs, save_dir=out_dir, model_extra=feature_doc)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                out_dir.rmdir()
        raise
    # written last, once the fold models are in place: a run JSON marks a complete run
    _write_whole(out_dir / f"{result.model_id}_run.json",
                 json.dumps(result.to_dict() | feature_doc, sort_keys=True) + "\n")
    print(f"{result.model_id}: {report.format_metrics(result.averaged)}")
    return 0


def _write_whole(path, text) -> None:
    """Write text to path through path.tmp and os.replace, so that path holds
    either all of text or what it held before, never part of it."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    try:
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_grid(args) -> int:
    train_config = _settings(TrainConfig, args, TRAIN_FLAGS)
    manifest = load_manifest(args.manifest)
    configs, features = {}, {}
    for width in GRID_WIDTHS:
        configs[width], features[width] = _load_feature_store(args.features, width, manifest,
                                                              train_config.dtype)
    started = time.perf_counter()
    results = train_eval.run_grid(train_config, features, manifest,
                                  jobs=args.jobs or _usable_cores())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for width in GRID_WIDTHS:
        _write_whole(out_dir / f"results_{width}.csv", report.results_csv(results[width]))

    cells = []
    for width in GRID_WIDTHS:
        for r in results[width]:
            ok = not isinstance(r, train_eval.GridFailure)
            cells.append({"model_id": r.model_id, "status": "ok" if ok else "failed",
                          "error": None if ok else r.error,
                          "fold_seeds": r.fold_seeds if ok else None,
                          "wall_time_s": r.wall_time_s if ok else None})
    run_manifest = {
        "seed": train_config.seed,
        "train_config": asdict(train_config),
        "wall_time_s": time.perf_counter() - started,
        "cells": cells,
        "feature_configs": {str(width): asdict(config) for width, config in configs.items()},
    }
    _write_whole(out_dir / "run_manifest.json", json.dumps(run_manifest, indent=2) + "\n")

    n_failed = sum(cell["status"] == "failed" for cell in cells)
    n_runs = sum(len(cell["fold_seeds"]) for cell in cells if cell["fold_seeds"])
    print(f"grid complete: {n_runs} training runs, {n_failed} failed cells; "
          f"tables in {out_dir}")
    return 1 if n_failed else 0


def cmd_evaluate(args) -> int:
    params, extra = load_model(args.model)
    model_config = _model_feature_config(args.model, extra)
    manifest = load_manifest(args.manifest)
    store_config, x = _load_feature_store(args.features, params.config.n_mfcc, manifest,
                                          params.conv_w.dtype)
    if store_config != model_config:
        differ = [f"{name}: store {value!r}, model {getattr(model_config, name)!r}"
                  for name, value in asdict(store_config).items()
                  if value != getattr(model_config, name)]
        raise FormatError(
            f"feature store {dsp_features.store_path(args.features, store_config.n_mfcc)} does "
            f"not match model {args.model} ({'; '.join(differ)}); re-run `convser extract` "
            f"with the model's feature settings")
    labels = [rec.label for rec in manifest.records]
    with train_eval._one_blas_thread():  # the thread count training scores at
        _, _, preds = train_eval.evaluate(params, x, np.array(labels), TrainConfig().batch_size)
    counts = train_eval.confusion(preds.tolist(), labels)
    print(f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}")
    print(report.format_metrics(train_eval.metrics(counts)))
    return 0


def cmd_predict(args) -> int:
    params, extra = load_model(args.model)
    config = _model_feature_config(args.model, extra)
    with train_eval._one_blas_thread():  # the thread count extract and training run at
        for wav in args.wavs:
            fm = dsp_features.extract_features(load_wav(wav), config)
            (prob,), _ = model_score(fm.values[None].astype(params.conv_w.dtype), params, 1)
            print(f"{wav}\t{prob:.4f}\t{int(prob >= 0.5)}")
    return 0


def cmd_report(args) -> int:
    rows = report.read_results_csv(args.results)
    print(report.render_text_table(rows))
    if args.svg:
        report.render_accuracy_svg(rows, args.svg)
        print(f"wrote {args.svg}")
    return 0


# --- Parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: one per usable core for synth, "
                             "augment, extract and grid; for train, the fewest workers, at "
                             "least one per usable core, that split the shuffles evenly, e.g. "
                             "3 for 3 shuffles on 2 cores); every task runs on one BLAS "
                             "thread, so every value writes the same bytes")
    seeded = argparse.ArgumentParser(add_help=False, parents=[pooled])
    seeded.add_argument("--seed", type=int, default=None, help="base random seed")

    parser = argparse.ArgumentParser(prog="convser", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic corpus")
    p.add_argument("--n", type=int, default=None, help="number of original recordings")
    p.add_argument("--duration", type=float, default=None, help="clip length in seconds")
    p.add_argument("--null", action="store_true",
                   help="one class signature for both labels (labels carry no signal)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", parents=[seeded], help="expand a corpus 8x")
    p.add_argument("--manifest", required=True)
    p.add_argument("--plan", default=None,
                   help="augmentation plan JSON object, as augment writes it to "
                        "augmentation_plan.json (--seed overrides its rng_seed)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("extract", parents=[pooled], help="extract MFCC features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mfcc", choices=("13", "40", "both"), default="both",
                   help="feature width: 13 (c1..c12 + frame log energy), 40 (c0..c39) or both")
    p.add_argument("--max-frames", dest="max_frames", type=int, default=None)
    p.add_argument("--out", required=True, help="feature store root")
    p.set_defaults(func=cmd_extract)

    train_common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    train_common.add_argument("--epochs", type=int, default=None)
    train_common.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    train_common.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    train_common.add_argument("--split-mode", dest="split_mode",
                              choices=train_eval.SPLIT_MODES, default=None)
    train_common.add_argument("--shuffles", dest="n_shuffles", type=int, default=None)
    train_common.add_argument("--dtype", choices=("float32", "float64"), default=None)

    p = sub.add_parser("train", parents=[train_common],
                       help="cross-validate one model configuration")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True, help="feature store root")
    p.add_argument("--mfcc", choices=("13", "40"), required=True)
    p.add_argument("--filters", type=int, default=None)
    p.add_argument("--kernel", type=int, default=None)
    p.add_argument("--lstm", type=int, default=None)
    p.add_argument("--out", required=True, help="run output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", parents=[train_common],
                       help="train the full 16-cell grid (48 runs)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="reports directory")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("evaluate", help="metrics of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-file probability and label at threshold 0.5")
    p.add_argument("--model", required=True)
    p.add_argument("wavs", nargs="+", metavar="WAV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="render a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--svg", default=None, help="write an accuracy bar chart")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        jobs = getattr(args, "jobs", None)  # only the commands that run a pool take --jobs
        if jobs is not None and jobs < 1:
            raise ParameterError(f"--jobs must be >= 1, got {jobs}")
        return args.func(args)
    except (ConvserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
