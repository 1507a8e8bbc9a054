"""Command-line entry point.

Subcommands: synth, augment, extract, train, grid, evaluate, predict, report.
All randomness flows from --seed; artifacts record the config hash that
produced them, so re-runs are cheap no-ops and full runs are reproducible
bit for bit. Log verbosity comes from CONVSER_LOG (error|info|debug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import augmentation, dsp_features, report, synth_data, train_eval
from .audio_io import load_manifest, load_wav, resample_linear, save_manifest
from .exceptions import ConvserError, ParameterError
from .neural_net import GRID_WIDTHS, ModelConfig, load_model, model_forward, save_model
from .train_eval import TrainConfig

log = logging.getLogger("convser")


def _setup_logging():
    level_name = os.environ.get("CONVSER_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: CONVSER_LOG={level_name!r} not in {sorted(levels)}", file=sys.stderr)
        level_name = "info"
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


def _load_config_file(path):
    if not path:
        return {}
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: pipeline config must be a JSON object")
    return doc


def _feature_config(args, cfg, n_mfcc):
    kwargs = dict(cfg.get("feature", {}))
    kwargs.pop("n_mfcc", None)
    mode40 = kwargs.pop("feature_mode", None)
    for flag, key in (("frame_len", "frame_len"), ("hop", "hop"), ("max_frames", "max_frames"),
                      ("n_mels", "n_mels")):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[key] = value
    mode40 = getattr(args, "mode40", None) or mode40 or "static40"
    return dsp_features.FeatureConfig.for_width(n_mfcc, mode40=mode40, **kwargs)


def _train_config(args, cfg):
    kwargs = dict(cfg.get("train", {}))
    for flag in ("epochs", "batch_size", "learning_rate", "split_mode", "n_shuffles",
                 "model_selection", "split_ratio", "dtype"):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[flag] = value
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return TrainConfig(**kwargs)


def _augmentation_plan(args, cfg):
    plan = augmentation.AugmentationPlan(**cfg.get("plan", {}))
    if getattr(args, "seed", None) is not None:
        plan = replace(plan, rng_seed=args.seed)
    n = getattr(args, "variants", None)
    if n is None:
        return plan
    kept = plan.variants()[:n]
    return replace(
        plan,
        time_stretch_rates=tuple(p for _, k, p in kept if k == "time_stretch"),
        pitch_shift_semitones=tuple(p for _, k, p in kept if k == "pitch_shift"),
        noise_snrs_db=tuple(p for _, k, p in kept if k == "noise"),
        combined=any(k == "combined" for _, k, _ in kept),
    )


def _content_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _feature_dir(features_root, n_mfcc) -> Path:
    return Path(features_root) / str(n_mfcc)


def _load_feature_store(features_root, n_mfcc, manifest):
    directory = _feature_dir(features_root, n_mfcc)
    store = {}
    for rec in manifest.records:
        csv_path, _ = dsp_features.features_paths(directory, rec.id)
        if not csv_path.is_file():
            raise ParameterError(
                f"missing features for {rec.id!r} at {csv_path}; "
                f"run `convser extract --mfcc {n_mfcc}` first"
            )
        store[rec.id] = dsp_features.load_features(directory, rec.id)
    return store


# --- Subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _load_config_file(args.config)
    kwargs = dict(cfg.get("synth", {}))
    if args.n is not None:
        kwargs["n_originals"] = args.n
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    if args.seed is not None:
        kwargs["seed"] = args.seed
    spec = synth_data.SynthSpec.null(**kwargs) if args.null else synth_data.SynthSpec(**kwargs)
    manifest = synth_data.generate_corpus(spec, args.out)
    counts = manifest.label_counts()
    print(f"wrote {len(manifest)} files to {args.out} "
          f"(labels: {counts[1]}x1 / {counts[0]}x0)")
    return 0


def cmd_augment(args) -> int:
    cfg = _load_config_file(args.config)
    plan = _augmentation_plan(args, cfg)
    manifest = load_manifest(args.manifest)
    merged = augmentation.augment_dataset(manifest, plan, args.out)
    save_manifest(merged, Path(args.out) / "manifest.jsonl")
    (Path(args.out) / "augmentation_plan.json").write_text(
        json.dumps(asdict(plan), indent=2, sort_keys=True) + "\n"
    )
    print(f"{len(manifest)} -> {len(merged)} records")
    return 0


def _extract_one(task):
    """Extract and store one record's features; returns None, or the
    (sample id, message) of its failure."""
    wav_path, sample_id, out_dir, config, content_hash = task
    try:
        buffer = load_wav(wav_path)
        if buffer.sample_rate != config.sample_rate:
            buffer = resample_linear(buffer, config.sample_rate)
        fm = dsp_features.extract_features(buffer, config)
        dsp_features.save_features(fm, out_dir, sample_id, config, content_hash)
    except Exception as exc:  # a failed record is reported, not silently skipped
        return sample_id, f"{type(exc).__name__}: {exc}"
    return None


def cmd_extract(args) -> int:
    cfg = _load_config_file(args.config)
    manifest = load_manifest(args.manifest)
    widths = GRID_WIDTHS if args.mfcc == "both" else (int(args.mfcc),)
    failures = []
    for width in widths:
        config = _feature_config(args, cfg, width)
        out_dir = _feature_dir(args.out, width)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "feature_config.json").write_text(
            json.dumps(
                {"config": asdict(config), "config_hash": dsp_features.config_hash(config)},
                indent=2, sort_keys=True,
            ) + "\n"
        )
        tasks = []
        cached = 0
        for rec in manifest.records:
            wav_path = manifest.resolve(rec)
            try:
                content_hash = _content_hash(wav_path)
            except OSError as exc:
                failures.append((rec.id, str(exc)))
                continue
            if dsp_features.cached_features_fresh(out_dir, rec.id, config, content_hash):
                cached += 1
                continue
            tasks.append((wav_path, rec.id, out_dir, config, content_hash))

        errors = [e for e in train_eval.map_tasks(_extract_one, tasks, args.jobs or 1) if e]
        failures.extend(errors)
        print(f"mfcc={width}: extracted {len(tasks) - len(errors)}, cached {cached}")

    if failures:
        print(f"{len(failures)} extraction failure(s):", file=sys.stderr)
        for sample_id, message in failures:
            print(f"  {sample_id}: {message}", file=sys.stderr)
        return 1
    return 0


def _stored_feature_config(features_root, n_mfcc):
    """The FeatureConfig recorded by `extract`, if present."""
    path = _feature_dir(features_root, n_mfcc) / "feature_config.json"
    if not path.is_file():
        return None
    return dsp_features.FeatureConfig(**json.loads(path.read_text())["config"])


def cmd_train(args) -> int:
    cfg = _load_config_file(args.config)
    train_config = _train_config(args, cfg)
    manifest = load_manifest(args.manifest)
    width = int(args.mfcc)
    features = _load_feature_store(args.features, width, manifest)
    max_frames = next(iter(features.values())).values.shape[0]
    model_kwargs = dict(cfg.get("model", {}))
    for flag, key in (("filters", "filters"), ("kernel", "kernel_size"), ("lstm", "lstm_units")):
        value = getattr(args, flag, None)
        if value is not None:
            model_kwargs[key] = value
    model_kwargs["n_mfcc"] = width
    model_kwargs["max_frames"] = max_frames
    model_config = ModelConfig(**model_kwargs)
    if not model_config.in_paper_grid:
        log.info("model config %s is outside the standard 16-cell grid", model_config)

    result = train_eval.cross_validate(model_config, train_config, features, manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    feature_config = _stored_feature_config(args.features, width)
    _save_run(result, out_dir, feature_config)
    avg = result.averaged
    print(
        f"{result.model_id}: accuracy {report.format_percent(avg.accuracy)}, "
        f"precision {report.format_percent(avg.precision)}, "
        f"sensitivity {report.format_percent(avg.sensitivity)}, "
        f"f1 {report.format_percent(avg.f1)}"
    )
    return 0


def _save_run(result, out_dir, feature_config) -> None:
    """Persist per-fold models plus the run report JSON."""
    feature_doc = asdict(feature_config) if feature_config else None
    feature_hash = dsp_features.config_hash(feature_config) if feature_config else None
    run_doc = result.to_dict()
    run_doc["feature_config"] = feature_doc
    run_doc["config_hash"] = feature_hash
    (out_dir / f"{result.model_id}_run.json").write_text(
        json.dumps(run_doc, sort_keys=True) + "\n"
    )
    for k, (fold_seed, fold) in enumerate(zip(result.fold_seeds, result.folds)):
        extra = {"fold_seed": fold_seed, "model_id": result.model_id}
        if feature_doc:
            extra["feature_config"] = feature_doc
            extra["config_hash"] = feature_hash
        save_model(fold.params, out_dir / f"{result.model_id}_fold{k}.model.json", extra=extra)


def cmd_grid(args) -> int:
    cfg = _load_config_file(args.config)
    train_config = _train_config(args, cfg)
    manifest = load_manifest(args.manifest)
    features13 = _load_feature_store(args.features, 13, manifest)
    features40 = _load_feature_store(args.features, 40, manifest)
    started = time.perf_counter()
    results = train_eval.run_grid(
        train_config, features13, manifest, features40, manifest, jobs=args.jobs or 1
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for width in GRID_WIDTHS:
        report.write_results_csv(results[width], out_dir / f"results_{width}.csv")

    run_manifest = {
        "seed": train_config.seed,
        "train_config": asdict(train_config),
        "wall_time_s": time.perf_counter() - started,
        "cells": [
            {
                "model_id": r.model_id,
                "status": "failed" if isinstance(r, train_eval.GridFailure) else "ok",
                "error": r.error if isinstance(r, train_eval.GridFailure) else None,
                "fold_seeds": None if isinstance(r, train_eval.GridFailure) else r.fold_seeds,
                "wall_time_s": None if isinstance(r, train_eval.GridFailure) else r.wall_time_s,
            }
            for width in GRID_WIDTHS
            for r in results[width]
        ],
        "feature_config_hashes": {
            str(width): json.loads(
                (_feature_dir(args.features, width) / "feature_config.json").read_text()
            ).get("config_hash")
            for width in GRID_WIDTHS
            if (_feature_dir(args.features, width) / "feature_config.json").is_file()
        },
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(run_manifest, indent=2) + "\n")

    n_failed = sum(1 for width in GRID_WIDTHS for r in results[width]
                   if isinstance(r, train_eval.GridFailure))
    n_runs = sum(
        len(r.fold_seeds) for width in GRID_WIDTHS for r in results[width]
        if not isinstance(r, train_eval.GridFailure)
    )
    print(f"grid complete: {n_runs} training runs, {n_failed} failed cells; "
          f"tables in {out_dir}")
    return 1 if n_failed else 0


def cmd_evaluate(args) -> int:
    params = load_model(args.model)
    manifest = load_manifest(args.manifest)
    features = _load_feature_store(args.features, params.config.n_mfcc, manifest)
    ids = [rec.id for rec in manifest.records]
    x = train_eval._stack(features, ids, params.config, params.conv_w.dtype)
    labels = [rec.label for rec in manifest.records]
    _, _, preds = train_eval.evaluate(params, x, np.array(labels), TrainConfig().batch_size)
    counts = train_eval.confusion(preds.tolist(), labels)
    m = train_eval.metrics(counts)
    print(f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}")
    print(
        f"accuracy {report.format_percent(m.accuracy)}, "
        f"precision {report.format_percent(m.precision)}, "
        f"sensitivity {report.format_percent(m.sensitivity)}, "
        f"f1 {report.format_percent(m.f1)}"
    )
    return 0


def cmd_predict(args) -> int:
    params = load_model(args.model)
    doc = json.loads(Path(args.model).read_text())
    if "feature_config" not in doc:
        raise ParameterError(f"{args.model}: no feature_config section; cannot extract features")
    config = dsp_features.FeatureConfig(**doc["feature_config"])
    for wav in args.wavs:
        buffer = load_wav(wav)
        if buffer.sample_rate != config.sample_rate:
            buffer = resample_linear(buffer, config.sample_rate)
        fm = dsp_features.extract_features(buffer, config)
        (prob,), _ = model_forward(fm.values[None].astype(params.conv_w.dtype), params)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config JSON", default=None)
    common.add_argument("--seed", type=int, default=None, help="base random seed")
    common.add_argument("--jobs", type=int, default=None, help="parallel worker cap")

    parser = argparse.ArgumentParser(prog="convser", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--n", type=int, default=None, help="number of original recordings")
    p.add_argument("--duration", type=float, default=None, help="clip length in seconds")
    p.add_argument("--null", action="store_true",
                   help="identical class signatures (labels carry no signal)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", parents=[common], help="expand a corpus 8x")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variants", type=int, default=None,
                   help="cap the number of variants per original (0 = originals only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("extract", parents=[common], help="extract MFCC features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mfcc", choices=("13", "40", "both"), default="both")
    p.add_argument("--mode40", choices=("static40", "delta39e"), default=None,
                   help="assembly of the 40-wide vector")
    p.add_argument("--frame-len", dest="frame_len", type=int, default=None)
    p.add_argument("--hop", type=int, default=None)
    p.add_argument("--n-mels", dest="n_mels", type=int, default=None)
    p.add_argument("--max-frames", dest="max_frames", type=int, default=None)
    p.add_argument("--out", required=True, help="feature store root")
    p.set_defaults(func=cmd_extract)

    train_common = argparse.ArgumentParser(add_help=False, parents=[common])
    train_common.add_argument("--epochs", type=int, default=None)
    train_common.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    train_common.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    train_common.add_argument("--split-mode", dest="split_mode",
                              choices=train_eval.SPLIT_MODES, default=None)
    train_common.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    train_common.add_argument("--shuffles", dest="n_shuffles", type=int, default=None)
    train_common.add_argument("--model-selection", dest="model_selection",
                              choices=train_eval.MODEL_SELECTIONS, default=None)
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

    p = sub.add_parser("evaluate", parents=[common], help="metrics of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common],
                       help="per-file probability and label at threshold 0.5")
    p.add_argument("--model", required=True)
    p.add_argument("wavs", nargs="+", metavar="WAV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", parents=[common], help="render a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--svg", default=None, help="write an accuracy bar chart")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
