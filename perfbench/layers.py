"""Per-layer metrics from the spans of one traced pass.

`make_hooks` returns the per-function hooks the tracer runs after a wrapped
call returns; they attach sizes and computed counts to the span. `layer_metrics`
turns the spans into the per-layer metric dict. A metric whose layer did no
work on the workload, or whose function is gone, is None ("absent").
"""

from __future__ import annotations

import os

import numpy as np

from counts import (array_bytes, backward_flops, forward_flops, model_shape, pickled_bytes,
                    stretch_searches)
from tracer import children, self_time

TRAIN_BATCH = 16

# name -> unit, in report order; the unit column of BENCHMARK.json
PER_LAYER_UNITS = {
    "synth_data.busy_s": "s",
    "synth_data.audio_s_per_s": "s/s",
    "augmentation.busy_s": "s",
    "augmentation.time_stretch_s": "s",
    "augmentation.pitch_shift_s": "s",
    "augmentation.add_noise_s": "s",
    "augmentation.searches": "count",
    "augmentation.searches_per_s": "1/s",
    "audio_io.load_s": "s",
    "audio_io.write_s": "s",
    "audio_io.bytes_read": "bytes",
    "audio_io.bytes_written": "bytes",
    "dsp_features.extract_s.13": "s",
    "dsp_features.extract_s.40": "s",
    "dsp_features.frames_per_s": "frames/s",
    "dsp_features.store_write_s": "s",
    "dsp_features.store_read_s": "s",
    "dsp_features.fresh_check_s": "s",
    "dsp_features.store_bytes": "bytes",
    "dsp_features.store_files": "count",
    "neural_net.forward_ms.p50": "ms",
    "neural_net.forward_ms.p90": "ms",
    "neural_net.backward_ms.p50": "ms",
    "neural_net.backward_ms.p90": "ms",
    "neural_net.lstm_share": "fraction",
    "neural_net.forward_calls": "count",
    "neural_net.backward_calls": "count",
    "neural_net.gflop_per_batch": "GFLOP",
    "neural_net.gflops": "GFLOP/s",
    "neural_net.trace_mb": "MB",
    "neural_net.load_model_ms": "ms",
    "neural_net.save_model_ms": "ms",
    "neural_net.model_bytes": "bytes",
    "train_eval.adam_ms.p50": "ms",
    "train_eval.adam_calls": "count",
    "train_eval.fold_s": "s",
    "train_eval.fold_self_s": "s",
    "train_eval.eval_share": "fraction",
    "train_eval.cell_s.p50": "s",
    "train_eval.cell_s.max": "s",
    "train_eval.task_bytes": "bytes",
    "train_eval.pool_idle_share": "fraction",
    "train_eval.pool_efficiency": "fraction",
    "train_eval.worker_peak_rss_mb": "MB",
    "cli.self_s": "s",
    "cli.val_accuracy": "fraction",
    "cli.evaluate_clips_per_s": "clips/s",
    "cli.predict_ms.p50": "ms",
    "cli.predict_ms.p90": "ms",
    "bench.trace_overhead": "ratio",
}

# metrics derived from shapes, arguments or file sizes rather than timed
COMPUTED = (
    "augmentation.searches",
    "neural_net.gflop_per_batch",
    "neural_net.trace_mb",
    "neural_net.model_bytes",
    "train_eval.task_bytes",
)


def make_hooks(convser_package):
    """Hooks keyed by the tracer's canonical function names."""
    augmentation = convser_package.augmentation
    def load_wav(span, args, result):
        span.attrs["bytes"] = os.path.getsize(args["path"])

    def write_wav(span, args, result):
        buffer = args["buffer"]
        span.attrs["bytes"] = os.path.getsize(args["path"])
        span.attrs["audio_s"] = len(buffer.samples) / buffer.sample_rate

    def time_stretch(span, args, result):
        grain = getattr(augmentation, "OLA_GRAIN", None)
        hop = getattr(augmentation, "OLA_HOP", None)
        if grain is not None and hop is not None:
            span.attrs["searches"] = stretch_searches(
                len(args["buffer"].samples), args["rate"], grain, hop)

    def extract_features(span, args, result):
        span.attrs["width"] = args["config"].n_mfcc
        span.attrs["frames"] = int(result.n_valid_frames)

    def model_forward(span, args, result):
        _, trace = result
        shape = model_shape(trace.x.shape, args["params"].config)
        span.attrs["batch"] = shape[0]
        span.attrs["flops"] = forward_flops(*shape)
        if shape[0] == TRAIN_BATCH:
            span.attrs["trace_bytes"] = array_bytes(trace)

    def model_backward(span, args, result):
        shape = model_shape(args["trace"].x.shape, args["params"].config)
        span.attrs["batch"] = shape[0]
        span.attrs["flops"] = backward_flops(*shape)

    def save_model(span, args, result):
        span.attrs["bytes"] = os.path.getsize(args["path"])

    def run_cell(span, args, result):
        (task,) = args.values()
        span.attrs["task_bytes"] = pickled_bytes(task)

    return {
        "audio_io.load_wav": load_wav,
        "audio_io.write_wav": write_wav,
        "augmentation.time_stretch": time_stretch,
        "dsp_features.extract_features": extract_features,
        "neural_net.model_forward": model_forward,
        "neural_net.model_backward": model_backward,
        "neural_net.save_model": save_model,
        "train_eval._run_cell": run_cell,
    }


def _ratio(num, den):
    return num / den if num is not None and den else None


def percentile(values, q):
    """q-th percentile (0-100), linearly interpolated; None when empty."""
    return float(np.percentile(values, q)) if values else None


def layer_metrics(spans) -> dict:
    """Every span-derived per-layer metric; None where nothing was recorded."""
    kids = children(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        found = named(name)
        return sum(s.duration for s in found) if found else None

    def attr_sum(name, key, where=lambda s: True):
        found = [s.attrs[key] for s in named(name) if key in s.attrs and where(s)]
        return sum(found) if found else None

    def busy(layer):
        found = [s for s in spans if s.name.split(".", 1)[0] == layer]
        return sum(self_time(s, kids) for s in found) if found else None

    def ms(values, q):
        value = percentile(values, q)
        return None if value is None else value * 1e3

    out = {}
    corpus_ids = {s.id for s in named("synth_data.generate_corpus")}
    out["synth_data.busy_s"] = busy("synth_data")
    out["synth_data.audio_s_per_s"] = _ratio(
        attr_sum("audio_io.write_wav", "audio_s", lambda s: s.parent in corpus_ids),
        out["synth_data.busy_s"])

    out["augmentation.busy_s"] = busy("augmentation")
    out["augmentation.time_stretch_s"] = total("augmentation.time_stretch")
    out["augmentation.pitch_shift_s"] = total("augmentation.pitch_shift")
    out["augmentation.add_noise_s"] = total("augmentation.add_noise")
    out["augmentation.searches"] = attr_sum("augmentation.time_stretch", "searches")
    out["augmentation.searches_per_s"] = _ratio(
        out["augmentation.searches"], out["augmentation.time_stretch_s"])

    out["audio_io.load_s"] = total("audio_io.load_wav")
    out["audio_io.write_s"] = total("audio_io.write_wav")
    out["audio_io.bytes_read"] = attr_sum("audio_io.load_wav", "bytes")
    out["audio_io.bytes_written"] = attr_sum("audio_io.write_wav", "bytes")

    extracts = named("dsp_features.extract_features")
    for width in (13, 40):
        found = [s.duration for s in extracts if s.attrs.get("width") == width]
        out[f"dsp_features.extract_s.{width}"] = sum(found) if found else None
    out["dsp_features.frames_per_s"] = _ratio(
        attr_sum("dsp_features.extract_features", "frames"),
        total("dsp_features.extract_features"))
    out["dsp_features.store_write_s"] = total("dsp_features.save_features")
    out["dsp_features.store_read_s"] = total("dsp_features.load_features")
    out["dsp_features.fresh_check_s"] = total("dsp_features.cached_features_fresh")

    forwards = named("neural_net.model_forward")
    backwards = named("neural_net.model_backward")
    fwd16 = [s.duration for s in forwards if s.attrs.get("batch") == TRAIN_BATCH]
    bwd16 = [s.duration for s in backwards if s.attrs.get("batch") == TRAIN_BATCH]
    out["neural_net.forward_ms.p50"] = ms(fwd16, 50)
    out["neural_net.forward_ms.p90"] = ms(fwd16, 90)
    out["neural_net.backward_ms.p50"] = ms(bwd16, 50)
    out["neural_net.backward_ms.p90"] = ms(bwd16, 90)
    out["neural_net.lstm_share"] = _ratio(total("neural_net.lstm_forward"),
                                          total("neural_net.model_forward"))
    out["neural_net.forward_calls"] = len(forwards) if forwards else None
    out["neural_net.backward_calls"] = len(backwards) if backwards else None
    flops16 = [s.attrs["flops"] for s in forwards if s.attrs.get("batch") == TRAIN_BATCH]
    out["neural_net.gflop_per_batch"] = max(flops16) / 1e9 if flops16 else None
    flops = sum(s.attrs.get("flops", 0) for s in forwards + backwards)
    compute_s = sum(s.duration for s in forwards + backwards)
    out["neural_net.gflops"] = _ratio(flops / 1e9, compute_s) if flops else None
    trace_bytes = [s.attrs["trace_bytes"] for s in forwards if "trace_bytes" in s.attrs]
    out["neural_net.trace_mb"] = max(trace_bytes) / 1e6 if trace_bytes else None
    loads = [s.duration for s in named("neural_net.load_model")]
    saves = [s.duration for s in named("neural_net.save_model")]
    out["neural_net.load_model_ms"] = ms(loads, 50)
    out["neural_net.save_model_ms"] = ms(saves, 50)
    sizes = [s.attrs["bytes"] for s in named("neural_net.save_model") if "bytes" in s.attrs]
    out["neural_net.model_bytes"] = max(sizes) if sizes else None

    adams = [s.duration for s in named("train_eval.adam_step")]
    out["train_eval.adam_ms.p50"] = ms(adams, 50)
    out["train_eval.adam_calls"] = len(adams) if adams else None
    folds = named("train_eval.train_model")
    step_names = ("neural_net.model_forward", "neural_net.model_backward",
                  "train_eval.adam_step")
    fold_self, eval_s = [], 0.0
    for fold in folds:
        fold_kids = kids.get(fold.id, [])
        fold_self.append(fold.duration - sum(c.duration for c in fold_kids
                                             if c.name in step_names))
        # a forward pass that no backward pass follows is an evaluation
        for k, child in enumerate(fold_kids):
            nxt = fold_kids[k + 1].name if k + 1 < len(fold_kids) else None
            if child.name == step_names[0] and nxt != step_names[1]:
                eval_s += child.duration
    out["train_eval.fold_s"] = percentile([f.duration for f in folds], 50)
    out["train_eval.fold_self_s"] = percentile(fold_self, 50)
    out["train_eval.eval_share"] = _ratio(eval_s, sum(f.duration for f in folds))
    task_bytes = [s.attrs["task_bytes"] for s in named("train_eval._run_cell")]
    out["train_eval.task_bytes"] = max(task_bytes) if task_bytes else None

    out["cli.self_s"] = busy("cli")
    return out
