import math
import multiprocessing
import os
import signal
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from convser.audio_io import DatasetManifest, SampleRecord
from convser.exceptions import ConvserError, ParameterError
from convser.neural_net import ModelConfig, ModelParams, init_params, save_model
from convser.report import (
    CSV_COLUMNS,
    parse_percent,
    read_results_csv,
    render_text_table,
    results_csv,
)
from convser import train_eval
from convser.train_eval import (
    AdamState,
    ConfusionCounts,
    GridFailure,
    MetricsReport,
    TrainConfig,
    TrainResult,
    adam_step,
    average_metrics,
    clip_global_norm,
    confusion,
    cross_validate,
    grid_model_id,
    metrics,
    run_grid,
    split_dataset,
    train_model,
)


def toy_manifest(n, group_size=1, prefix="rec"):
    """In-memory manifest; labels alternate, group ids bundle consecutive records."""
    records = [
        SampleRecord(
            id=f"{prefix}{i:03d}",
            path=f"{prefix}{i:03d}.wav",
            speaker_id=f"spk{i:03d}",
            topic_id=1 + i % 4,
            position="pro",
            label=i % 2,
            group_id=f"g{i // group_size:03d}",
            augmentation="original",
        )
        for i in range(n)
    ]
    return DatasetManifest(records=records, root=".")


def toy_features(manifest, t=6, width=5, separation=0.5, noise=0.05, seed=0,
                 max_frames=None):
    """Linearly separable (records, max_frames, width) features in manifest
    order: class mean +-separation on coefficient 0, zero rows past t."""
    rng = np.random.default_rng(seed)
    values = np.zeros((len(manifest), max_frames or t, width))
    for k, rec in enumerate(manifest.records):
        base = rng.normal(0.0, noise, (t, width))
        base[:, 0] += separation if rec.label == 1 else -separation
        values[k, :t] = np.clip(base, -1, 1)
    return values


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, 0.001)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.5, -3.0, 1e-4):
            params = {"w": np.array(1.0)}
            state = AdamState.for_params(params)
            adam_step(params, {"w": np.array(g)}, state, 0.001)
            delta = float(params["w"]) - 1.0
            expected = -0.001 * g / (abs(g) + 1e-8)
            assert delta == pytest.approx(expected, rel=1e-9)

    def test_two_steps_move_against_gradient(self):
        params = {"w": np.array(0.3)}
        state = AdamState.for_params(params)
        grads = {"w": np.array(2.0)}
        adam_step(params, grads, state, 0.001)
        after_one = float(params["w"])
        adam_step(params, grads, state, 0.001)
        after_two = float(params["w"])
        assert after_one < 0.3
        assert after_two < after_one

    def test_matches_hand_computed_trajectory(self):
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        theta, g = 0.7, -1.3
        m = v = 0.0
        expected = theta
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            expected -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = {"w": np.array(theta)}
        state = AdamState.for_params(params)
        for _ in range(2):
            adam_step(params, {"w": np.array(g)}, state, 0.001)
        assert float(params["w"]) == pytest.approx(expected, abs=1e-12)

    def test_works_on_model_params(self):
        # the tensor dict is a set of views: the step updates the model in place
        config = ModelConfig(filters=2, kernel_size=3, lstm_units=2, n_mfcc=3, max_frames=2)
        params = init_params(config, 0)
        grads = init_params(config, 1).tensors()
        state = AdamState.for_params(params.tensors())
        before = {name: t.copy() for name, t in params.tensors().items()}
        adam_step(params.tensors(), grads, state, 0.001)
        assert not np.array_equal(params.lstm_w, before["lstm_w"])


class TestSplit:
    def test_seventy_thirty(self):
        train, val = split_dataset(toy_manifest(100), 0.7, "paper", seed=1)
        assert len(train) == 70 and len(val) == 30
        assert set(train) | set(val) == {f"rec{i:03d}" for i in range(100)}
        assert not set(train) & set(val)

    def test_same_seed_same_split(self):
        manifest = toy_manifest(40)
        assert split_dataset(manifest, 0.7, "paper", 5) == split_dataset(manifest, 0.7, "paper", 5)

    def test_different_seeds_differ(self):
        manifest = toy_manifest(40)
        splits = {tuple(split_dataset(manifest, 0.7, "paper", s)[0]) for s in (1, 2, 3)}
        assert len(splits) == 3

    def test_grouped_no_overlap(self):
        manifest = toy_manifest(48, group_size=8)
        for seed in range(5):
            train, val = split_dataset(manifest, 0.7, "grouped", seed)
            groups = {rec.id: rec.group_id for rec in manifest.records}
            assert not {groups[i] for i in train} & {groups[i] for i in val}
            assert len(train) + len(val) == 48
            assert val

    def test_grouped_single_group_fails(self):
        manifest = toy_manifest(8, group_size=8)
        with pytest.raises(ParameterError, match="group"):
            split_dataset(manifest, 0.7, "grouped", 0)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            split_dataset(toy_manifest(10), 0.7, "stratified", 0)


class TestConfusionAndMetrics:
    def test_hand_counted_example(self):
        counts = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 1, 1)
        report = metrics(counts)
        assert report.accuracy == report.precision == report.sensitivity == report.f1 == 0.5

    def test_perfect_classifier(self):
        counts = confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert counts.fp == counts.fn == 0
        report = metrics(counts)
        assert report.accuracy == report.precision == report.sensitivity == report.f1 == 1.0

    def test_all_positives_missed(self):
        counts = confusion([0, 0, 0], [1, 1, 1])
        assert counts.tp == 0 and counts.fn == 3
        report = metrics(counts)
        assert report.precision is None  # nothing predicted positive
        assert report.sensitivity == 0.0
        assert report.f1 is None

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            confusion([1, 0], [1])

    def test_brute_force_recount(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            counts = confusion(preds.tolist(), labels.tolist())
            assert counts.tp == int(np.sum((preds == 1) & (labels == 1)))
            assert counts.fp == int(np.sum((preds == 1) & (labels == 0)))
            assert counts.tn == int(np.sum((preds == 0) & (labels == 0)))
            assert counts.fn == int(np.sum((preds == 0) & (labels == 1)))
            assert counts.total == n
            report = metrics(counts)
            assert round(report.accuracy * n) == counts.tp + counts.tn

    def test_published_row_satisfies_harmonic_identity(self):
        # reference row: accuracy 98.91, precision 100.00, sensitivity 98.15, f1 99.05
        precision, sensitivity, f1 = 1.0, 0.9815, 0.9905
        harmonic = 2 * precision * sensitivity / (precision + sensitivity)
        assert abs(f1 - harmonic) <= 0.005

    def test_average_excludes_undefined(self):
        reports = [
            metrics(ConfusionCounts(tp=1, fp=0, tn=1, fn=0)),
            metrics(ConfusionCounts(tp=0, fp=0, tn=2, fn=1)),
        ]
        averaged, excluded = average_metrics(reports)
        assert excluded["precision"] == 1
        assert averaged.precision == 1.0
        assert averaged.sensitivity == 0.5
        assert excluded["f1"] == 1


class TestTrainModel:
    def small_config(self, **kw):
        defaults = dict(epochs=60, batch_size=16, seed=3, n_shuffles=3, dtype="float64")
        defaults.update(kw)
        return TrainConfig(**defaults)

    def model_config(self, width=5, t=6):
        return ModelConfig(filters=2, kernel_size=3, lstm_units=4, n_mfcc=width, max_frames=t)

    def test_reaches_full_train_accuracy_on_separable_toy(self):
        manifest = toy_manifest(40)
        features = toy_features(manifest)
        result = train_model(self.model_config(), self.small_config(epochs=120),
                             features, manifest)
        assert max(result.history["train_accuracy"]) == 1.0

    def test_initial_loss_near_log2(self):
        manifest = toy_manifest(40)
        features = toy_features(manifest)
        result = train_model(self.model_config(), self.small_config(epochs=1),
                             features, manifest)
        assert abs(result.history["train_loss"][0] - math.log(2)) <= 0.15

    def test_deterministic(self):
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        a = train_model(self.model_config(), self.small_config(epochs=5), features, manifest)
        b = train_model(self.model_config(), self.small_config(epochs=5), features, manifest)
        assert a.history["val_accuracy"] == b.history["val_accuracy"]
        for name in ModelParams.TENSOR_NAMES:
            assert np.array_equal(getattr(a.params, name), getattr(b.params, name))

    def test_history_lengths(self):
        manifest = toy_manifest(20)
        features = toy_features(manifest)
        result = train_model(self.model_config(), self.small_config(epochs=4),
                             features, manifest)
        for curve in result.history.values():
            assert len(curve) == 5  # epoch 0 evaluation plus 4 epochs

    def test_final_validation_scoring(self, monkeypatch):
        """Validation is scored once before training and once per epoch, and
        the counts come from the last epoch's predictions, which are those of
        the returned weights."""
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        real_evaluate = train_eval.evaluate
        scored_rows = []

        def spy_evaluate(params, x, y, batch_size):
            scored_rows.append(len(x))
            return real_evaluate(params, x, y, batch_size)

        monkeypatch.setattr(train_eval, "evaluate", spy_evaluate)
        config = self.small_config(epochs=4)
        result = train_model(self.model_config(), config, features, manifest)
        n_val = len(result.val_ids)
        assert n_val != len(result.train_ids)
        assert scored_rows.count(n_val) == config.epochs + 1

        row = {rec.id: k for k, rec in enumerate(manifest.records)}
        val_rows = [row[i] for i in result.val_ids]
        x_val = features[val_rows]
        y_val = np.array([manifest.records[k].label for k in val_rows])
        _, _, preds = real_evaluate(result.params, x_val, y_val, config.batch_size)
        assert result.counts == confusion(preds.tolist(), y_val.tolist())

    def test_each_batch_trace_is_freed_before_the_next_forward(self, monkeypatch):
        """No batch's forward runs while an earlier batch's ForwardTrace, the
        largest array set of a training step, is still alive."""
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        real_forward = train_eval.model_forward
        traces, alive = [], []

        def spy_forward(x, params):
            alive.append(sum(ref() is not None for ref in traces))
            prob, trace = real_forward(x, params)
            traces.append(weakref.ref(trace))
            return prob, trace

        monkeypatch.setattr(train_eval, "model_forward", spy_forward)
        train_model(self.model_config(), self.small_config(epochs=2, batch_size=4),
                    features, manifest)
        assert len(alive) >= 2 * 2  # 2 epochs of at least 2 batches
        assert alive == [0] * len(alive), alive

    def test_single_label_manifest_rejected(self):
        manifest = toy_manifest(10)
        for rec in manifest.records:
            rec.label = 1
        features = toy_features(manifest)
        with pytest.raises(ParameterError, match="both labels"):
            train_model(self.model_config(), self.small_config(), features, manifest)

    def test_width_mismatch_rejected(self):
        manifest = toy_manifest(10)
        features = toy_features(manifest, width=7)
        with pytest.raises(ParameterError, match="width"):
            train_model(self.model_config(width=5), self.small_config(), features, manifest)

    def test_missing_features_rejected(self):
        manifest = toy_manifest(10)
        features = np.delete(toy_features(manifest), 3, axis=0)
        with pytest.raises(ParameterError, match=r"\(9, 6, 5\).*\(10, 6, 5\)"):
            train_model(self.model_config(), self.small_config(), features, manifest)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -0.01])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ParameterError, match="learning_rate must be a finite number > 0"):
            self.small_config(learning_rate=rate)


class TestGradientClipAndConvBias:
    """Training clips the global gradient norm before ADAM and never updates
    the shared convolution bias."""

    def model_config(self):
        return ModelConfig(filters=2, kernel_size=3, lstm_units=4, n_mfcc=5, max_frames=6)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array(4.0)}
        clip_global_norm(grads, 1.0)
        assert np.allclose(grads["a"], [0.6, 0.0]) and float(grads["b"]) == pytest.approx(0.8)
        small = {"a": np.array([0.3, -0.4])}
        clip_global_norm(small, 1.0)
        assert np.array_equal(small["a"], [0.3, -0.4])  # under the threshold: untouched

    def test_adam_receives_clipped_gradient(self, monkeypatch):
        raw, applied = [], []
        real_backward, real_adam = train_eval.model_backward, train_eval.adam_step

        def spy_backward(trace, y, params):
            grads = real_backward(trace, y, params)
            raw.append({k: v.copy() for k, v in grads.tensors().items()})
            return grads

        def spy_adam(params, grads, state, learning_rate):
            applied.append({k: np.array(v, copy=True) for k, v in grads.items()})
            return real_adam(params, grads, state, learning_rate)

        monkeypatch.setattr(train_eval, "model_backward", spy_backward)
        monkeypatch.setattr(train_eval, "adam_step", spy_adam)
        clip = 1e-3  # far below any real gradient norm: every step is oversized
        monkeypatch.setattr(train_eval, "GRAD_CLIP_NORM", clip)
        manifest = toy_manifest(24)
        config = TrainConfig(epochs=2, batch_size=8, seed=3, dtype="float64")
        train_model(self.model_config(), config, toy_features(manifest), manifest)
        assert len(applied) == len(raw) > 0
        # conv_b has a gradient, but ADAM never sees it
        assert any(np.any(before["conv_b"] != 0.0) for before in raw)
        for before, after in zip(raw, applied):
            assert set(after) == set(ModelParams.TENSOR_NAMES) - {"conv_b"}
            norm = math.sqrt(sum(float(np.vdot(g, g)) for g in before.values()))
            assert norm > clip
            for name, g in after.items():
                assert np.allclose(g, before[name] * (clip / norm), rtol=1e-12, atol=0.0)

    def test_conv_bias_stays_zero(self):
        manifest = toy_manifest(24)
        result = train_model(self.model_config(),
                             TrainConfig(epochs=5, seed=3, dtype="float64"),
                             toy_features(manifest), manifest)
        assert result.params.conv_b.shape == (2,)
        assert np.all(result.params.conv_b == 0.0)


class TestDivergenceGuard:
    """A non-finite batch loss or gradient norm stops training, naming where."""

    @staticmethod
    def nan_backward(monkeypatch, from_call):
        real_backward = train_eval.model_backward
        calls = []

        def poisoned(trace, y, params):
            grads = real_backward(trace, y, params)
            calls.append(1)
            if len(calls) >= from_call:
                grads.lstm_u[0, 0] = np.nan
            return grads

        monkeypatch.setattr(train_eval, "model_backward", poisoned)

    def test_nan_gradient_names_fold_epoch_and_batch(self, monkeypatch):
        manifest = toy_manifest(24)
        model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=4, n_mfcc=5, max_frames=6)
        config = TrainConfig(epochs=3, batch_size=8, seed=3, dtype="float64")
        self.nan_backward(monkeypatch, from_call=4)  # 17 training records: 3 batches per epoch
        with pytest.raises(ConvserError,
                           match=r"fold seed 3, epoch 2, batch 1: loss [0-9.]+, gradient norm nan"):
            train_model(model_config, config, toy_features(manifest), manifest)

    def test_run_grid_records_divergence_as_failure(self, monkeypatch):
        manifest = toy_manifest(12)
        f13 = toy_features(manifest, t=4, width=13, seed=1)
        f40 = toy_features(manifest, t=4, width=40, seed=2)
        self.nan_backward(monkeypatch, from_call=1)
        results = run_grid(TrainConfig(epochs=1, seed=5, n_shuffles=2), {13: f13, 40: f40},
                           manifest)
        for width in (13, 40):
            assert len(results[width]) == 8
            for cell in results[width]:
                assert isinstance(cell, GridFailure)
                assert cell.error.startswith("ConvserError: training diverged at fold seed 5, "
                                             "epoch 1, batch 1")


class TestCrossValidate:
    def test_averages_and_seeds(self):
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        config = TrainConfig(epochs=2, seed=11, n_shuffles=3, dtype="float64")
        model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5,
                                   max_frames=6)
        report = cross_validate(model_config, config, features, manifest)
        assert report.fold_seeds == [11, 12, 13]
        assert len(report.fold_metrics) == 3
        expected = sum(m.accuracy for m in report.fold_metrics) / 3
        assert report.averaged.accuracy == pytest.approx(expected, abs=1e-15)
        assert len(report.histories) == 3

    def test_one_epoch_degenerate_run(self):
        manifest = toy_manifest(16)
        features = toy_features(manifest)
        config = TrainConfig(epochs=1, seed=0, n_shuffles=3, dtype="float64")
        model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=2, n_mfcc=5,
                                   max_frames=6)
        report = cross_validate(model_config, config, features, manifest)
        assert len(report.fold_metrics) == 3

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_jobs_do_not_change_results(self, dtype):
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        config = TrainConfig(epochs=3, seed=5, n_shuffles=3, dtype=dtype)
        model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5,
                                   max_frames=6)
        serial = cross_validate(model_config, config, features, manifest, jobs=1)
        pooled = cross_validate(model_config, config, features, manifest, jobs=2)
        assert serial.fold_seeds == pooled.fold_seeds == [5, 6, 7]
        assert serial.fold_counts == pooled.fold_counts
        assert serial.histories == pooled.histories
        assert serial.averaged == pooled.averaged
        for fa, fb in zip(serial.folds, pooled.folds, strict=True):
            assert (fa.train_ids, fa.val_ids) == (fb.train_ids, fb.val_ids)
            for name in ModelParams.TENSOR_NAMES:
                assert np.array_equal(getattr(fa.params, name), getattr(fb.params, name))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_saved_folds_write_the_models_the_caller_would(self, tmp_path, jobs):
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        config = TrainConfig(epochs=2, seed=5, n_shuffles=3)
        model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5,
                                   max_frames=6)
        returned = cross_validate(model_config, config, features, manifest)
        (tmp_path / "saved").mkdir()
        saved = cross_validate(model_config, config, features, manifest, jobs=jobs,
                               save_dir=tmp_path / "saved", model_extra={"note": "x"})
        assert saved.histories == returned.histories and saved.averaged == returned.averaged
        assert all(fold.params is None for fold in saved.folds)
        model_id = grid_model_id(model_config)
        assert sorted(p.name for p in (tmp_path / "saved").iterdir()) == [
            f"{model_id}_fold{k}.model.json" for k in range(3)]
        for k, fold in enumerate(returned.folds):
            path = tmp_path / f"fold{k}.model.json"
            save_model(fold.params, path,
                       extra={"fold_seed": fold.seed, "model_id": model_id, "note": "x"})
            assert (tmp_path / "saved" / f"{model_id}_fold{k}.model.json").read_bytes() == \
                path.read_bytes()

    def test_failed_fold_raises_as_it_does_serially(self):
        manifest = toy_manifest(12)
        features = toy_features(manifest)[1:]  # one row short: every fold fails
        config = TrainConfig(epochs=1, seed=5, n_shuffles=2)
        model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5,
                                   max_frames=6)
        errors = []
        for jobs in (1, 2):
            with pytest.raises(ParameterError, match=r"\(11, 6, 5\).*\(12, 6, 5\)") as info:
                cross_validate(model_config, config, features, manifest, jobs=jobs)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


def blas_thread_count(_=None):
    """The thread count of the OpenBLAS that numpy has loaded into this process."""
    return train_eval._blas_threads()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in fold reaches the workers by fork")
@pytest.mark.skipif(train_eval._openblas_setter() is None,
                    reason="no OpenBLAS thread-count function in this process")
def test_pool_workers_run_one_blas_thread(monkeypatch):
    def fold_reporting_threads(model_config, train_config, features, manifest):
        return TrainResult(params=None, history={"blas_threads": blas_thread_count()},
                           metrics=MetricsReport(1.0, 1.0, 1.0, 1.0), counts=ConfusionCounts(),
                           train_ids=[], val_ids=[], seed=train_config.seed, wall_time_s=0.0)

    monkeypatch.setattr(train_eval, "train_model", fold_reporting_threads)
    before = blas_thread_count()
    manifest = toy_manifest(12)
    config = TrainConfig(n_shuffles=2)
    model_config = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5, max_frames=6)
    run = cross_validate(model_config, config, toy_features(manifest), manifest, jobs=2)
    assert [h["blas_threads"] for h in run.histories] == [1, 1]
    cells = run_grid(config, {13: toy_features(manifest, width=13),
                              40: toy_features(manifest, width=40)}, manifest, jobs=2)
    assert [h["blas_threads"] for width in (13, 40) for cell in cells[width]
            for h in cell.histories] == [1] * 32
    assert train_eval.map_tasks(blas_thread_count, [0, 1], 2) == [1, 1]
    assert blas_thread_count() == before


def fail_on_three(task):
    if task == 3:
        raise ValueError("task 3")
    return blas_thread_count()


@pytest.mark.skipif(train_eval._openblas_setter() is None,
                    reason="no OpenBLAS thread-count function in this process")
def test_in_process_tasks_run_one_blas_thread_and_restore_the_count():
    setter = train_eval._openblas_setter()[1]
    before = blas_thread_count()
    setter(2)
    try:
        assert train_eval.map_tasks(blas_thread_count, [0, 1], 1) == [1, 1]
        assert blas_thread_count() == 2
        with pytest.raises(ValueError, match="task 3"):
            train_eval.map_tasks(fail_on_three, [2, 3], 1)
        assert blas_thread_count() == 2
    finally:
        setter(before)


def thread_count(_=None):
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="forked workers inherit the stopped BLAS thread pool")
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to count threads")
@pytest.mark.skipif(train_eval._openblas_setter() is None or not hasattr(
    train_eval._openblas_setter()[0], "blas_thread_shutdown_"),
    reason="no OpenBLAS thread-pool shutdown in this process")
def test_pinned_workers_keep_no_idle_blas_thread():
    assert train_eval.map_tasks(thread_count, [0, 1], 2) == [1, 1]


def test_training_pool_without_openblas_warns_once_and_runs(monkeypatch, caplog):
    monkeypatch.setattr(train_eval, "_openblas_setter", lambda: None)
    assert train_eval.map_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "no OpenBLAS thread-count function" in warnings[0].getMessage()


@pytest.mark.parametrize("n_folds, cores, workers",
                         [(3, 2, 3), (4, 2, 2), (3, 1, 1), (1, 4, 1), (3, 8, 3), (6, 4, 6)])
def test_fold_workers_split_the_folds_evenly(n_folds, cores, workers):
    assert train_eval.fold_workers(n_folds, cores) == workers


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="unpicklable tasks reach the workers by fork only")
def test_pooled_tasks_are_not_pickled():
    lock = threading.Lock()
    tasks = [(lock, lambda k=k: k * k) for k in range(5)]  # neither pickles

    def square_and_pid(task):
        return task[1]() + task[0].locked(), os.getpid()

    pooled = train_eval.map_tasks(square_and_pid, tasks, 2)
    assert [value for value, _ in pooled] == [square_and_pid(t)[0] for t in tasks]
    assert os.getpid() not in {pid for _, pid in pooled}


def kill_own_worker(task):
    if task == 1 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def test_killed_worker_raises_convser_error():
    with pytest.raises(ConvserError, match=r"^kill_own_worker: a worker process ended "
                                           r"abruptly \(killed or out of memory\)$"):
        train_eval.map_tasks(kill_own_worker, [0, 1, 2], 2)


class TestGrid:
    def grid_inputs(self, n=12, t=4):
        manifest = toy_manifest(n)
        return manifest, {13: toy_features(manifest, t=t, width=13, seed=1),
                          40: toy_features(manifest, t=t, width=40, seed=2)}

    def test_grid_shape_and_order(self):
        manifest, features = self.grid_inputs()
        config = TrainConfig(epochs=1, seed=5, n_shuffles=3)
        results = run_grid(config, features, manifest)
        for width in (13, 40):
            assert len(results[width]) == 8
            assert [r.model_id for r in results[width]] == [
                f"M{k}-{width}" for k in range(1, 9)
            ]
        first = results[13][0].model_config
        assert (first.filters, first.kernel_size, first.lstm_units) == (16, 5, 20)
        last = results[40][7].model_config
        assert (last.filters, last.kernel_size, last.lstm_units) == (32, 20, 40)
        total_runs = sum(len(r.fold_seeds) for width in (13, 40) for r in results[width])
        assert total_runs == 48

    def test_failed_cell_recorded(self, tmp_path):
        manifest, features = self.grid_inputs()
        features[40] = features[40][1:]  # one row short: every 40-wide cell fails
        config = TrainConfig(epochs=1, seed=5, n_shuffles=2)
        results = run_grid(config, features, manifest)
        assert all(isinstance(r, GridFailure) for r in results[40])
        assert all(not isinstance(r, GridFailure) for r in results[13])
        (tmp_path / "results_40.csv").write_text(results_csv(results[40]), encoding="utf-8")
        rows = read_results_csv(tmp_path / "results_40.csv")
        assert rows[0]["Ø Accuracy"] == "failed"
        assert all("(11, 4, 40)" in r.error and "(12, 4, 40)" in r.error for r in results[40])

    def test_jobs_do_not_change_results(self):
        manifest, features = self.grid_inputs()
        config = TrainConfig(epochs=2, seed=5, n_shuffles=2)
        serial = run_grid(config, features, manifest, jobs=1)
        pooled = run_grid(config, features, manifest, jobs=2)
        for width in (13, 40):
            for a, b in zip(serial[width], pooled[width], strict=True):
                assert a.model_id == b.model_id
                assert a.fold_seeds == b.fold_seeds
                assert a.fold_counts == b.fold_counts
                assert a.histories == b.histories
                assert a.averaged == b.averaged
                for fa, fb in zip(a.folds, b.folds, strict=True):
                    assert fa.params is None and fb.params is None

    @pytest.mark.parametrize("filters, kernel, units, width, model_id", [
        (16, 5, 20, 13, "M1-13"),
        (32, 5, 20, 40, "M2-40"),
        (16, 20, 20, 13, "M3-13"),
        (16, 5, 40, 40, "M5-40"),
        (32, 20, 40, 13, "M8-13"),
        (8, 5, 20, 13, "custom-8-5-20"),
        (16, 7, 20, 40, "custom-16-7-20"),
        (32, 20, 41, 13, "custom-32-20-41"),
    ])
    def test_model_id(self, filters, kernel, units, width, model_id):
        config = ModelConfig(filters=filters, kernel_size=kernel, lstm_units=units,
                             n_mfcc=width, max_frames=4)
        assert grid_model_id(config) == model_id


class TestResultsCsv:
    def test_schema_and_roundtrip(self, tmp_path):
        manifest, features = TestGrid().grid_inputs()
        config = TrainConfig(epochs=1, seed=5, n_shuffles=2)
        results = run_grid(config, features, manifest)
        path = tmp_path / "results_13.csv"
        path.write_text(results_csv(results[13]), encoding="utf-8")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "Model,Filters,Kernel Size,LSTM Neurons,Ø Accuracy,Ø Precision,"\
            "Ø Sensitivity,Ø F1-Score"
        rows = read_results_csv(path)
        assert len(rows) == 8
        assert rows[0]["Model"] == "M1-13"
        assert rows[0]["Filters"] == "16"
        for row in rows:
            value = parse_percent(row["Ø Accuracy"])
            assert value is None or 0.0 <= value <= 1.0

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Model,Accuracy\nM1-13,0.5\n")
        with pytest.raises(ParameterError, match="columns"):
            read_results_csv(path)

    def test_text_render_footnote(self):
        rows = [
            {col: "n/a" if "Ø" in col else "M1-13" for col in CSV_COLUMNS},
        ]
        text = render_text_table(rows)
        assert "n/a marks an undefined ratio" in text

    def test_percent_parsing(self):
        assert parse_percent("98.91%") == pytest.approx(0.9891)
        assert parse_percent("n/a") is None
