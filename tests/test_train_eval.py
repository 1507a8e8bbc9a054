import math
from dataclasses import replace

import numpy as np
import pytest

from convser.audio_io import DatasetManifest, SampleRecord
from convser.dsp_features import FeatureMatrix
from convser.exceptions import ParameterError
from convser.neural_net import ModelConfig, ModelParams, init_params
from convser.report import (
    CSV_COLUMNS,
    parse_percent,
    read_results_csv,
    render_text_table,
    write_results_csv,
)
from convser import train_eval
from convser.train_eval import (
    AdamState,
    ConfusionCounts,
    GridFailure,
    TrainConfig,
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
    """Linearly separable features: class mean +-separation on coefficient 0."""
    rng = np.random.default_rng(seed)
    max_frames = max_frames or t
    store = {}
    for rec in manifest.records:
        values = np.zeros((max_frames, width))
        base = rng.normal(0.0, noise, (t, width))
        base[:, 0] += separation if rec.label == 1 else -separation
        values[:t] = np.clip(base, -1, 1)
        store[rec.id] = FeatureMatrix(values=values, n_valid_frames=t)
    return store


class TestAdam:
    def config(self, **kw):
        return TrainConfig(epochs=1, seed=0, **kw)

    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, self.config())
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.5, -3.0, 1e-4):
            params = {"w": np.array(1.0)}
            state = AdamState.for_params(params)
            adam_step(params, {"w": np.array(g)}, state, self.config())
            delta = float(params["w"]) - 1.0
            expected = -0.001 * g / (abs(g) + 1e-8)
            assert delta == pytest.approx(expected, rel=1e-9)

    def test_two_steps_move_against_gradient(self):
        params = {"w": np.array(0.3)}
        state = AdamState.for_params(params)
        grads = {"w": np.array(2.0)}
        adam_step(params, grads, state, self.config())
        after_one = float(params["w"])
        adam_step(params, grads, state, self.config())
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
            adam_step(params, {"w": np.array(g)}, state, self.config())
        assert float(params["w"]) == pytest.approx(expected, abs=1e-12)

    def test_works_on_model_params(self):
        # the tensor dict is a set of views: the step updates the model in place
        config = ModelConfig(filters=2, kernel_size=3, lstm_units=2, n_mfcc=3, max_frames=2)
        params = init_params(config, 0)
        grads = init_params(config, 1).tensors()
        state = AdamState.for_params(params.tensors())
        before = params.copy()
        adam_step(params.tensors(), grads, state, self.config())
        assert not np.array_equal(params.lstm_w, before.lstm_w)


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

    def test_best_val_selection(self):
        manifest = toy_manifest(24)
        features = toy_features(manifest)
        result = train_model(
            self.model_config(),
            self.small_config(epochs=8, model_selection="best_val"),
            features, manifest,
        )
        best_epoch = int(np.argmax(result.history["val_accuracy"]))
        assert result.selected_epoch == best_epoch

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
        features = toy_features(manifest)
        features.pop("rec003")
        with pytest.raises(ParameterError, match="rec003"):
            train_model(self.model_config(), self.small_config(), features, manifest)


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

        def spy_adam(params, grads, state, config):
            applied.append({k: np.array(v, copy=True) for k, v in grads.items()})
            return real_adam(params, grads, state, config)

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


class TestGrid:
    def grid_inputs(self, n=12, t=4):
        manifest = toy_manifest(n)
        features13 = toy_features(manifest, t=t, width=13, seed=1)
        features40 = toy_features(manifest, t=t, width=40, seed=2)
        return manifest, features13, features40

    def test_grid_shape_and_order(self):
        manifest, f13, f40 = self.grid_inputs()
        config = TrainConfig(epochs=1, seed=5, n_shuffles=3)
        results = run_grid(config, f13, manifest, f40, manifest)
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
        manifest, f13, f40 = self.grid_inputs()
        f40.pop("rec000")  # every 40-wide cell now fails
        config = TrainConfig(epochs=1, seed=5, n_shuffles=2)
        results = run_grid(config, f13, manifest, f40, manifest)
        assert all(isinstance(r, GridFailure) for r in results[40])
        assert all(not isinstance(r, GridFailure) for r in results[13])
        write_results_csv(results[40], tmp_path / "results_40.csv")
        rows = read_results_csv(tmp_path / "results_40.csv")
        assert rows[0]["Ø Accuracy"] == "failed"

    def test_model_id_for_custom_config(self):
        config = ModelConfig(filters=8, kernel_size=5, lstm_units=20, n_mfcc=13, max_frames=4)
        assert grid_model_id(config) == "custom-8-5-20"


class TestResultsCsv:
    def test_schema_and_roundtrip(self, tmp_path):
        manifest, f13, _ = TestGrid().grid_inputs()
        config = TrainConfig(epochs=1, seed=5, n_shuffles=2)
        results = run_grid(config, f13, manifest, toy_features(manifest, t=4, width=40),
                           manifest)
        path = tmp_path / "results_13.csv"
        write_results_csv(results[13], path)
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
