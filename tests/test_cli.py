import json
from pathlib import Path

import numpy as np
import pytest

from convser import cli, neural_net, train_eval
from convser.audio_io import load_manifest
from convser.cli import main
from convser.dsp_features import load_features

FIXTURE = Path(__file__).parent / "fixtures" / "results_40_reference.csv"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """corpus -> augmented -> features, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    corpus = root / "corpus"
    augmented = root / "augmented"
    features = root / "features"
    assert run("synth", "--n", 6, "--duration", 1.0, "--seed", 7, "--out", corpus) == 0
    assert run("augment", "--manifest", corpus / "manifest.jsonl", "--seed", 7,
               "--out", augmented) == 0
    assert run("extract", "--manifest", augmented / "manifest.jsonl", "--max-frames", 6,
               "--out", features) == 0
    return {"root": root, "corpus": corpus, "augmented": augmented, "features": features}


class TestSynth:
    def test_writes_corpus(self, tmp_path, capsys):
        assert run("synth", "--n", 4, "--duration", 0.5, "--seed", 1,
                   "--out", tmp_path / "c") == 0
        assert len(list((tmp_path / "c").glob("*.wav"))) == 4
        assert (tmp_path / "c" / "manifest.jsonl").is_file()
        assert "4 files" in capsys.readouterr().out

    def test_same_seed_identical_trees(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--n", 3, "--duration", 0.4, "--seed", 5,
                       "--out", tmp_path / name) == 0
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("synth", "--n", 4)
        assert excinfo.value.code == 2


class TestAugment:
    def test_prints_counts(self, pipeline, capsys):
        capsys.readouterr()
        out = pipeline["root"] / "augment_again"
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--seed", 7, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "6 -> 48" in printed
        assert (out / "augmentation_plan.json").is_file()

    def test_zero_variants_identity(self, pipeline, tmp_path, capsys):
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--variants", 0, "--out", tmp_path / "noop") == 0
        assert "6 -> 6" in capsys.readouterr().out
        manifest = (tmp_path / "noop" / "manifest.jsonl").read_text().splitlines()
        assert len(manifest) == 6

    def test_paper_scale_counts(self, tmp_path, capsys):
        assert run("synth", "--n", 38, "--duration", 0.5, "--seed", 2,
                   "--out", tmp_path / "c38") == 0
        assert run("augment", "--manifest", tmp_path / "c38" / "manifest.jsonl",
                   "--seed", 2, "--out", tmp_path / "a38") == 0
        assert "38 -> 304" in capsys.readouterr().out


class TestExtract:
    def test_feature_files_and_widths(self, pipeline):
        for width, expect_cols in ((13, 13), (40, 40)):
            files = sorted((pipeline["features"] / str(width)).glob("*.features.csv"))
            assert len(files) == 48
            first_row = files[0].read_text().splitlines()[0]
            assert len(first_row.split(",")) == expect_cols

    def test_rerun_is_cached(self, pipeline, capsys):
        capsys.readouterr()
        assert run("extract", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--max-frames", 6, "--out", pipeline["features"]) == 0
        printed = capsys.readouterr().out
        assert "extracted 0, cached 48" in printed

    def test_corrupt_wav_reported(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("synth", "--n", 2, "--duration", 0.5, "--seed", 3, "--out", corpus) == 0
        bad = corpus / "synth001.wav"
        bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunkjunk")
        assert run("extract", "--manifest", corpus / "manifest.jsonl", "--mfcc", "13",
                   "--max-frames", 3, "--out", tmp_path / "f") == 1
        err = capsys.readouterr().err
        assert "synth001" in err


@pytest.fixture(scope="module")
def run_dir(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
             "--features", pipeline["features"], "--mfcc", "13",
             "--filters", 16, "--kernel", 5, "--lstm", 20,
             "--epochs", 2, "--seed", 11, "--out", out)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def grid_dir(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    rc = run("grid", "--manifest", pipeline["augmented"] / "manifest.jsonl",
             "--features", pipeline["features"], "--epochs", 1, "--seed", 13,
             "--out", out)
    assert rc == 0
    return out


class TestTrainPredictEvaluate:
    def test_run_artifacts(self, run_dir):
        run_doc = json.loads((run_dir / "M1-13_run.json").read_text())
        assert run_doc["model_id"] == "M1-13"
        assert len(run_doc["fold_seeds"]) == 3
        models = sorted(run_dir.glob("M1-13_fold*.model.json"))
        assert len(models) == 3
        doc = json.loads(models[0].read_text())
        assert doc["format_version"] == 1
        assert doc["feature_config"]["n_mfcc"] == 13
        assert doc["config_hash"]

    def test_predict_prints_probability(self, pipeline, run_dir, capsys):
        capsys.readouterr()
        wav = pipeline["corpus"] / "synth000.wav"
        assert run("predict", "--model", run_dir / "M1-13_fold0.model.json", wav) == 0
        line = capsys.readouterr().out.strip()
        path_str, prob, label = line.split("\t")
        assert path_str.endswith("synth000.wav")
        assert 0.0 < float(prob) < 1.0
        assert label in ("0", "1")

    def test_evaluate_prints_metrics(self, pipeline, run_dir, capsys):
        capsys.readouterr()
        assert run("evaluate", "--model", run_dir / "M1-13_fold0.model.json",
                   "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", pipeline["features"]) == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed and "tp=" in printed

    def test_evaluate_scores_like_training(self, pipeline, run_dir, capsys, monkeypatch):
        """evaluate scores in the model's dtype, in training's batches, and
        prints the counts of train_eval.evaluate."""
        model = run_dir / "M1-13_fold0.model.json"
        params = neural_net.load_model(model)
        assert params.conv_w.dtype == np.float32
        batches = []
        real_forward = neural_net.model_forward

        def spy_forward(features, params):
            batches.append((features.dtype, len(features)))
            return real_forward(features, params)

        for module in (cli, train_eval, neural_net):
            monkeypatch.setattr(module, "model_forward", spy_forward)
        manifest_path = pipeline["augmented"] / "manifest.jsonl"
        capsys.readouterr()
        assert run("evaluate", "--model", model, "--manifest", manifest_path,
                   "--features", pipeline["features"]) == 0
        printed = capsys.readouterr().out
        assert batches and all(dtype == np.float32 and n <= 16 for dtype, n in batches)
        assert sum(n for _, n in batches) == 48

        records = load_manifest(manifest_path).records
        x = np.stack([load_features(pipeline["features"] / "13", rec.id).values
                      for rec in records]).astype(np.float32)
        y = np.array([rec.label for rec in records])
        _, _, preds = train_eval.evaluate(params, x, y, 16)
        counts = train_eval.confusion(preds.tolist(), y.tolist())
        assert f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}" in printed

    def test_missing_features_is_actionable(self, pipeline, tmp_path, capsys):
        rc = run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                 "--features", tmp_path / "nothing", "--mfcc", "13",
                 "--epochs", 1, "--out", tmp_path / "r")
        assert rc == 1
        assert "convser extract" in capsys.readouterr().err


class TestGridAndReport:
    def test_grid_outputs(self, grid_dir):
        for width in (13, 40):
            lines = (grid_dir / f"results_{width}.csv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == ("Model,Filters,Kernel Size,LSTM Neurons,"
                                "Ø Accuracy,Ø Precision,Ø Sensitivity,Ø F1-Score")
            assert len(lines) == 9
            assert lines[1].startswith(f"M1-{width},16,5,20,")
        manifest = json.loads((grid_dir / "run_manifest.json").read_text())
        assert manifest["seed"] == 13
        assert len(manifest["cells"]) == 16

    def test_report_renders_grid_csv(self, grid_dir, capsys):
        capsys.readouterr()
        assert run("report", "--results", grid_dir / "results_13.csv") == 0
        printed = capsys.readouterr().out
        assert "M1-13" in printed and "Ø Accuracy" in printed

    def test_report_renders_reference_fixture(self, tmp_path, capsys):
        capsys.readouterr()
        svg = tmp_path / "accuracy.svg"
        assert run("report", "--results", FIXTURE, "--svg", svg) == 0
        printed = capsys.readouterr().out
        assert "M8-40" in printed
        assert "98.91%" in printed
        assert svg.read_text().startswith("<svg")
