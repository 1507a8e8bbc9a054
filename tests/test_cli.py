import json
import multiprocessing
import os
import shutil
import signal
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from convser import augmentation, cli, neural_net, train_eval
from convser.audio_io import load_manifest, load_wav
from convser.cli import main
from convser.dsp_features import FeatureConfig, extract_features, load_features

from conftest import wav_bytes

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

    @pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf", "1e-7"])
    def test_bad_duration_flag_rejected(self, tmp_path, capsys, duration):
        assert run("synth", "--n", 2, "--duration", duration, "--out", tmp_path / "c") == 1
        assert "error: duration_s" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_null_sets_the_specs_null(self, tmp_path):
        for name, null in (("signal", ()), ("null", ("--null",))):
            assert run("synth", "--n", 2, "--duration", 0.3, "--seed", 1, *null,
                       "--out", tmp_path / name) == 0
            spec = json.loads((tmp_path / name / "synth_spec.json").read_text())
            assert spec == {"n_originals": 2, "duration_s": 0.3, "seed": 1,
                            "null": name == "null"}

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("synth", "--n", 4)
        assert excinfo.value.code == 2


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        assert run("synth", "--n", 2, "--duration", 0.3, "--jobs", jobs,
                   "--out", tmp_path / "c") == 1
        assert f"error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_synth_files_do_not_depend_on_jobs(self, tmp_path):
        trees = []
        for name, jobs in (("default", ()), ("jobs1", ("--jobs", 1)), ("jobs2", ("--jobs", 2))):
            assert run("synth", "--n", 5, "--duration", 0.3, "--seed", 4, *jobs,
                       "--out", tmp_path / name) == 0
            trees.append(tree_bytes(tmp_path / name))
        assert {"manifest.jsonl", "synth_spec.json", "synth004.wav"} <= set(trees[0])
        assert trees[0] == trees[1] == trees[2]

    def test_augment_files_do_not_depend_on_jobs(self, pipeline, tmp_path):
        trees = []
        for name, jobs in (("default", ()), ("jobs1", ("--jobs", 1)), ("jobs2", ("--jobs", 2))):
            assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                       "--seed", 7, *jobs, "--out", tmp_path / name) == 0
            trees.append(tree_bytes(tmp_path / name))
        assert len(trees[0]) == 48 + 2
        assert {"manifest.jsonl", "augmentation_plan.json"} <= set(trees[0])
        assert trees[0] == trees[1] == trees[2]
        assert trees[0] == tree_bytes(pipeline["augmented"])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_files_do_not_depend_on_jobs(self, pipeline, tmp_path, dtype):
        runs = []
        for name, jobs in (("default", ()), ("jobs1", ("--jobs", 1)), ("jobs2", ("--jobs", 2)),
                           ("jobs3", ("--jobs", 3))):
            assert run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                       "--features", pipeline["features"], "--mfcc", "13",
                       "--filters", 16, "--kernel", 5, "--lstm", 20, "--epochs", 2,
                       "--dtype", dtype, "--seed", 11, *jobs, "--out", tmp_path / name) == 0
            tree = tree_bytes(tmp_path / name)
            run_doc = json.loads(tree.pop("M1-13_run.json"))
            assert run_doc.pop("wall_time_s") > 0  # the one field that may differ
            runs.append((tree, run_doc))
        assert sorted(runs[0][0]) == [f"M1-13_fold{k}.model.json" for k in range(3)]
        assert runs[0] == runs[1] == runs[2] == runs[3]

    @pytest.mark.parametrize("jobs", [(), ("--jobs", 1), ("--jobs", 2)])
    def test_failed_fold_exits_1(self, pipeline, tmp_path, capfd, jobs):
        corpus = tmp_path / "ones"
        shutil.copytree(pipeline["augmented"], corpus)
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        (corpus / "manifest.jsonl").write_text(
            "".join(line + "\n" for line in lines if json.loads(line)["label"] == 1))
        assert run("train", "--manifest", corpus / "manifest.jsonl",
                   "--features", pipeline["features"], "--mfcc", "13",
                   "--filters", 16, "--kernel", 5, "--lstm", 20, "--epochs", 1,
                   *jobs, "--out", tmp_path / "run") == 1
        err = capfd.readouterr().err  # file-descriptor level: the workers' output too
        assert "error: training needs both labels, manifest has 24x1 / 0x0" in err
        assert "Traceback" not in err

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the stand-in record reaches the workers by fork")
    def test_killed_worker_exits_1_and_augment_removes_its_files(self, pipeline, tmp_path,
                                                                 capfd, monkeypatch):
        augment_record = augmentation._augment_record

        def killed_after_writing(task):
            result = augment_record(task)
            if task[1] == "synth003" and multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return result

        monkeypatch.setattr(augmentation, "_augment_record", killed_after_writing)
        out = tmp_path / "aug"
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--seed", 7, "--jobs", 2, "--out", out) == 1
        err = capfd.readouterr().err
        assert ("error: killed_after_writing: a worker process ended abruptly "
                "(killed or out of memory)") in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


# each subcommand's required arguments; none is read before the options are parsed
REQUIRED = {
    "synth": ("--out", "c"),
    "augment": ("--manifest", "m.jsonl", "--out", "a"),
    "extract": ("--manifest", "m.jsonl", "--out", "f"),
    "train": ("--manifest", "m.jsonl", "--features", "f", "--mfcc", "13", "--out", "r"),
    "grid": ("--manifest", "m.jsonl", "--features", "f", "--out", "r"),
    "evaluate": ("--model", "m.json", "--manifest", "m.jsonl", "--features", "f"),
    "predict": ("--model", "m.json", "x.wav"),
    "report": ("--results", "r.csv"),
}


@pytest.mark.parametrize("command, option", [
    *[(command, option) for command in ("extract", "evaluate", "predict", "report")
      for option in ("--seed", "--jobs", "--config")],
    *[(command, "--config") for command in ("synth", "augment", "train", "grid")],
    # the feature framing is constant, and a trimmed plan is a --plan file
    *[("extract", option) for option in ("--hop", "--frame-len", "--n-mels")],
    ("augment", "--variants"),
])
def test_options_a_command_does_not_read_are_usage_errors(command, option, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(command, *REQUIRED[command], option, 3)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


@pytest.mark.parametrize("option, dest", [("--seed", "seed"), ("--jobs", "jobs")])
@pytest.mark.parametrize("command", ["synth", "augment", "train", "grid"])
def test_commands_that_read_seed_and_jobs_take_them(command, option, dest):
    args = cli.build_parser().parse_args([command, *REQUIRED[command], option, "3"])
    assert getattr(args, dest) == 3


class TestPlanFile:
    def test_keys_not_in_the_file_keep_their_defaults(self, pipeline, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"time_stretch_rates": [0.9, 1], "combined": False}))
        capsys.readouterr()
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", path, "--out", tmp_path / "out") == 0
        assert "6 -> 42 records" in capsys.readouterr().out
        written = json.loads((tmp_path / "out" / "augmentation_plan.json").read_text())
        assert written == {"time_stretch_rates": [0.9, 1], "pitch_shift_semitones": [-2.0, 2.0],
                           "noise_snrs_db": [20.0, 10.0], "combined": False,
                           "combined_stretch_rate": 1.05, "combined_snr_db": 15.0,
                           "rng_seed": 0}

    @pytest.mark.parametrize("plan", [None, {"pitch_shift_semitones": [-2.0],
                                             "noise_snrs_db": [], "combined": False}],
                             ids=["default", "trimmed"])
    def test_a_written_plan_rebuilds_its_tree(self, pipeline, tmp_path, plan):
        """The plan augment records, given back with --plan, writes the same
        files: the seed and the plan's variants travel in the file."""
        first = tmp_path / "first"
        given = ()
        if plan is not None:
            (tmp_path / "plan.json").write_text(json.dumps(plan))
            given = ("--plan", tmp_path / "plan.json")
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--seed", 5, *given, "--out", first) == 0
        assert len(tree_bytes(first)) == 6 * (8 if plan is None else 4) + 2
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", first / "augmentation_plan.json", "--out", tmp_path / "again") == 0
        assert tree_bytes(tmp_path / "again") == tree_bytes(first)

    def test_seed_overrides_the_files_rng_seed(self, pipeline, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rng_seed": 5, "time_stretch_rates": [],
                                    "pitch_shift_semitones": [], "noise_snrs_db": [30],
                                    "combined": False}))
        out = tmp_path / "out"
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", path, "--seed", 9, "--out", out) == 0
        written = json.loads((out / "augmentation_plan.json").read_text())
        assert (written["rng_seed"], written["noise_snrs_db"]) == (9, [30])

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not valid JSON"),
        ('["combined"]', "augmentation plan must be a JSON object"),
        ('{"nn": 3}', "unknown key 'nn'"),
        ('{"combined": 1}', "key 'combined' must be a boolean"),
        ('{"noise_snrs_db": [20, "10"]}', "key 'noise_snrs_db' must be a list of numbers"),
        ('{"combined": null}', "key 'combined' must be a boolean"),
        ('{"rng_seed": "3"}', "key 'rng_seed' must be an integer"),
        ('{"rng_seed": true}', "key 'rng_seed' must be an integer"),
        ('{"combined_snr_db": "15"}', "key 'combined_snr_db' must be a number"),
        ('{"combined_stretch_rate": true}', "key 'combined_stretch_rate' must be a number"),
        ('{"time_stretch_rates": 0.9}', "key 'time_stretch_rates' must be a list of numbers"),
        ('{"pitch_shift_semitones": [true]}',
         "key 'pitch_shift_semitones' must be a list of numbers"),
        # a pipeline file of the former five-section format is rejected, not half read
        ('{"plan": {"combined": false}}', "unknown key 'plan'"),
        # values the augmentations reject are rejected before any file is written
        ('{"noise_snrs_db": [NaN]}', "noise_snrs_db: SNRs must be numbers of dB or inf"),
        ('{"noise_snrs_db": [20, -Infinity]}', "noise_snrs_db: SNRs must be numbers of dB"),
        ('{"combined_snr_db": NaN}', "combined_snr_db: SNRs must be numbers of dB"),
        ('{"time_stretch_rates": [3.0]}',
         "time_stretch_rates: stretch rates must be in [0.5, 2.0], got [3.0]"),
        ('{"combined_stretch_rate": 0.4}', "combined_stretch_rate: stretch rates must be in"),
        ('{"pitch_shift_semitones": [13]}',
         "pitch_shift_semitones: |semitones| must be <= 12, got [13]"),
    ])
    def test_bad_file_exits_1(self, pipeline, tmp_path, capsys, text, message):
        path = tmp_path / "plan.json"
        path.write_text(text)
        capsys.readouterr()
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", path, "--out", tmp_path / "out") == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_1(self, pipeline, tmp_path, capsys):
        capsys.readouterr()
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", tmp_path / "absent.json", "--out", tmp_path / "out") == 1
        assert "absent.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_colliding_variant_tags_rejected(self, pipeline, tmp_path, capsys):
        """0.9 and 0.9000001 both print as stretch_0.9, which would name one
        file for two variants."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "time_stretch_rates": [0.9, 0.9000001], "pitch_shift_semitones": [],
            "noise_snrs_db": [], "combined": False}))
        capsys.readouterr()
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", path, "--out", tmp_path / "out") == 1
        assert f"error: {path}: two variants of the plan share the tag 'stretch_0.9'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-0.01"])
    def test_learning_rate_must_be_finite_and_positive(self, pipeline, tmp_path, capsys, rate):
        assert run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", pipeline["features"], "--mfcc", "13", "--epochs", 1,
                   "--learning-rate", rate, "--out", tmp_path / "r") == 1
        err = capsys.readouterr().err
        assert "error: learning_rate must be a finite number > 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, options", [
        ("train", ("--mfcc", "13", "--jobs", 1)), ("grid", ())])
    def test_negative_seed_rejected(self, pipeline, tmp_path, capsys, command, options):
        """Rejected before any training: grid records no failed cells."""
        capsys.readouterr()
        assert run(command, "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", pipeline["features"], *options, "--epochs", 1,
                   "--seed", -1, "--out", tmp_path / "r") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "r").exists()


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
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"time_stretch_rates": [], "pitch_shift_semitones": [],
                                    "noise_snrs_db": [], "combined": False}))
        assert run("augment", "--manifest", pipeline["corpus"] / "manifest.jsonl",
                   "--plan", plan, "--out", tmp_path / "noop") == 0
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
        assert sorted(p.name for p in pipeline["features"].iterdir()) == [
            "mfcc13.npz", "mfcc40.npz"]
        for width in (13, 40):
            store = load_features(pipeline["features"], width)
            assert store.config.n_mfcc == width and store.config.max_frames == 6
            assert len(store.rows) == 48
            assert all(1 <= len(v) <= 6 and v.shape[1] == width for v in store.rows.values())

    def test_rerun_is_cached(self, pipeline, capsys):
        stores = sorted(pipeline["features"].iterdir())
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in stores]
        capsys.readouterr()
        assert run("extract", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--max-frames", 6, "--out", pipeline["features"]) == 0
        printed = capsys.readouterr().out
        assert "mfcc=13: extracted 0, cached 48" in printed
        assert "mfcc=40: extracted 0, cached 48" in printed
        assert sorted(pipeline["features"].iterdir()) == stores
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in stores] == before

    def test_extract_starts_no_pool(self, pipeline, tmp_path, monkeypatch):
        def no_pool(*_):
            raise AssertionError("extract started a process pool")

        monkeypatch.setattr(train_eval, "map_tasks", no_pool)  # extract runs in one process
        assert run("extract", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--mfcc", "13", "--max-frames", 6, "--out", tmp_path / "f") == 0
        assert ((tmp_path / "f" / "mfcc13.npz").read_bytes()
                == (pipeline["features"] / "mfcc13.npz").read_bytes())

    def test_both_widths_equal_separate_runs(self, pipeline, tmp_path, capsys):
        manifest = pipeline["augmented"] / "manifest.jsonl"
        for width in ("13", "40"):
            assert run("extract", "--manifest", manifest, "--mfcc", width, "--max-frames", 6,
                       "--out", tmp_path / width) == 0
        assert tree_bytes(tmp_path / "13") | tree_bytes(tmp_path / "40") == tree_bytes(
            pipeline["features"])
        # a store holding one width gains the other from the same run
        capsys.readouterr()
        assert run("extract", "--manifest", manifest, "--max-frames", 6,
                   "--out", tmp_path / "13") == 0
        printed = capsys.readouterr().out
        assert "mfcc=13: extracted 0, cached 48" in printed
        assert "mfcc=40: extracted 48, cached 0" in printed
        assert tree_bytes(tmp_path / "13") == tree_bytes(pipeline["features"])

    def test_cold_extract_reads_each_clip_once(self, pipeline, tmp_path, monkeypatch):
        reads = []
        real_load_wav = cli.load_wav
        monkeypatch.setattr(cli, "load_wav",
                            lambda path: reads.append(Path(path).name) or real_load_wav(path))
        manifest = pipeline["augmented"] / "manifest.jsonl"
        assert run("extract", "--manifest", manifest, "--mfcc", "both", "--max-frames", 6,
                   "--out", tmp_path / "f") == 0
        assert sorted(reads) == sorted(rec.path for rec in load_manifest(manifest).records)

    def test_corrupt_wav_reported(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("synth", "--n", 2, "--duration", 0.5, "--seed", 3, "--out", corpus) == 0
        bad = corpus / "synth001.wav"
        bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunkjunk")
        assert run("extract", "--manifest", corpus / "manifest.jsonl", "--mfcc", "13",
                   "--max-frames", 3, "--out", tmp_path / "f") == 1
        err = capsys.readouterr().err
        assert "synth001" in err

    def test_other_sample_rate_is_resampled(self, tmp_path):
        corpus = tmp_path / "c"
        assert run("synth", "--n", 2, "--duration", 0.5, "--seed", 3, "--out", corpus) == 0
        t = np.arange(22050) / 22050
        samples = (8000 * np.sin(2 * np.pi * 300 * t)).astype("<i2")
        wav = corpus / "synth001.wav"
        wav.write_bytes(wav_bytes(1, 1, 22050, 16, samples.tobytes()))
        assert run("extract", "--manifest", corpus / "manifest.jsonl", "--mfcc", "13",
                   "--max-frames", 3, "--out", tmp_path / "f") == 0
        store = load_features(tmp_path / "f", 13)
        fm = extract_features(load_wav(wav), store.config)
        assert fm.n_valid_frames == 3
        assert np.array_equal(store.rows["synth001"], fm.values[: fm.n_valid_frames])

    def test_non_finite_wav_reported(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("synth", "--n", 2, "--duration", 0.5, "--seed", 3, "--out", corpus) == 0
        samples = np.zeros(22050, dtype="<f4")
        samples[100] = np.nan
        (corpus / "synth001.wav").write_bytes(wav_bytes(3, 1, 44100, 32, samples.tobytes()))
        assert run("extract", "--manifest", corpus / "manifest.jsonl", "--mfcc", "13",
                   "--max-frames", 3, "--out", tmp_path / "f") == 1
        err = capsys.readouterr().err
        assert "synth001" in err and "non-finite" in err

    def test_non_finite_buffer_reported(self, tmp_path, capsys, monkeypatch):
        """A buffer that reaches extraction with a NaN sample fails its record."""
        corpus = tmp_path / "c"
        assert run("synth", "--n", 2, "--duration", 0.5, "--seed", 3, "--out", corpus) == 0
        real_load_wav = cli.load_wav

        def load_with_nan(path):
            buffer = real_load_wav(path)
            if Path(path).name == "synth001.wav":
                buffer.samples[100] = np.nan
            return buffer

        monkeypatch.setattr(cli, "load_wav", load_with_nan)
        assert run("extract", "--manifest", corpus / "manifest.jsonl", "--mfcc", "13",
                   "--max-frames", 3, "--out", tmp_path / "f") == 1
        err = capsys.readouterr().err
        assert "synth001" in err and "non-finite" in err and "synth000" not in err


# config keys that older convser versions wrote into a feature store
OLDER_STORE_KEYS = {
    "old_version": {"feature_mode": "classic13", "n_fft": 8192},
    "before_constants": {"sample_rate": 44100, "fmin": 0.0, "fmax": 22050.0, "log_floor": 1e-10},
    "before_framing_constants": {"frame_len": 8192, "hop": 8192, "n_mels": 64},
}


def damage_store(pipeline, tmp_path, damage):
    """A copy of the pipeline's feature store whose mfcc13.npz is junk, cut,
    or has the config of an older convser (OLDER_STORE_KEYS)."""
    features = tmp_path / "features"
    features.mkdir()
    for store in pipeline["features"].iterdir():
        (features / store.name).write_bytes(store.read_bytes())
    path = features / "mfcc13.npz"
    if damage in OLDER_STORE_KEYS:
        with np.load(path) as npz:
            members = dict(npz)
        config = json.loads(str(members["config"])) | OLDER_STORE_KEYS[damage]
        members["config"] = np.array(json.dumps(config, sort_keys=True))
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        return features
    intact = path.read_bytes()
    path.write_bytes(b"junk" if damage == "junk" else intact[: len(intact) // 2])
    return features


@pytest.mark.parametrize("damage", ["junk", "truncated", *OLDER_STORE_KEYS])
class TestCorruptStore:
    """A damaged or older-version store exits 1 with an error that names the
    file and the fix."""

    def check_error(self, capsys, features):
        err = capsys.readouterr().err
        assert str(features / "mfcc13.npz") in err
        assert "corrupt" in err and "convser extract --mfcc 13" in err

    def test_extract(self, pipeline, tmp_path, capsys, damage):
        features = damage_store(pipeline, tmp_path, damage)
        capsys.readouterr()
        assert run("extract", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--mfcc", "13", "--max-frames", 6, "--out", features) == 1
        self.check_error(capsys, features)

    def test_train(self, pipeline, tmp_path, capsys, damage):
        features = damage_store(pipeline, tmp_path, damage)
        capsys.readouterr()
        assert run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", features, "--mfcc", "13", "--epochs", 1,
                   "--out", tmp_path / "r") == 1
        self.check_error(capsys, features)


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
    def test_run_artifacts(self, pipeline, run_dir):
        run_doc = json.loads((run_dir / "M1-13_run.json").read_text())
        assert run_doc["model_id"] == "M1-13"
        assert len(run_doc["fold_seeds"]) == 3
        models = sorted(run_dir.glob("M1-13_fold*.model.json"))
        assert len(models) == 3
        doc = json.loads(models[0].read_text())
        assert doc["format_version"] == 2
        assert doc["feature_config"] == asdict(load_features(pipeline["features"], 13).config)

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
        """evaluate scores in the model's dtype and prints the counts of
        training's model_forward run batch by batch."""
        model = run_dir / "M1-13_fold0.model.json"
        params, _ = neural_net.load_model(model)
        assert params.conv_w.dtype == np.float32
        scored = []
        real_score = neural_net.model_score

        def spy_score(features, params, batch_size):
            scored.append((features.dtype, len(features)))
            return real_score(features, params, batch_size)

        monkeypatch.setattr(train_eval, "model_score", spy_score)
        manifest_path = pipeline["augmented"] / "manifest.jsonl"
        capsys.readouterr()
        assert run("evaluate", "--model", model, "--manifest", manifest_path,
                   "--features", pipeline["features"]) == 0
        printed = capsys.readouterr().out
        assert scored and all(dtype == np.float32 for dtype, _ in scored)
        assert sum(n for _, n in scored) == 48

        records = load_manifest(manifest_path).records
        x = load_features(pipeline["features"], 13).stack(rec.id for rec in records)
        x = x.astype(np.float32)
        y = [rec.label for rec in records]
        prob = np.concatenate([neural_net.model_forward(x[s:s + 16], params)[0]
                               for s in range(0, len(x), 16)])
        counts = train_eval.confusion((prob >= 0.5).astype(int).tolist(), y)
        assert f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}" in printed

    def test_predict_scores_like_training(self, pipeline, run_dir, capsys, monkeypatch):
        model = run_dir / "M1-13_fold0.model.json"
        params, extra = neural_net.load_model(model)
        scores = []
        real_score = neural_net.model_score

        def spy_score(features, params, batch_size):
            scores.append(real_score(features, params, batch_size))
            return scores[-1]

        monkeypatch.setattr(cli, "model_score", spy_score)
        wav = pipeline["corpus"] / "synth000.wav"
        capsys.readouterr()
        assert run("predict", "--model", model, wav) == 0
        printed = capsys.readouterr().out.split("\t")[1]

        features = extract_features(load_wav(wav), FeatureConfig(**extra["feature_config"]))
        prob, _ = neural_net.model_forward(features.values[None].astype(np.float32), params)
        assert [p.tobytes() for p, _ in scores] == [prob.tobytes()]
        assert printed == f"{prob[0]:.4f}"

    @pytest.mark.parametrize("flags, differ", [
        (("--max-frames", 3), "max_frames: store 3, model 6"),
    ])
    def test_evaluate_rejects_a_store_of_other_settings(self, pipeline, run_dir, tmp_path,
                                                         capsys, flags, differ):
        manifest_path = pipeline["augmented"] / "manifest.jsonl"
        features = tmp_path / "features"
        assert run("extract", "--manifest", manifest_path, "--mfcc", "13", *flags,
                   "--out", features) == 0
        model = run_dir / "M1-13_fold0.model.json"
        capsys.readouterr()
        assert run("evaluate", "--model", model, "--manifest", manifest_path,
                   "--features", features) == 1
        err = capsys.readouterr().err
        assert f"feature store {features / 'mfcc13.npz'} does not match model {model}" in err
        assert differ in err and "re-run `convser extract`" in err

    def test_predict_reads_the_model_file_once(self, pipeline, run_dir, capsys, monkeypatch):
        model = run_dir / "M1-13_fold0.model.json"
        reads, parses = [], []
        real_read_text, real_read_bytes, real_loads = Path.read_text, Path.read_bytes, json.loads

        def spy_read_text(path, *args, **kwargs):
            reads.append(Path(path))
            return real_read_text(path, *args, **kwargs)

        def spy_read_bytes(path):
            reads.append(Path(path))
            return real_read_bytes(path)

        def spy_loads(text, *args, **kwargs):
            parses.append(len(text))
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", spy_read_text)
        monkeypatch.setattr(Path, "read_bytes", spy_read_bytes)
        monkeypatch.setattr(json, "loads", spy_loads)
        assert run("predict", "--model", model, pipeline["corpus"] / "synth000.wav") == 0
        assert reads.count(model) == 1
        assert len(parses) == 1

    @pytest.mark.parametrize("feature_config", [
        None, {"bogus": 1}, {"n_mfcc": 7},
        # the feature_config of a model written by an older convser
        {"sample_rate": 44100, "frame_len": 8192, "hop": 8192, "n_fft": 8192, "n_mels": 64,
         "n_mfcc": 13, "feature_mode": "classic13", "fmin": 0.0, "fmax": 22050.0,
         "log_floor": 1e-10, "max_frames": 6},
        # one written before the audio rate, Mel band and log floor became constants
        {"sample_rate": 44100, "frame_len": 8192, "hop": 8192, "n_mels": 64, "n_mfcc": 13,
         "fmin": 0.0, "fmax": 22050.0, "log_floor": 1e-10, "max_frames": 6},
        # one written before the framing and Mel filter count became constants
        {"frame_len": 8192, "hop": 8192, "n_mels": 64, "n_mfcc": 13, "max_frames": 6},
    ])
    def test_predict_needs_a_usable_feature_config(self, pipeline, run_dir, tmp_path, capsys,
                                                   feature_config):
        doc = json.loads((run_dir / "M1-13_fold0.model.json").read_text())
        if feature_config is None:
            del doc["feature_config"]
        else:
            doc["feature_config"] = feature_config
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", model, pipeline["corpus"] / "synth000.wav") == 1
        err = capsys.readouterr().err
        assert f"error: {model}: no usable feature_config" in err
        assert err.rstrip().endswith("re-run `convser train`")

    @pytest.mark.parametrize("fmt_tag, bits, n_bytes", [(1, 16, 3), (3, 32, 6)])
    def test_predict_rejects_a_partial_sample(self, run_dir, tmp_path, capsys,
                                              fmt_tag, bits, n_bytes):
        wav = tmp_path / "partial.wav"
        wav.write_bytes(wav_bytes(fmt_tag, 1, 44100, bits, b"\x00" * n_bytes))
        capsys.readouterr()
        assert run("predict", "--model", run_dir / "M1-13_fold0.model.json", wav) == 1
        err = capsys.readouterr().err
        assert f"error: {wav}: " in err
        assert "Traceback" not in err

    def test_missing_features_is_actionable(self, pipeline, tmp_path, capsys):
        rc = run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                 "--features", tmp_path / "nothing", "--mfcc", "13",
                 "--epochs", 1, "--out", tmp_path / "r")
        assert rc == 1
        assert "convser extract" in capsys.readouterr().err


def damage_model(run_dir, tmp_path, damage):
    """A copy of the fold-0 model that is junk, cut in half, or has one
    tensor whose shape and data disagree with its model_config."""
    path = tmp_path / "M1-13_fold0.model.json"
    text = (run_dir / path.name).read_text()
    if damage == "junk":
        path.write_bytes(b"\x00junk")
    elif damage == "truncated":
        path.write_text(text[: len(text) // 2])
    else:
        doc = json.loads(text)
        doc["tensors"]["lstm_u"] = doc["tensors"]["lstm_w"]
        path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("damage", ["junk", "truncated", "mis_shaped"])
class TestCorruptModel:
    """A damaged model file exits 1 with an error that names it."""

    def test_predict(self, pipeline, run_dir, tmp_path, capsys, damage):
        model = damage_model(run_dir, tmp_path, damage)
        capsys.readouterr()
        assert run("predict", "--model", model, pipeline["corpus"] / "synth000.wav") == 1
        assert f"error: {model}: " in capsys.readouterr().err

    def test_evaluate(self, pipeline, run_dir, tmp_path, capsys, damage):
        model = damage_model(run_dir, tmp_path, damage)
        capsys.readouterr()
        assert run("evaluate", "--model", model,
                   "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", pipeline["features"]) == 1
        assert f"error: {model}: " in capsys.readouterr().err


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

    def test_report_labels_a_failed_cell(self, tmp_path, capsys):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        results = tmp_path / "results_40.csv"
        results.write_text("\n".join([lines[0], lines[1], "M2-40,32,5,20" + ",failed" * 4]) + "\n",
                           encoding="utf-8")
        svg = tmp_path / "accuracy.svg"
        assert run("report", "--results", results, "--svg", svg) == 0
        assert ">failed</text>" in svg.read_text()

    def test_report_rejects_a_bad_metric_cell(self, tmp_path, capsys):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        results = tmp_path / "results_40.csv"
        results.write_text("\n".join([lines[0], lines[1].replace("80.80%", "0.808")]) + "\n",
                           encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--results", results, "--svg", tmp_path / "a.svg") == 1
        err = capsys.readouterr().err
        assert f"error: {results}: model 'M1-40'" in err and "'0.808'" in err
        assert not (tmp_path / "a.svg").exists()
