import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from convser import augmentation, cli, neural_net, train_eval
from convser.audio_io import load_manifest, load_wav
from convser.cli import main
from convser.dsp_features import FeatureConfig, extract_features, load_features
from convser.exceptions import ConvserError
from convser.report import read_results_csv

from conftest import wav_bytes

FIXTURE = Path(__file__).parent / "fixtures" / "results_40_reference.csv"


def run(*argv):
    return main([str(a) for a in argv])


def child_env(**settings):
    """This process's environment for a child Python that imports this
    checkout's convser, with settings added."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, **settings, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


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

    def test_custom_shape_models_do_not_depend_on_jobs(self, pipeline, tmp_path):
        """15 filters at width 40 sum 600 inputs per frame, a product whose
        last bits depend on the BLAS thread count."""
        trees = []
        for jobs in (1, 3):
            assert run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                       "--features", pipeline["features"], "--mfcc", "40", "--filters", 15,
                       "--epochs", 2, "--seed", 1, "--jobs", jobs,
                       "--out", tmp_path / str(jobs)) == 0
            trees.append({name: data for name, data in tree_bytes(tmp_path / str(jobs)).items()
                          if name.endswith(".model.json")})
        assert sorted(trees[0]) == [f"custom-15-20-40_fold{k}.model.json" for k in range(3)]
        assert trees[0] == trees[1]

    def test_train_files_do_not_depend_on_jobs_on_avx2_kernels(self, pipeline, tmp_path):
        """The one-thread contract holds on a second kernel set:
        OPENBLAS_CORETYPE=Haswell makes a DYNAMIC_ARCH OpenBLAS, as numpy
        bundles it, run its AVX2 kernels, in the child processes only. At 60
        frames the 1 s clips' batches skip their padding."""
        features = tmp_path / "features"
        assert run("extract", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--mfcc", "13", "--max-frames", 60, "--out", features) == 0
        trees = []
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from convser.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "train",
                 "--manifest", str(pipeline["augmented"] / "manifest.jsonl"),
                 "--features", str(features), "--mfcc", "13", "--filters", "16",
                 "--kernel", "5", "--lstm", "20", "--epochs", "2", "--seed", "11",
                 "--jobs", str(jobs), "--out", str(out)],
                env=child_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            trees.append({name: data for name, data in tree_bytes(out).items()
                          if name.endswith(".model.json")})
        assert sorted(trees[0]) == [f"M1-13_fold{k}.model.json" for k in range(3)]
        assert trees[0] == trees[1]

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
        # the run created --out, so it removes it
        assert not (tmp_path / "run").exists()
        # an --out that existed keeps its other files, and gets no model or temporary file
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("kept\n")
        assert run("train", "--manifest", corpus / "manifest.jsonl",
                   "--features", pipeline["features"], "--mfcc", "13",
                   "--filters", 16, "--kernel", 5, "--lstm", 20, "--epochs", 1,
                   *jobs, "--out", kept) == 1
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the failing stand-in fold reaches the workers by fork")
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_fold_failing_after_others_saved_leaves_no_model(self, pipeline, tmp_path, capfd,
                                                            monkeypatch, jobs):
        """Folds 11 and 12 write their models before fold 13 fails: the run
        removes their files and the --out it created."""
        train_model = train_eval.train_model

        def last_fold_fails(model_config, train_config, features, manifest):
            if train_config.seed == 13:
                raise ConvserError("fold 13 failed")
            return train_model(model_config, train_config, features, manifest)

        monkeypatch.setattr(train_eval, "train_model", last_fold_fails)
        saved = []
        save_model = train_eval.save_model
        monkeypatch.setattr(train_eval, "save_model",
                            lambda params, path, extra: saved.append(Path(path).name)
                            or save_model(params, path, extra=extra))
        out = tmp_path / "run"
        assert run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", pipeline["features"], "--mfcc", "13",
                   "--filters", 16, "--kernel", 5, "--lstm", 20, "--epochs", 1,
                   "--seed", 11, "--jobs", jobs, "--out", out) == 1
        assert "error: fold 13 failed" in capfd.readouterr().err
        if jobs == 1:  # pool workers' calls are not seen here
            assert saved == ["M1-13_fold0.model.json.tmp", "M1-13_fold1.model.json.tmp"]
        assert not out.exists()

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
    *[(command, option) for command in ("evaluate", "predict", "report")
      for option in ("--seed", "--jobs", "--config")],
    *[(command, "--config") for command in ("synth", "augment", "extract", "train", "grid")],
    ("extract", "--seed"),
    # the feature framing is constant, and a trimmed plan is a --plan file
    *[("extract", option) for option in ("--hop", "--frame-len", "--n-mels")],
    ("augment", "--variants"),
])
def test_options_a_command_does_not_read_are_usage_errors(command, option, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(command, *REQUIRED[command], option, 3)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, dest", [
    *[(command, option, dest) for command in ("synth", "augment", "train", "grid")
      for option, dest in (("--seed", "seed"), ("--jobs", "jobs"))],
    ("extract", "--jobs", "jobs"),
])
def test_commands_that_read_seed_and_jobs_take_them(command, option, dest):
    args = cli.build_parser().parse_args([command, *REQUIRED[command], option, "3"])
    assert getattr(args, dest) == 3


def test_main_pins_the_malloc_thresholds_first(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_pin_malloc_thresholds", lambda: calls.append("pin"))
    monkeypatch.setattr(cli, "_setup_logging", lambda: calls.append("logging"))
    assert run("report", "--results", FIXTURE) == 0
    assert calls == ["pin", "logging"]


# Prints the minor page faults of each of 20 calls of a 1 s synthesis and of a
# 0.9 time_stretch, in a fresh process after the malloc thresholds are pinned,
# or null where mallopt is unavailable.
FAULTS_SCRIPT = """
import json, resource
import numpy as np
from convser import cli
from convser.audio_io import AudioBuffer
from convser.augmentation import time_stretch
from convser.synth_data import _synthesize

def faults(fn):
    fn(); fn()  # the heap grows to the call's size once
    counts = []
    for _ in range(20):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return counts

if cli._pin_malloc_thresholds():
    rng = np.random.default_rng(0)
    clip = AudioBuffer(_synthesize(160.0, 4.0, -6.0, 1.0, rng), 44100)
    print(json.dumps({"synth": faults(lambda: _synthesize(160.0, 4.0, -6.0, 1.0, rng)),
                      "stretch": faults(lambda: time_stretch(clip, 0.9))}))
else:
    print("null")
"""


@pytest.mark.skipif(sys.platform == "win32", reason="no resource module")
def test_pinned_thresholds_keep_freed_arrays_in_the_heap():
    """Unpinned, glibc gives a 1 s synthesis's freed temporaries back to the
    OS and each call faults about 3,300 pages in again, a time_stretch about
    240."""
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = json.loads(proc.stdout)
    if faults is None:
        pytest.skip("mallopt is unavailable in this C library")
    assert max(faults["synth"]) < 100, faults["synth"]
    assert max(faults["stretch"]) < 50, faults["stretch"]


def test_import_loads_no_network_modules():
    """convser needs no URL, HTTP, TLS or e-mail code; importing it loads none."""
    modules = ("urllib.request", "http.client", "ssl", "email.parser")
    proc = subprocess.run([sys.executable, "-c", "import sys, convser.cli; "
                           f"print([m for m in {modules!r} if m in sys.modules])"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


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

    def test_empty_clip_names_its_file(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert run("synth", "--n", 2, "--duration", 0.5, "--seed", 3, "--out", corpus) == 0
        (corpus / "synth001.wav").write_bytes(wav_bytes(1, 1, 44100, 16, b""))
        capsys.readouterr()
        assert run("augment", "--manifest", corpus / "manifest.jsonl", "--seed", 3,
                   "--out", tmp_path / "a") == 1
        err = capsys.readouterr().err
        assert "synth001__" in err and "refusing to write an empty buffer" in err

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

    def test_store_bytes_do_not_depend_on_jobs_or_blas_threads(self, pipeline, tmp_path,
                                                                 monkeypatch):
        manifest = pipeline["augmented"] / "manifest.jsonl"

        def extract(name, *jobs):
            assert run("extract", "--manifest", manifest, "--max-frames", 6, *jobs,
                       "--out", tmp_path / name) == 0
            return tree_bytes(tmp_path / name)

        pooled = extract("jobs2", "--jobs", 2)
        assert pooled == tree_bytes(pipeline["features"])

        def no_pool(*_, **__):
            raise AssertionError("extract --jobs 1 started a process pool")

        monkeypatch.setattr(train_eval, "ProcessPoolExecutor", no_pool)
        assert extract("jobs1", "--jobs", 1) == pooled
        before = train_eval._blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS thread-count function in this process")
        setter = train_eval._openblas_setter()[1]
        setter(2)
        try:
            assert extract("jobs1_two_threads", "--jobs", 1) == pooled
        finally:
            setter(before)

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
        reads = tmp_path / "reads.txt"  # appended to by every worker
        real_load_wav = cli.load_wav

        def counted_load_wav(path):
            with open(reads, "a") as log:
                log.write(f"{Path(path).name}\n")
            return real_load_wav(path)

        monkeypatch.setattr(cli, "load_wav", counted_load_wav)
        manifest = pipeline["augmented"] / "manifest.jsonl"
        assert run("extract", "--manifest", manifest, "--mfcc", "both", "--max-frames", 6,
                   "--out", tmp_path / "f") == 0
        assert sorted(reads.read_text().splitlines()) == sorted(
            rec.path for rec in load_manifest(manifest).records)

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
        with train_eval._one_blas_thread():  # the thread count extract runs at
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
    or has the config of an older convser (OLDER_STORE_KEYS); intact for
    "none"."""
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
    if damage != "none":
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


def nan_store(pipeline, tmp_path):
    """A copy of the pipeline's feature store with one NaN in synth001's
    13-wide rows."""
    features = damage_store(pipeline, tmp_path, "none")
    path = features / "mfcc13.npz"
    with np.load(path) as npz:
        members = dict(npz)
    first = int(np.sum(members["n_valid"][:list(members["ids"]).index("synth001")]))
    members["rows"][first + 1, 2] = np.nan
    with open(path, "wb") as handle:
        np.savez(handle, **members)
    return features


class TestNonFiniteStore:
    """A store row holding NaN exits 1 naming the store and the record,
    rather than being scored or trained on."""

    def check_error(self, capsys, features):
        err = capsys.readouterr().err
        assert str(features / "mfcc13.npz") in err
        assert "non-finite" in err and "'synth001'" in err

    def test_evaluate(self, pipeline, run_dir, tmp_path, capsys):
        features = nan_store(pipeline, tmp_path)
        capsys.readouterr()
        assert run("evaluate", "--model", run_dir / "M1-13_fold0.model.json",
                   "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", features) == 1
        self.check_error(capsys, features)

    def test_train(self, pipeline, tmp_path, capsys):
        features = nan_store(pipeline, tmp_path)
        capsys.readouterr()
        assert run("train", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", features, "--mfcc", "13", "--epochs", 1,
                   "--out", tmp_path / "r") == 1
        self.check_error(capsys, features)
        assert not (tmp_path / "r").exists() or not any((tmp_path / "r").iterdir())


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
def custom_model(pipeline, tmp_path_factory):
    """An untrained custom-15-20-40 model file: 15 filters at width 40 sum
    600 inputs per frame, a product whose last bits depend on the BLAS
    thread count."""
    feature_config = load_features(pipeline["features"], 40).config
    config = neural_net.ModelConfig(filters=15, n_mfcc=40, max_frames=feature_config.max_frames)
    path = tmp_path_factory.mktemp("custom") / "custom-15-20-40_fold0.model.json"
    neural_net.save_model(neural_net.init_params(config, 1, np.float32), path,
                          extra={"feature_config": asdict(feature_config)})
    return path


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

    @pytest.mark.parametrize("custom", [False, True], ids=["M1-13", "custom-15-20-40"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_scoring_runs_on_one_blas_thread(self, pipeline, run_dir, custom_model, capsys,
                                             monkeypatch, command, custom):
        """evaluate and predict extract and score at the thread count training
        scores at, whatever the process's count, and restore that count."""
        before = train_eval._blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS thread-count function in this process")
        model = custom_model if custom else run_dir / "M1-13_fold0.model.json"
        threads = []
        real_score, real_extract = neural_net.model_score, cli.dsp_features.extract_features

        def spy_score(*args):
            threads.append(("score", train_eval._blas_threads()))
            return real_score(*args)

        def spy_extract(*args):
            threads.append(("extract", train_eval._blas_threads()))
            return real_extract(*args)

        monkeypatch.setattr(train_eval, "model_score", spy_score)
        monkeypatch.setattr(cli, "model_score", spy_score)
        monkeypatch.setattr(cli.dsp_features, "extract_features", spy_extract)
        if command == "evaluate":
            argv = ("--manifest", pipeline["augmented"] / "manifest.jsonl",
                    "--features", pipeline["features"])
            expected = [("score", 1)]
        else:
            argv = (pipeline["corpus"] / "synth000.wav", pipeline["corpus"] / "synth001.wav")
            expected = [("extract", 1), ("score", 1)] * 2
        setter = train_eval._openblas_setter()[1]
        setter(2)
        try:
            capsys.readouterr()
            assert run(command, "--model", model, *argv) == 0
            assert threads == expected
            assert train_eval._blas_threads() == 2
        finally:
            setter(before)

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

    @staticmethod
    def grid_failing_to_replace(name, pipeline, tmp_path, capsys, monkeypatch):
        """The output directory of a grid whose os.replace onto `name` fails."""
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == name:
                raise OSError(f"cannot replace {dst}")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        out = tmp_path / "grid"
        assert run("grid", "--manifest", pipeline["augmented"] / "manifest.jsonl",
                   "--features", pipeline["features"], "--epochs", 1, "--seed", 13,
                   "--jobs", 1, "--out", out) == 1
        assert "cannot replace" in capsys.readouterr().err
        return out

    def test_failed_manifest_write_leaves_no_manifest(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        out = self.grid_failing_to_replace("run_manifest.json", pipeline, tmp_path, capsys,
                                           monkeypatch)
        assert sorted(p.name for p in out.iterdir()) == ["results_13.csv", "results_40.csv"]

    def test_failed_table_write_leaves_no_partial_table(self, pipeline, tmp_path, capsys,
                                                        monkeypatch):
        out = self.grid_failing_to_replace("results_40.csv", pipeline, tmp_path, capsys,
                                           monkeypatch)
        # results_13.csv was whole before the failed replace; no .tmp file is left
        assert sorted(p.name for p in out.iterdir()) == ["results_13.csv"]
        assert len(read_results_csv(out / "results_13.csv")) == 8

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

    def test_report_draws_any_model_name_as_text(self, tmp_path):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        results = tmp_path / "results_40.csv"
        results.write_text("\n".join([lines[0], lines[1].replace("M1-40", "M1<&>-13")]) + "\n",
                           encoding="utf-8")
        svg = tmp_path / "accuracy.svg"
        assert run("report", "--results", results, "--svg", svg) == 0
        labels = [e.text for e in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "M1<&>-13" in labels

    def test_report_escapes_model_names_as_before(self, tmp_path):
        """Labels keep the bytes of xml.sax.saxutils.escape: &, < and > become
        entities, and both quote characters are left as they are."""
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        results = tmp_path / "results_40.csv"
        results.write_text("\n".join([lines[0], lines[1].replace("M1-40", '"M1<&>""\'"')]) + "\n",
                           encoding="utf-8")
        svg = tmp_path / "accuracy.svg"
        assert run("report", "--results", results, "--svg", svg) == 0
        assert ">M1&lt;&amp;&gt;\"'</text>" in svg.read_text()

    def test_report_rejects_a_bad_metric_cell(self, tmp_path, capsys):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        results = tmp_path / "results_40.csv"
        for cell in ("0.808", "250.00%", "100.01%"):
            results.write_text("\n".join([lines[0], lines[1].replace("80.80%", cell)]) + "\n",
                               encoding="utf-8")
            capsys.readouterr()
            assert run("report", "--results", results, "--svg", tmp_path / "a.svg") == 1
            err = capsys.readouterr().err
            assert f"error: {results}: model 'M1-40' has Ø Accuracy '{cell}'" in err
            assert not (tmp_path / "a.svg").exists()
