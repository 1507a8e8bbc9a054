"""The three workloads, each driven through ``convser.cli.main(argv)``.

One client runs one command at a time (a closed loop). Every command's
output is checked from what the CLI itself produces: exit codes, stdout,
manifests, run JSON and results CSVs. A failed check counts the operation as
failed. Each pass also hashes its artifacts, so two passes of one commit and
seed can be shown identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from environment import cpu_count

# records per original under the default augmentation plan (itself + 7 variants)
PLAN_SIZE = 8
WARMUP_ORIGINALS = 2
TRAIN_EPOCHS = 1
GRID_EPOCHS = 1
GRID_SHUFFLES = 1
GRID_CELLS = 16
GRID_ROWS_PER_WIDTH = 8
WIDTHS = (13, 40)
# keys dropped before hashing: wall-clock readings differ run to run
TIMING_KEYS = frozenset({"wall_time_s"})
EXTRACT_LINE = re.compile(r"mfcc=(\d+): extracted (\d+), cached (\d+)")
CONFUSION_LINE = re.compile(r"tp=(\d+) fp=(\d+) tn=(\d+) fn=(\d+)")


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TOY the self-test."""

    originals: int = 38
    # the timed grid runs serially on a smaller corpus so that a run can time
    # several grid calls (see README: --jobs 2 calls on 2 cores vary too much
    # from one call to the next for a bounded metric)
    grid_originals: int = 12
    duration_s: float = 1.0
    max_frames: int = 60
    setup_reps: int = 3
    shuffles: int = 3
    predicts: int = 15             # per timed train pass
    latency_predicts: int = 100    # untraced pass of a traced run: p90 with 10 samples beyond
    traced_predicts: int = 20
    max_jobs: int = GRID_CELLS

    @property
    def clips(self) -> int:
        return self.originals * PLAN_SIZE


FULL = Scale()
TOY = Scale(originals=4, grid_originals=4, duration_s=0.5, max_frames=8, setup_reps=2, shuffles=2,
            predicts=4, latency_predicts=10, traced_predicts=2, max_jobs=2)


class SetupError(RuntimeError):
    """The workload's inputs could not be built; no result is printed."""


@dataclass
class Runner:
    """Runs CLI commands in process and keeps the tally of operations."""

    cli: object
    work: Path
    seed: int
    scale: Scale
    tracer: object = None
    attempted: int = 0
    failed: int = 0

    def call(self, *argv):
        if self.tracer is not None:
            self.tracer.op += 1
        argv = [str(a) for a in argv]
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buffer):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc(file=sys.stderr)
            code = None
        return code, buffer.getvalue(), time.perf_counter() - start

    def tally(self, label, problems, n=1, n_failed=None):
        """Count n operations; problems is a list of failed-check messages."""
        self.attempted += n
        bad = (n if problems else 0) if n_failed is None else n_failed
        self.failed += bad
        for message in problems:
            print(f"check failed: {label}: {message}", file=sys.stderr)

    def must(self, label, problems):
        """Set-up commands: any failure aborts the run."""
        if problems:
            raise SetupError(f"{label} failed: {'; '.join(problems)}")


# --- artifact digests -----------------------------------------------------------


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(root: Path, timed_json=()) -> str:
    """sha256 over every file under root (relative path + content). Files
    named in timed_json are hashed with their wall-clock fields removed."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if path.name in timed_json or any(path.name.endswith(s) for s in timed_json):
            data = json.dumps(_strip_timing(json.loads(data)), sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def tree_size(root: Path):
    files = [p for p in root.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


# --- output checks ----------------------------------------------------------------


def _exit(code):
    return [] if code == 0 else [f"exit code {code}"]


def _manifest_labels(path: Path):
    labels = []
    for line in path.read_text().splitlines():
        if line.strip():
            labels.append(json.loads(line)["label"])
    return labels


def check_corpus(code, manifest: Path, expected: int):
    problems = _exit(code)
    if not problems:
        labels = _manifest_labels(manifest)
        if len(labels) != expected:
            problems.append(f"{len(labels)} records, expected {expected}")
        ones, zeros = labels.count(1), labels.count(0)
        if ones + zeros != len(labels) or abs(ones - zeros) > PLAN_SIZE:
            problems.append(f"labels unbalanced: {ones}x1 / {zeros}x0")
    return problems


def check_extract(code, stdout, clips, warm, widths=WIDTHS):
    problems = _exit(code)
    seen = {int(w): (int(e), int(c)) for w, e, c in EXTRACT_LINE.findall(stdout)}
    want = (0, clips) if warm else (clips, 0)
    for width in widths:
        if seen.get(width) != want:
            problems.append(f"mfcc={width}: extracted/cached {seen.get(width)}, expected {want}")
    return problems


def _in_unit(value):
    return value is None or (isinstance(value, (int, float)) and 0.0 <= value <= 1.0)


def check_run(code, run_doc, shuffles):
    problems = _exit(code)
    if run_doc is None:
        return problems + ["no run JSON"]
    histories = run_doc.get("histories", [])
    if len(histories) != shuffles:
        problems.append(f"{len(histories)} fold histories, expected {shuffles}")
    for k, history in enumerate(histories):
        for key, values in history.items():
            if not values or not all(math.isfinite(v) for v in values):
                problems.append(f"fold {k} history {key} is empty or not finite")
    for report in run_doc.get("fold_metrics", []) + [run_doc.get("averaged", {})]:
        bad = {k: v for k, v in report.items() if not _in_unit(v)}
        if bad:
            problems.append(f"metrics outside [0, 1]: {bad}")
    return problems


def check_confusion(code, stdout, clips):
    problems = _exit(code)
    match = CONFUSION_LINE.search(stdout)
    if not match:
        return problems + ["no confusion counts in output"]
    total = sum(int(v) for v in match.groups())
    if total != clips:
        problems.append(f"confusion counts sum to {total}, expected {clips}")
    return problems


def check_predict(code, stdout):
    problems = _exit(code)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if len(lines) != 1:
        return problems + [f"{len(lines)} output lines, expected 1"]
    fields = lines[0].split("\t")
    try:
        prob, label = float(fields[1]), int(fields[2])
    except (IndexError, ValueError):
        return problems + [f"unparseable prediction {lines[0]!r}"]
    # the probability is printed to 4 places, so a label at the threshold may round either way
    at_threshold = abs(prob - 0.5) <= 5e-5
    if not 0.0 <= prob <= 1.0 or label not in (0, 1) or (
            label != int(prob >= 0.5) and not at_threshold):
        problems.append(f"prediction {prob} with label {label} is inconsistent")
    return problems


def read_results(path: Path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_grid(code, out: Path):
    """Returns (problems, failed cells, ok cells, manifest or None)."""
    manifest_path = out / "run_manifest.json"
    if not manifest_path.is_file():
        return _exit(code) + ["no run_manifest.json"], GRID_CELLS, 0, None
    manifest = json.loads(manifest_path.read_text())
    cells = manifest.get("cells", [])
    ok = [c for c in cells if c.get("status") == "ok"]
    problems = []
    if len(cells) != GRID_CELLS or len(ok) != GRID_CELLS:
        problems.append(f"{len(ok)} ok cells of {len(cells)}, expected {GRID_CELLS}")
    for width in WIDTHS:
        path = out / f"results_{width}.csv"
        rows = read_results(path) if path.is_file() else []
        if len(rows) != GRID_ROWS_PER_WIDTH:
            problems.append(f"{path.name}: {len(rows)} rows, expected {GRID_ROWS_PER_WIDTH}")
    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    return problems, GRID_CELLS - len(ok), ok, manifest


def grid_accuracy(out: Path):
    values = []
    for width in WIDTHS:
        for row in read_results(out / f"results_{width}.csv"):
            text = row.get("Ø Accuracy", "").strip()
            if text.endswith("%"):
                values.append(float(text[:-1]) / 100.0)
    return statistics.fmean(values) if values else None


# --- the prep path ----------------------------------------------------------------


def prep_paths(root: Path):
    return root / "corpus", root / "augmented", root / "features"


def synth_augment_extract(r: Runner, root: Path, originals: int, check, mfcc="both"):
    """synth -> augment -> cold extract of `mfcc` ("both", "13" or "40") into
    root; check(label, problems) receives each command's outcome. Returns the
    per-command seconds."""
    corpus, augmented, features = prep_paths(root)
    clips = originals * PLAN_SIZE
    times = {}
    code, _, times["synth"] = r.call(
        "synth", "--n", originals, "--duration", r.scale.duration_s, "--seed", r.seed,
        "--out", corpus)
    check("synth", check_corpus(code, corpus / "manifest.jsonl", originals))
    code, _, times["augment"] = r.call(
        "augment", "--manifest", corpus / "manifest.jsonl", "--seed", r.seed, "--out", augmented)
    check("augment", check_corpus(code, augmented / "manifest.jsonl", clips))
    code, out, times["extract"] = r.call(
        "extract", "--manifest", augmented / "manifest.jsonl", "--mfcc", mfcc,
        "--max-frames", r.scale.max_frames, "--out", features)
    widths = WIDTHS if mfcc == "both" else (int(mfcc),)
    check("extract", check_extract(code, out, clips, warm=False, widths=widths))
    return times


def warm_extract(r: Runner, root: Path, clips: int):
    _, augmented, features = prep_paths(root)
    code, out, seconds = r.call(
        "extract", "--manifest", augmented / "manifest.jsonl", "--mfcc", "both",
        "--max-frames", r.scale.max_frames, "--out", features)
    return seconds, check_extract(code, out, clips, warm=True)


def build_store(r: Runner, reps: int, originals: int, mfcc: str):
    """Train/grid setup: build the feature store through the prep path reps
    times; keep the last. Returns (store root, setup seconds per rep)."""
    times = []
    root = None
    for rep in range(reps):
        if root is not None:
            shutil.rmtree(root)
        root = r.work / f"store{rep}"
        start = time.perf_counter()
        synth_augment_extract(r, root, originals, r.must, mfcc)
        times.append(time.perf_counter() - start)
    return root, times


# --- workloads --------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float                 # wall time of the pass's timed commands
    work: float                    # items the main command processed
    work_seconds: float            # wall time of the main command
    digest: str
    compare_s: float = 0.0         # part of the pass the traced child also runs
    extra: dict = field(default_factory=dict)


class Prep:
    name = "prep"

    def __init__(self, r: Runner):
        self.r = r

    def setup(self, reps):
        """Warm-up: the prep path on a small corpus, so first-call costs
        (imports inside numpy, FFT set-up) are not timed."""
        times = []
        for rep in range(reps):
            root = self.r.work / f"warmup{rep}"
            start = time.perf_counter()
            synth_augment_extract(self.r, root, WARMUP_ORIGINALS, self.r.must)
            times.append(time.perf_counter() - start)
            shutil.rmtree(root)
        return times

    def run_pass(self, k, **_):
        r = self.r
        root = r.work / f"pass{k}"
        clips = r.scale.clips
        times = synth_augment_extract(r, root, r.scale.originals, r.tally)
        warm_s, problems = warm_extract(r, root, clips)
        r.tally("warm extract", problems)
        seconds = sum(times.values()) + warm_s
        result = PassResult(seconds, clips, seconds, digest(root), compare_s=seconds)
        result.extra["store"] = tree_size(prep_paths(root)[2])
        shutil.rmtree(root)
        return result


class Train:
    name = "train"

    def __init__(self, r: Runner):
        self.r = r
        self.store = None

    def setup(self, reps):
        # train reads only the 40-wide features
        self.store, times = build_store(self.r, reps, self.r.scale.originals, "40")
        return times

    def run_pass(self, k, predicts=None, **_):
        r, s = self.r, self.r.scale
        _, augmented, features = prep_paths(self.store)
        manifest = augmented / "manifest.jsonl"
        out = r.work / f"run{k}"
        code, _, train_s = r.call(
            "train", "--manifest", manifest, "--features", features, "--mfcc", 40,
            "--filters", 32, "--kernel", 20, "--lstm", 40, "--batch-size", 16,
            "--dtype", "float32", "--epochs", TRAIN_EPOCHS, "--shuffles", s.shuffles,
            "--seed", r.seed, "--out", out)
        run_files = sorted(out.glob("*_run.json")) if out.is_dir() else []
        run_doc = json.loads(run_files[0].read_text()) if run_files else None
        problems = check_run(code, run_doc, s.shuffles)
        r.tally("train", problems)
        models = sorted(out.glob("*_fold0.model.json")) if out.is_dir() else []
        if problems or not models:
            raise SetupError(f"train produced no usable model: {problems}")
        val = sum(run_doc["fold_counts"][0].values())
        samples = (s.clips - val) * TRAIN_EPOCHS * s.shuffles

        code, eval_text, eval_s = r.call(
            "evaluate", "--model", models[0], "--manifest", manifest, "--features", features)
        r.tally("evaluate", check_confusion(code, eval_text, s.clips))

        wavs = [augmented / json.loads(line)["path"]
                for line in manifest.read_text().splitlines() if line.strip()]
        chosen = random.Random(r.seed).sample(wavs, min(predicts or s.predicts, len(wavs)))
        predict_s = []
        for wav in chosen:
            code, out_text, seconds = r.call("predict", "--model", models[0], wav)
            r.tally("predict", check_predict(code, out_text))
            predict_s.append(seconds)

        # evaluate's counts join the hashed artifacts; predict output is checked only
        (out / "evaluate.txt").write_text(eval_text)
        result = PassResult(
            train_s + eval_s + sum(predict_s), samples, train_s,
            digest(out, timed_json=("_run.json",)),
            compare_s=train_s + eval_s + sum(predict_s[: s.traced_predicts]),
        )
        result.extra.update(
            val_accuracy=run_doc["averaged"]["accuracy"],
            evaluate_clips_per_s=s.clips / eval_s,
            predict_s=predict_s,
        )
        return result


class Grid:
    name = "grid"

    def __init__(self, r: Runner):
        self.r = r
        self.store = None

    def setup(self, reps):
        self.store, times = build_store(self.r, reps, self.r.scale.grid_originals, "both")
        return times

    def jobs(self):
        return max(1, min(cpu_count(), self.r.scale.max_jobs, GRID_CELLS))

    def run_pass(self, k, jobs=1, **_):
        r, s = self.r, self.r.scale
        _, augmented, features = prep_paths(self.store)
        out = r.work / f"grid{k}"
        code, _, seconds = r.call(
            "grid", "--manifest", augmented / "manifest.jsonl", "--features", features,
            "--epochs", GRID_EPOCHS, "--shuffles", GRID_SHUFFLES, "--jobs", jobs,
            "--seed", r.seed, "--out", out)
        problems, failed_cells, ok, manifest = check_grid(code, out)
        # each cell is one operation; a failed check with every cell ok counts once
        r.tally("grid", problems, n=GRID_CELLS, n_failed=failed_cells or int(bool(problems)))
        runs = sum(len(c.get("fold_seeds") or ()) for c in ok)
        result = PassResult(seconds, runs, seconds,
                            digest(out, timed_json=("run_manifest.json",)), compare_s=seconds)
        result.extra.update(
            val_accuracy=grid_accuracy(out) if not problems else None,
            jobs=jobs,
            cell_s=[c["wall_time_s"] for c in ok if c.get("wall_time_s") is not None],
            grid_wall_s=(manifest or {}).get("wall_time_s", seconds),
        )
        return result


WORKLOADS = {"prep": Prep, "train": Train, "grid": Grid}


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0
