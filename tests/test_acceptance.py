"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
the learnability criterion trains the full-size configuration for 250 epochs
and dominates the runtime (several minutes).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from convser.audio_io import load_wav
from convser.augmentation import AugmentationPlan, augment_dataset
from convser.cli import _usable_cores, main as cli_main
from convser.dsp_features import FeatureConfig, dct_matrix, extract_features, fft_power_spectrum
from convser.neural_net import ModelConfig, init_params, model_backward, model_forward
from convser.synth_data import SynthSpec, generate_corpus, measure_separability
from convser.train_eval import TrainConfig, confusion, cross_validate, fold_workers, metrics

FIXTURE = Path(__file__).parent / "fixtures" / "results_40_reference.csv"
# C6 and C7 train their three folds in parallel with `convser train`'s default
# worker count; the results do not depend on it
FOLD_JOBS = fold_workers(3, _usable_cores())


def report_line(name, ok, detail):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def naive_dft_power(frame):
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    m = np.arange(n)[None, :]
    return np.abs(np.exp(-2j * np.pi * k * m / n) @ frame) ** 2


def extract_all(manifest, config):
    return np.stack([extract_features(load_wav(manifest.resolve(rec)), config).values
                     for rec in manifest.records])


def test_c1_dsp_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for exponent in range(2, 13):  # lengths 4 .. 4096
        frame = rng.standard_normal(2**exponent)
        ours = fft_power_spectrum(frame)
        ref = naive_dft_power(frame)
        worst = max(worst, float(np.abs(ours - ref).max() / ref.max()))
    elapsed = time.perf_counter() - start
    report_line(
        "C1 DSP oracle equivalence",
        worst <= 1e-9 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_c2_dct_orthonormality():
    worst = 0.0
    for n in (13, 40, 64):
        d = dct_matrix(n)
        worst = max(worst, float(np.abs(d @ d.T - np.eye(n)).max()))
    report_line("C2 DCT orthonormality", worst <= 1e-9, f"max deviation {worst:.2e}")


def _probe_loss(x, params, y):
    """Loss for the finite-difference probes, evaluated in extended precision
    so the central-difference oracle resolves gradients down to ~1e-9; the
    double-precision model under test is unchanged."""
    _, trace = model_forward(x, params)
    z = trace.logit
    return (np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean()


def test_c3_gradient_correctness():
    config = ModelConfig(filters=2, kernel_size=3, lstm_units=3, n_mfcc=5, max_frames=6)
    start = time.perf_counter()
    h = np.longdouble(1e-5)
    worst = 0.0
    for restart in range(20):
        rng = np.random.default_rng(1000 + restart)
        params = init_params(config, restart, np.float64)
        for name in params.TENSOR_NAMES:
            tensor = getattr(params, name)
            tensor[...] = rng.uniform(-0.5, 0.5, size=tensor.shape)
        x = rng.uniform(-1, 1, (1, 6, 5))
        y = rng.integers(0, 2, 1).astype(float)
        _, trace = model_forward(x, params)
        grads = model_backward(trace, y, params)

        params_ld = params.astype(np.longdouble)
        x_ld = x.astype(np.longdouble)
        y_ld = y.astype(np.longdouble)
        for name in params.TENSOR_NAMES:
            grad = np.atleast_1d(np.asarray(getattr(grads, name))).reshape(-1)
            flat = getattr(params_ld, name).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = _probe_loss(x_ld, params_ld, y_ld)
                flat[idx] = orig - h
                down = _probe_loss(x_ld, params_ld, y_ld)
                flat[idx] = orig
                fd = float((up - down) / (2 * h))
                worst = max(worst, abs(grad[idx] - fd) / max(1e-8, abs(fd)))
    elapsed = time.perf_counter() - start
    report_line(
        "C3 gradient correctness",
        worst <= 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 20 restarts, {elapsed:.1f} s",
    )


def test_c4_metrics_brute_force():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        counts = confusion(preds.tolist(), labels.tolist())
        tp = int(np.sum((preds == 1) & (labels == 1)))
        fp = int(np.sum((preds == 1) & (labels == 0)))
        tn = int(np.sum((preds == 0) & (labels == 0)))
        fn = int(np.sum((preds == 0) & (labels == 1)))
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        report = metrics(counts)
        worst = max(worst, abs(report.accuracy - (tp + tn) / n))
        if tp + fp:
            worst = max(worst, abs(report.precision - tp / (tp + fp)))
        else:
            assert report.precision is None
        if tp + fn:
            worst = max(worst, abs(report.sensitivity - tp / (tp + fn)))
        else:
            assert report.sensitivity is None
        if report.f1 is not None and report.precision and report.sensitivity:
            harmonic = (2 * report.precision * report.sensitivity
                        / (report.precision + report.sensitivity))
            worst = max(worst, abs(report.f1 - harmonic))
    report_line("C4 metrics brute-force equivalence", worst <= 1e-12,
                f"max ratio deviation {worst:.2e} over 10^4 cases")


def test_c5_augmentation_count_parity(tmp_path):
    manifest = generate_corpus(SynthSpec(n_originals=38, duration_s=2.0, seed=42),
                               tmp_path / "src")
    merged = augment_dataset(manifest, AugmentationPlan(rng_seed=42), tmp_path / "aug")
    ok = len(merged) == 304
    originals = {rec.id: rec for rec in manifest.records}
    for rec in merged.records:
        parent = originals[rec.group_id]
        ok = ok and rec.label == parent.label and rec.group_id == parent.id

    snr_err = 0.0
    for rec in manifest.records:
        original = load_wav(merged.root / f"{rec.id}.wav")
        for snr in (20.0, 10.0):
            variant = load_wav(merged.root / f"{rec.id}__noise_{snr:g}db.wav")
            noise = variant.samples - original.samples
            measured = 10 * np.log10(np.mean(original.samples**2) / np.mean(noise**2))
            snr_err = max(snr_err, abs(measured - snr))
    report_line(
        "C5 augmentation count parity",
        ok and snr_err <= 0.5,
        f"38 -> {len(merged)} records, labels/groups propagated, max SNR err {snr_err:.3f} dB",
    )


@pytest.fixture(scope="module")
def separable_corpus(tmp_path_factory):
    """The default separable corpus at full desk scale (38 x 10 s, seed 42)."""
    root = tmp_path_factory.mktemp("separable")
    manifest = generate_corpus(SynthSpec(n_originals=38, duration_s=10.0, seed=42),
                               root / "src")
    merged = augment_dataset(manifest, AugmentationPlan(rng_seed=42), root / "aug")
    return {"originals": manifest, "merged": merged}


@pytest.mark.slow
def test_c6_desk_scale_learnability(separable_corpus):
    start = time.perf_counter()
    originals = separable_corpus["originals"]
    merged = separable_corpus["merged"]

    floor = measure_separability(originals, FeatureConfig(n_mfcc=13, max_frames=60))
    features = extract_all(merged, FeatureConfig(n_mfcc=40, max_frames=60))
    model_config = ModelConfig(filters=32, kernel_size=20, lstm_units=40, n_mfcc=40,
                               max_frames=60)
    train_config = TrainConfig(epochs=250, batch_size=16, learning_rate=0.001,
                               n_shuffles=3, split_mode="paper", seed=42,
                               dtype="float32")
    run = cross_validate(model_config, train_config, features, merged, jobs=FOLD_JOBS)
    elapsed = time.perf_counter() - start

    val_curves = np.array([h["val_accuracy"] for h in run.histories])
    best_avg_val = float(val_curves.mean(axis=0).max())
    loss_curve = np.array([h["train_loss"] for h in run.histories]).mean(axis=0)
    start_gap = abs(loss_curve[0] - math.log(2))
    upticks = int((np.diff(loss_curve[:21]) > 0).sum())
    # where training went wrong: per-fold upticks and the largest one-epoch rise
    fold_rises = np.diff(np.array([h["train_loss"] for h in run.histories])[:, :21], axis=1)
    fold_upticks = [int((rises > 0).sum()) for rises in fold_rises]
    worst_fold, worst_epoch = np.unravel_index(np.argmax(fold_rises), fold_rises.shape)

    ok = (
        floor >= 0.8
        and best_avg_val >= 0.90
        and start_gap <= 0.15
        and upticks <= 3
        and elapsed <= 900.0
    )
    report_line(
        "C6 desk-scale learnability",
        ok,
        f"threshold floor {floor:.2f}, best avg val acc {best_avg_val:.4f}, "
        f"final avg {run.averaged.accuracy:.4f}, loss[0] gap {start_gap:.3f}, "
        f"upticks {upticks}/20 (per fold {fold_upticks}, largest rise "
        f"{fold_rises[worst_fold, worst_epoch]:+.3f} in fold seed {run.fold_seeds[worst_fold]} "
        f"epoch {worst_epoch + 1}), {elapsed:.0f} s",
    )


@pytest.mark.slow
def test_c7_null_corpus_chance_band(tmp_path):
    manifest = generate_corpus(SynthSpec.null(n_originals=38, duration_s=10.0, seed=42),
                               tmp_path / "src")
    merged = augment_dataset(manifest, AugmentationPlan(rng_seed=42), tmp_path / "aug")
    features = extract_all(merged, FeatureConfig(n_mfcc=13, max_frames=60))
    model_config = ModelConfig(filters=16, kernel_size=5, lstm_units=20, n_mfcc=13,
                               max_frames=60)
    # grouped split: the leakage-free protocol, so chance is the honest target
    train_config = TrainConfig(epochs=100, n_shuffles=3, split_mode="grouped", seed=42,
                               dtype="float32")
    run = cross_validate(model_config, train_config, features, merged, jobs=FOLD_JOBS)
    accuracy = run.averaged.accuracy
    report_line("C7 null-corpus sanity", 0.35 <= accuracy <= 0.65,
                f"averaged validation accuracy {accuracy:.4f} in [0.35, 0.65]")


def test_c8_leakage_visibility(tmp_path):
    manifest = generate_corpus(SynthSpec.null(n_originals=12, duration_s=2.0, seed=42),
                               tmp_path / "src")
    copy_plan = AugmentationPlan(
        time_stretch_rates=(1.0,),
        pitch_shift_semitones=(0.0,),
        noise_snrs_db=(math.inf,),
        combined=True,
        combined_stretch_rate=1.0,
        combined_snr_db=math.inf,
        rng_seed=42,
    )
    merged = augment_dataset(manifest, copy_plan, tmp_path / "aug")
    original_bytes = (tmp_path / "aug" / "synth000.wav").read_bytes()
    assert (tmp_path / "aug" / "synth000__stretch_1.wav").read_bytes() == original_bytes

    features = extract_all(merged, FeatureConfig(n_mfcc=13, max_frames=11))
    model_config = ModelConfig(filters=16, kernel_size=5, lstm_units=20, n_mfcc=13,
                               max_frames=11)
    scores = {}
    for mode in ("paper", "grouped"):
        config = TrainConfig(epochs=120, n_shuffles=3, split_mode=mode, seed=42,
                             dtype="float32")
        scores[mode] = cross_validate(model_config, config, features, merged).averaged.accuracy
    report_line(
        "C8 leakage visibility",
        scores["paper"] > scores["grouped"],
        f"paper {scores['paper']:.4f} > grouped {scores['grouped']:.4f} on exact-copy variants",
    )


def test_c9_grid_report_parity(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    augmented = tmp_path / "aug"
    features = tmp_path / "features"
    reports = tmp_path / "reports"
    assert cli_main(["synth", "--n", "6", "--duration", "1.0", "--seed", "42",
                     "--out", str(corpus)]) == 0
    assert cli_main(["augment", "--manifest", str(corpus / "manifest.jsonl"),
                     "--seed", "42", "--out", str(augmented)]) == 0
    assert cli_main(["extract", "--manifest", str(augmented / "manifest.jsonl"),
                     "--max-frames", "6", "--out", str(features)]) == 0
    assert cli_main(["grid", "--manifest", str(augmented / "manifest.jsonl"),
                     "--features", str(features), "--epochs", "1", "--seed", "42",
                     "--out", str(reports)]) == 0

    expected_header = ("Model,Filters,Kernel Size,LSTM Neurons,"
                       "Ø Accuracy,Ø Precision,Ø Sensitivity,Ø F1-Score")
    ok = True
    detail = []
    for width in (13, 40):
        lines = (reports / f"results_{width}.csv").read_text(encoding="utf-8").splitlines()
        ok = ok and lines[0] == expected_header and len(lines) == 9
        ok = ok and lines[1].startswith(f"M1-{width},16,5,20,")
        names = [line.split(",")[0] for line in lines[1:]]
        ok = ok and names == [f"M{k}-{width}" for k in range(1, 9)]
        detail.append(f"results_{width}.csv: {len(lines) - 1} rows")

    capsys.readouterr()
    assert cli_main(["report", "--results", str(FIXTURE)]) == 0
    rendered = capsys.readouterr().out
    ok = ok and "98.91%" in rendered and "M8-40" in rendered

    from convser.report import parse_percent, read_results_csv

    rows = read_results_csv(FIXTURE)
    row = next(r for r in rows if r["Model"] == "M8-40")
    precision = parse_percent(row["Ø Precision"])
    sensitivity = parse_percent(row["Ø Sensitivity"])
    f1 = parse_percent(row["Ø F1-Score"])
    harmonic = 2 * precision * sensitivity / (precision + sensitivity)
    identity_err = abs(f1 - harmonic)
    ok = ok and identity_err <= 0.005
    report_line(
        "C9 grid/report parity",
        ok,
        "; ".join(detail) + f"; fixture renders, harmonic identity err {identity_err:.5f}",
    )


def run_pipeline(root):
    corpus = root / "corpus"
    augmented = root / "aug"
    features = root / "features"
    run_dir = root / "run"
    reports = root / "reports"
    for argv in (
        ["synth", "--n", "6", "--duration", "1.0", "--seed", "42", "--out", str(corpus)],
        ["augment", "--manifest", str(corpus / "manifest.jsonl"), "--seed", "42",
         "--out", str(augmented)],
        ["extract", "--manifest", str(augmented / "manifest.jsonl"), "--max-frames", "6",
         "--out", str(features)],
        ["train", "--manifest", str(augmented / "manifest.jsonl"),
         "--features", str(features), "--mfcc", "13", "--filters", "16", "--kernel", "5",
         "--lstm", "20", "--epochs", "2", "--seed", "42", "--out", str(run_dir)],
        ["grid", "--manifest", str(augmented / "manifest.jsonl"),
         "--features", str(features), "--epochs", "1", "--seed", "42",
         "--out", str(reports)],
    ):
        assert cli_main(argv) == 0
    artifacts = {}
    for pattern in ("features/mfcc13.npz", "features/mfcc40.npz",
                    "run/*.model.json", "reports/results_13.csv", "reports/results_40.csv"):
        for path in sorted(root.glob(pattern)):
            artifacts[str(path.relative_to(root))] = path.read_bytes()
    return artifacts


def test_c10_determinism(tmp_path):
    first = run_pipeline(tmp_path / "one")
    second = run_pipeline(tmp_path / "two")
    assert first.keys() == second.keys() and first
    mismatched = [name for name in first if first[name] != second[name]]
    report_line(
        "C10 determinism",
        not mismatched,
        f"{len(first)} artifacts bit-identical across two seed-42 runs"
        + (f"; mismatches: {mismatched[:3]}" if mismatched else ""),
    )
