"""Synthetic stand-in corpus with controllable class separability.

Each file is a harmonic tone stack whose class identity is carried by two
cues that survive the MFCC pipeline: the amplitude-modulation rate (a
frame-to-frame temporal pattern for the LSTM) and the spectral tilt (a
static envelope cue living in the low-order cepstra). Per-file jitter keeps
samples from collapsing onto one waveform; a null corpus synthesises both
classes from one signature, so its labels carry no signal at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .audio_io import (
    CANONICAL_RATE,
    AudioBuffer,
    DatasetManifest,
    SampleRecord,
    load_wav,
    save_manifest,
    write_wav,
)
from .dsp_features import FeatureConfig, extract_features
from .exceptions import ParameterError
from .seeding import rng_for
from .train_eval import map_tasks


# (fundamental Hz, amplitude-modulation rate Hz, spectral tilt dB/octave) of
# class 0 and class 1; a null corpus synthesises both classes from class 0's
CLASS_SIGNATURES = ((160.0, 4.0, -6.0), (160.0, 8.0, -3.0))
# per-file jitter, drawn once per file: the fundamental and the AM rate move
# by up to these fractions, the tilt by up to TILT_JITTER_DB
FUNDAMENTAL_JITTER = 0.05
AM_RATE_JITTER = 0.10
TILT_JITTER_DB = 0.5


@dataclass
class SynthSpec:
    n_originals: int = 38
    duration_s: float = 10.0
    seed: int = 0
    null: bool = False  # both classes from one signature: labels carry no signal

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise ParameterError(f"duration_s must be a finite number > 0, got {self.duration_s}")
        if round(self.duration_s * CANONICAL_RATE) < 1:
            raise ParameterError(f"duration_s {self.duration_s} holds no sample at "
                                 f"{CANONICAL_RATE} Hz")


def _synthesize(fundamental_hz: float, am_rate_hz: float, tilt_db_per_octave: float,
                duration_s: float, rng: np.random.Generator) -> np.ndarray:
    f0 = fundamental_hz * (1.0 + rng.uniform(-1, 1) * FUNDAMENTAL_JITTER)
    am_rate = am_rate_hz * (1.0 + rng.uniform(-1, 1) * AM_RATE_JITTER)
    tilt = tilt_db_per_octave + rng.uniform(-1, 1) * TILT_JITTER_DB

    n = int(round(duration_s * CANONICAL_RATE))
    t = np.arange(n) / CANONICAL_RATE
    n_harmonics = min(20, int(0.45 * CANONICAL_RATE / f0))
    x = np.zeros(n)
    for k in range(1, n_harmonics + 1):
        amp = 10.0 ** (tilt * np.log2(k) / 20.0)
        x += amp * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))

    x *= 1.0 + 0.8 * np.sin(2.0 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi))
    x += 10.0 ** (-35.0 / 20.0) * np.sqrt(np.mean(x * x)) * rng.standard_normal(n)
    return 0.3 * x / np.abs(x).max()


def _write_original(task):
    """Synthesise and write one original's WAV."""
    spec, rec, out_dir = task
    signature = CLASS_SIGNATURES[0 if spec.null else rec.label]
    samples = _synthesize(*signature, spec.duration_s, rng_for(spec.seed, rec.id))
    write_wav(AudioBuffer(samples, CANONICAL_RATE), out_dir / rec.path)


def generate_corpus(spec: SynthSpec, out_dir, jobs: int = 1) -> DatasetManifest:
    """Write n_originals WAVs plus manifest.jsonl and synth_spec.json.

    Labels alternate 0/1 (balanced within one), speaker ids are distinct,
    topics cycle 1..4, and group_id equals the sample id so augmentation can
    track variant families. Each record is synthesised from its own seed, so
    jobs > 1 worker processes write the same bytes as one; byte-identical for
    a fixed seed.
    """
    if spec.n_originals < 1:
        raise ParameterError("n_originals must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = [
        SampleRecord(
            id=f"synth{idx:03d}",
            path=f"synth{idx:03d}.wav",
            speaker_id=f"spk{idx:03d}",
            topic_id=1 + idx % 4,
            position="pro" if (idx // 2) % 2 == 0 else "contra",
            label=idx % 2,
            group_id=f"synth{idx:03d}",
            augmentation="original",
        )
        for idx in range(spec.n_originals)
    ]
    map_tasks(_write_original, [(spec, rec, out_dir) for rec in records], jobs)

    manifest = DatasetManifest(records=records, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.jsonl")
    (out_dir / "synth_spec.json").write_text(
        json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n"
    )
    return manifest


def _mean_coefficient_matrix(manifest: DatasetManifest, config: FeatureConfig):
    rows = []
    labels = []
    for rec in manifest.records:
        fm = extract_features(load_wav(manifest.resolve(rec)), config)
        rows.append(fm.values[: fm.n_valid_frames].mean(axis=0))
        labels.append(rec.label)
    return np.array(rows), np.array(labels)


def _best_threshold_accuracy(x: np.ndarray, y: np.ndarray):
    """Best (coefficient, threshold, polarity) training accuracy, or None when
    no threshold beats constant prediction (nothing to learn from)."""
    baseline = max(np.mean(y == 0), np.mean(y == 1))
    best = None
    for coeff in range(x.shape[1]):
        col = x[:, coeff]
        levels = np.unique(col)
        for thr in (levels[:-1] + levels[1:]) / 2.0:
            above = col > thr
            for positive_above in (True, False):
                pred = above if positive_above else ~above
                acc = float(np.mean(pred.astype(int) == y))
                if acc > baseline and (best is None or acc > best[0]):
                    best = (acc, coeff, thr, positive_above)
    return best


def measure_separability(manifest: DatasetManifest, config: FeatureConfig) -> float:
    """Leave-one-out accuracy of the best single-coefficient threshold rule
    over per-utterance MFCC means: a learnability floor for the classifier.

    When a training fold admits no threshold that beats constant prediction,
    the held-out sample scores 0.5 (abstain), so a fully constant corpus
    lands at exactly 0.5.
    """
    x, y = _mean_coefficient_matrix(manifest, config)
    n = len(x)
    if n < 3:
        raise ParameterError(f"need at least 3 records, got {n}")
    score = 0.0
    for held in range(n):
        keep = np.arange(n) != held
        best = _best_threshold_accuracy(x[keep], y[keep])
        if best is None:
            score += 0.5
            continue
        _, coeff, thr, positive_above = best
        pred = (x[held, coeff] > thr) == positive_above
        score += float(int(pred) == y[held])
    return score / n
