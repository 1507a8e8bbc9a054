"""Synthetic stand-in corpus with controllable class separability.

Each file is a harmonic tone stack whose class identity is carried by two
cues that survive the MFCC pipeline: the amplitude-modulation rate (a
frame-to-frame temporal pattern for the LSTM) and the spectral tilt (a
static envelope cue living in the low-order cepstra). Per-file jitter keeps
samples from collapsing onto one waveform; identical class signatures yield
a null corpus whose labels carry no signal at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
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


@dataclass
class ClassSignature:
    fundamental_hz: float = 160.0
    am_rate_hz: float = 4.0
    tilt_db_per_octave: float = -6.0


@dataclass
class Jitter:
    """Relative/absolute perturbation ranges drawn once per generated file.

    All-zero jitter disables every random element (perturbations, harmonic
    phases, noise floor), so equal signatures then produce identical files —
    a genuinely constant corpus."""

    fundamental_pct: float = 0.05
    am_rate_pct: float = 0.10
    tilt_db: float = 0.5

    @property
    def is_zero(self) -> bool:
        return self.fundamental_pct == 0.0 and self.am_rate_pct == 0.0 and self.tilt_db == 0.0


@dataclass
class SynthSpec:
    n_originals: int = 38
    duration_s: float = 10.0
    class0_signature: ClassSignature = field(default_factory=ClassSignature)
    class1_signature: ClassSignature = field(
        default_factory=lambda: ClassSignature(am_rate_hz=8.0, tilt_db_per_octave=-3.0)
    )
    jitter: Jitter = field(default_factory=Jitter)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise ParameterError(f"duration_s must be a finite number > 0, got {self.duration_s}")
        if round(self.duration_s * CANONICAL_RATE) < 1:
            raise ParameterError(f"duration_s {self.duration_s} holds no sample at "
                                 f"{CANONICAL_RATE} Hz")

    @classmethod
    def null(cls, **overrides) -> "SynthSpec":
        """Identical signatures for both classes: labels carry no signal."""
        return cls(
            class0_signature=ClassSignature(),
            class1_signature=ClassSignature(),
            **overrides,
        )


def _synthesize(signature: ClassSignature, jitter: Jitter, duration_s: float,
                rng: np.random.Generator) -> np.ndarray:
    deterministic = jitter.is_zero
    f0 = signature.fundamental_hz * (1.0 + rng.uniform(-1, 1) * jitter.fundamental_pct)
    am_rate = signature.am_rate_hz * (1.0 + rng.uniform(-1, 1) * jitter.am_rate_pct)
    tilt = signature.tilt_db_per_octave + rng.uniform(-1, 1) * jitter.tilt_db

    n = int(round(duration_s * CANONICAL_RATE))
    t = np.arange(n) / CANONICAL_RATE
    n_harmonics = min(20, int(0.45 * CANONICAL_RATE / f0))
    x = np.zeros(n)
    for k in range(1, n_harmonics + 1):
        amp = 10.0 ** (tilt * np.log2(k) / 20.0)
        phase = 0.0 if deterministic else rng.uniform(0, 2 * np.pi)
        x += amp * np.sin(2.0 * np.pi * k * f0 * t + phase)

    am_phase = 0.0 if deterministic else rng.uniform(0, 2 * np.pi)
    x *= 1.0 + 0.8 * np.sin(2.0 * np.pi * am_rate * t + am_phase)
    if not deterministic:
        x += 10.0 ** (-35.0 / 20.0) * np.sqrt(np.mean(x * x)) * rng.standard_normal(n)
    return 0.3 * x / np.abs(x).max()


def _write_original(task):
    """Synthesise and write one original's WAV."""
    spec, rec, out_dir = task
    signature = spec.class1_signature if rec.label == 1 else spec.class0_signature
    samples = _synthesize(signature, spec.jitter, spec.duration_s, rng_for(spec.seed, rec.id))
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
