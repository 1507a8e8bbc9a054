"""Audio augmentation: time stretching, pitch shifting, additive noise.

A default plan expands each original recording into 8 records (itself plus 7
variants), taking a 38-file corpus to 304. Time-scale modification uses
plain overlap-add (grains copied verbatim keep pitch; the window-weight
normalization keeps amplitude flat), pitch shifting composes a stretch with
linear resampling back to the original length, and noise is white Gaussian
scaled to an exact measured signal-to-noise ratio.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, DatasetManifest, load_wav, write_wav
from .exceptions import ParameterError
from .seeding import derive_seed
from .train_eval import map_tasks

# overlap-add grain geometry (75% overlap Hann grains, ~46 ms at 44.1 kHz);
# each grain may slide +-OLA_TOLERANCE samples off its nominal position to the
# lag that best continues the previous grain, keeping tone phase coherent
OLA_GRAIN = 2048
OLA_HOP = 512
OLA_TOLERANCE = 384
OLA_TEMPLATE = 384


@dataclass
class AugmentationPlan:
    """Which variants to derive from every original recording."""

    time_stretch_rates: tuple = (0.9, 1.1)
    pitch_shift_semitones: tuple = (-2.0, 2.0)
    noise_snrs_db: tuple = (20.0, 10.0)
    combined: bool = True
    combined_stretch_rate: float = 1.05
    combined_snr_db: float = 15.0
    rng_seed: int = 0

    def variants(self):
        """(tag, augmentation kind, parameter) for every planned variant."""
        out = []
        for rate in self.time_stretch_rates:
            out.append((f"stretch_{rate:g}", "time_stretch", rate))
        for semitones in self.pitch_shift_semitones:
            out.append((f"pitch_{semitones:+g}", "pitch_shift", semitones))
        for snr in self.noise_snrs_db:
            out.append((f"noise_{snr:g}db", "noise", snr))
        if self.combined:
            out.append(("combined", "combined", (self.combined_stretch_rate, self.combined_snr_db)))
        return out

    @property
    def size(self) -> int:
        """Output records per original, the original itself included."""
        return 1 + len(self.variants())


def time_stretch(buffer: AudioBuffer, rate: float) -> AudioBuffer:
    """Change duration by 1/rate without changing pitch (overlap-add).

    rate > 1 shortens, rate < 1 lengthens; rate 1.0 is an exact copy. Grains
    are copied verbatim from the input, so spectral content is untouched; the
    per-grain similarity search keeps adjacent grains phase-aligned so tones
    sum coherently instead of beating.
    """
    if not 0.5 <= rate <= 2.0:
        raise ParameterError(f"stretch rate must be in [0.5, 2.0], got {rate}")
    x = buffer.samples
    if rate == 1.0:
        return AudioBuffer(x.copy(), buffer.sample_rate)
    n_in = len(x)
    n_out = int(round(n_in / rate))
    grain = min(OLA_GRAIN, n_in, max(n_out, 2))
    hop = max(1, min(OLA_HOP, grain // 4))
    template = min(OLA_TEMPLATE, grain)
    window = np.hanning(grain)

    out = np.zeros(n_out)
    weight = np.zeros(n_out)
    prev_in = 0
    for index, out_pos in enumerate(range(0, n_out, hop)):
        nominal = min(max(int(round(out_pos * rate)), 0), n_in - grain)
        if index == 0:
            in_pos = nominal
        else:
            # the seamless continuation of the previous grain is the input
            # segment hop samples further on; pick the lag near the nominal
            # position that matches it best
            natural = min(prev_in + hop, n_in - template)
            target = x[natural : natural + template]
            lo = max(nominal - OLA_TOLERANCE, 0)
            hi = min(nominal + OLA_TOLERANCE, n_in - grain)
            if hi > lo and np.any(target):
                region = x[lo : hi + template]
                in_pos = lo + int(np.argmax(np.correlate(region, target, mode="valid")))
            else:
                in_pos = nominal
        prev_in = in_pos
        take = min(grain, n_out - out_pos)
        out[out_pos : out_pos + take] += x[in_pos : in_pos + take] * window[:take]
        weight[out_pos : out_pos + take] += window[:take]
    out /= np.maximum(weight, 1e-8)
    return AudioBuffer(out, buffer.sample_rate)


def pitch_shift(buffer: AudioBuffer, semitones: float) -> AudioBuffer:
    """Scale every frequency by 2^(semitones/12) at unchanged duration:
    stretch the signal to factor x length, then linearly resample back."""
    if abs(semitones) > 12:
        raise ParameterError(f"|semitones| must be <= 12, got {semitones}")
    if semitones == 0.0:
        return AudioBuffer(buffer.samples.copy(), buffer.sample_rate)
    factor = 2.0 ** (semitones / 12.0)
    stretched = time_stretch(buffer, 1.0 / factor).samples
    n = len(buffer.samples)
    src_pos = np.arange(n) * (len(stretched) / n)
    out = np.interp(src_pos, np.arange(len(stretched)), stretched)
    return AudioBuffer(out, buffer.sample_rate)


def add_noise(buffer: AudioBuffer, snr_db: float, seed: int) -> AudioBuffer:
    """Add white Gaussian noise at an exact signal-to-noise ratio.

    Deterministic for a given seed; snr_db = inf is the no-noise sentinel.
    """
    x = buffer.samples
    if snr_db == math.inf:
        return AudioBuffer(x.copy(), buffer.sample_rate)
    signal_power = float(np.mean(x * x))
    if signal_power == 0.0:
        raise ParameterError("cannot set an SNR against a zero-power signal")
    noise = np.random.default_rng(seed).standard_normal(len(x))
    target_power = signal_power / 10.0 ** (snr_db / 10.0)
    noise *= np.sqrt(target_power / np.mean(noise * noise))
    return AudioBuffer(x + noise, buffer.sample_rate)


def _apply_variant(buffer: AudioBuffer, kind: str, param, seed: int) -> AudioBuffer:
    if kind == "time_stretch":
        return time_stretch(buffer, param)
    if kind == "pitch_shift":
        return pitch_shift(buffer, param)
    if kind == "noise":
        return add_noise(buffer, param, seed)
    if kind == "combined":
        rate, snr = param
        return add_noise(time_stretch(buffer, rate), snr, seed)
    raise ParameterError(f"unknown augmentation kind {kind!r}")


def _planned_paths(src, rec_id, plan, out_dir):
    """The files one record writes into out_dir: its copy (none when the
    original is its own source) and one WAV per variant."""
    dst = out_dir / f"{rec_id}.wav"
    copy = [] if src.resolve() == dst.resolve() else [dst]
    return copy + [out_dir / f"{rec_id}__{tag}.wav" for tag, _, _ in plan.variants()]


def _augment_record(task):
    """Copy one original into out_dir and write its variants."""
    src, rec_id, plan, out_dir = task
    dst = out_dir / f"{rec_id}.wav"
    if src.resolve() != dst.resolve():
        shutil.copyfile(src, dst)
    buffer = load_wav(src)
    for tag, kind, param in plan.variants():
        variant = _apply_variant(buffer, kind, param, derive_seed(plan.rng_seed, rec_id, tag))
        write_wav(variant, out_dir / f"{rec_id}__{tag}.wav")


def augment_dataset(manifest: DatasetManifest, plan: AugmentationPlan,
                    out_dir, jobs: int = 1) -> DatasetManifest:
    """Write the expanded corpus into out_dir and return the merged manifest.

    Originals are copied in unchanged, each variant WAV is written as
    <original_id>__<tag>.wav, and every variant inherits the label and
    group_id of its original. Each original is one task; jobs > 1 runs them
    in worker processes, and every variant's noise seed derives from its own
    id and tag, so the files are the same bytes as with one. On any failure,
    a worker's death included, every file the plan names is removed so no
    half-built corpus is left behind, and the first record's failure (or the
    worker's) is raised.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(manifest.resolve(rec), rec.id, plan, out_dir) for rec in manifest.records]
    try:
        map_tasks(_augment_record, tasks, jobs)
    except Exception:
        for task in tasks:
            for path in _planned_paths(*task):
                path.unlink(missing_ok=True)
        raise
    records = []
    for rec in manifest.records:
        records.append(replace(rec, path=f"{rec.id}.wav"))
        records.extend(replace(rec, id=f"{rec.id}__{tag}", path=f"{rec.id}__{tag}.wav",
                               augmentation=kind)
                       for tag, kind, _ in plan.variants())
    return DatasetManifest(records=records, root=out_dir)
