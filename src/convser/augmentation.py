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
# the stretch rates time_stretch takes, and the largest shift pitch_shift takes
STRETCH_RATES = (0.5, 2.0)
MAX_SEMITONES = 12
# clip peaks whose lag searches are screened in float32 (_screen); outside this
# range a float64 product could overflow or fall below the normal numbers
SCREENED_PEAKS = (2.0**-500, 2.0**500)


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

    def __post_init__(self):
        lo, hi = STRETCH_RATES
        for name, values in (("time_stretch_rates", self.time_stretch_rates),
                             ("combined_stretch_rate", (self.combined_stretch_rate,))):
            if not all(lo <= rate <= hi for rate in values):
                raise ParameterError(f"{name}: stretch rates must be in [{lo}, {hi}], "
                                     f"got {list(values)}")
        if not all(abs(s) <= MAX_SEMITONES for s in self.pitch_shift_semitones):
            raise ParameterError(f"pitch_shift_semitones: |semitones| must be <= "
                                 f"{MAX_SEMITONES}, got {list(self.pitch_shift_semitones)}")
        # +inf is the no-noise sentinel; NaN and -inf name no noise level
        for name, values in (("noise_snrs_db", self.noise_snrs_db),
                             ("combined_snr_db", (self.combined_snr_db,))):
            if not all(-math.inf < snr <= math.inf for snr in values):
                raise ParameterError(f"{name}: SNRs must be numbers of dB or inf (no noise), "
                                     f"got {list(values)}")
        tags = set()
        for tag, _, _ in self.variants():
            if tag in tags:  # each tag names one output file per original
                raise ParameterError(f"two variants of the plan share the tag {tag!r}")
            tags.add(tag)

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
    lo, hi = STRETCH_RATES
    if not lo <= rate <= hi:
        raise ParameterError(f"stretch rate must be in [{lo}, {hi}], got {rate}")
    x = _finite_samples(buffer)
    if rate == 1.0:
        return AudioBuffer(x.copy(), buffer.sample_rate)
    n_in = len(x)
    n_out = int(round(n_in / rate))
    grain = min(OLA_GRAIN, n_in, max(n_out, 2))
    hop = max(1, min(OLA_HOP, grain // 4))
    template = min(OLA_TEMPLATE, grain)
    window = np.hanning(grain)
    screen = _screen(x, template)

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
            lo = max(nominal - OLA_TOLERANCE, 0)
            hi = min(nominal + OLA_TOLERANCE, n_in - grain)
            if hi > lo and x[natural : natural + template].any():
                in_pos = lo + _best_lag(x, lo, hi, natural, template, screen)
            else:
                in_pos = nominal
        prev_in = in_pos
        take = min(grain, n_out - out_pos)
        out[out_pos : out_pos + take] += x[in_pos : in_pos + take] * window[:take]
        weight[out_pos : out_pos + take] += window[:take]
    out /= np.maximum(weight, 1e-8)
    return AudioBuffer(out, buffer.sample_rate)


def _finite_samples(buffer: AudioBuffer) -> np.ndarray:
    """buffer's samples, which must all be finite."""
    if not np.isfinite(buffer.samples).all():
        raise ParameterError("buffer holds non-finite (NaN or infinite) samples")
    return buffer.samples


def _screen(x: np.ndarray, n: int):
    """(float32 copy of x scaled into |x| < 1 by a power of two, screen slack)
    for the lag searches of n-sample templates in x, or None when x's peak is
    outside SCREENED_PEAKS.

    One lag's float32 screen value differs from scale**2 times its float64
    value by at most E = n (1.01 (gamma_n(u) (1 + u)**2 + 3u + gamma_n(v)) +
    scale**2 2**-1074), u = 2**-24, v = 2**-53, for any summation order, where
    gamma_n(u) = nu / (1 - nu) bounds the relative error of an n-term sum of
    products (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.1). With every scaled sample below 1 in magnitude, the float32 sum
    errs by at most n gamma_n(u) (1 + u)**2, rounding the operands to float32
    (underflow included) by 3un, and the float64 sum, scaled, by n gamma_n(v);
    the last term is the underflow of the float64 products, and the 1% covers
    the rest. The lags with the largest float64 value therefore all lie
    within 2E of the screen's maximum."""
    peak = float(np.max(np.abs(x), initial=0.0))
    if not SCREENED_PEAKS[0] < peak < SCREENED_PEAKS[1]:
        return None
    scale = 2.0 ** -math.frexp(peak)[1]
    u, v = 2.0**-24, 2.0**-53
    gamma_u, gamma_v = n * u / (1 - n * u), n * v / (1 - n * v)
    error = n * (1.01 * (gamma_u * (1 + u) ** 2 + 3 * u + gamma_v) + scale * scale * 2.0**-1074)
    return (x * scale).astype(np.float32), 2 * error


def _best_lag(x, lo, hi, natural, template, screen) -> int:
    """np.argmax(np.correlate(x[lo : hi + template], target, mode="valid")) for
    the target x[natural : natural + template]: the first lag of the largest
    float64 correlation. With a screen (_screen), one float32 correlation over
    all lags keeps the lags within its slack of the maximum, and np.dot, the
    same per-lag ddot np.correlate runs, gives their float64 values; max
    keeps the first of equal values, as np.argmax does."""
    region, target = x[lo : hi + template], x[natural : natural + template]
    if screen is None:
        return int(np.argmax(np.correlate(region, target, mode="valid")))
    x32, slack = screen
    values = np.correlate(x32[lo : hi + template], x32[natural : natural + template],
                          mode="valid")
    top = np.float64(values[values.argmax()])
    candidates = (values >= top - slack).nonzero()[0].tolist()
    if len(candidates) == 1:  # the lag of the largest float64 value is always a candidate
        return candidates[0]
    return max(candidates, key=lambda j: np.dot(region[j : j + template], target))


def pitch_shift(buffer: AudioBuffer, semitones: float) -> AudioBuffer:
    """Scale every frequency by 2^(semitones/12) at unchanged duration:
    stretch the signal to factor x length, then linearly resample back."""
    if not abs(semitones) <= MAX_SEMITONES:
        raise ParameterError(f"|semitones| must be <= {MAX_SEMITONES}, got {semitones}")
    _finite_samples(buffer)
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
    x = _finite_samples(buffer)
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


def _merged_ids(rec_id, plan):
    """The ids one record contributes to the merged manifest: its own, then
    <id>__<tag> for each variant, in plan order."""
    return [rec_id] + [f"{rec_id}__{tag}" for tag, _, _ in plan.variants()]


def _planned_paths(src, rec_id, plan, out_dir):
    """(copies, variant paths): the files one record writes into out_dir, each
    <merged id>.wav; no copy when the original is its own source."""
    dst, *variant_paths = (out_dir / f"{name}.wav" for name in _merged_ids(rec_id, plan))
    return [] if src.resolve() == dst.resolve() else [dst], variant_paths


def _augment_record(task):
    """Copy one original into out_dir and write its variants."""
    src, rec_id, plan, out_dir = task
    copies, variant_paths = _planned_paths(*task)
    for dst in copies:
        shutil.copyfile(src, dst)
    buffer = load_wav(src)
    for path, (tag, kind, param) in zip(variant_paths, plan.variants()):
        write_wav(_apply_variant(buffer, kind, param, derive_seed(plan.rng_seed, rec_id, tag)),
                  path)


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
    worker's) is raised. Before any of that, every merged id must be unique
    and name a plain file in out_dir, or ParameterError names the first that
    is not.
    """
    merged = set()
    for rec in manifest.records:
        for name in _merged_ids(rec.id, plan):
            if Path(f"{name}.wav").name != f"{name}.wav":
                raise ParameterError(f"id {name!r} is not a plain file name")
            if name in merged:
                raise ParameterError(f"two records of the augmented corpus have the id {name!r}")
            merged.add(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(manifest.resolve(rec), rec.id, plan, out_dir) for rec in manifest.records]
    try:
        map_tasks(_augment_record, tasks, jobs)
    except Exception:
        for task in tasks:
            copies, variant_paths = _planned_paths(*task)
            for path in copies + variant_paths:
                path.unlink(missing_ok=True)
        raise
    records = []
    for rec, task in zip(manifest.records, tasks):
        _, variant_paths = _planned_paths(*task)
        records.append(replace(rec, path=f"{rec.id}.wav"))
        records.extend(replace(rec, id=path.stem, path=path.name, augmentation=kind)
                       for path, (_, kind, _) in zip(variant_paths, plan.variants()))
    return DatasetManifest(records=records, root=out_dir)
