"""MFCC feature extraction.

Signal path per frame: Hamming window -> FFT power spectrum -> triangular Mel
filterbank -> log energies -> DCT-II. The width n_mfcc selects the layout:

* 13 (``classic13``) -- cepstral coefficients c1..c12 plus the frame log
  energy as a thirteenth column.
* 40 (``static40``)  -- the first 40 DCT coefficients c0..c39.

The finished matrix is zero-centered, scaled into [-1, 1] by its largest
absolute deviation, and zero-padded (or tail-truncated) to a fixed number of
frames so every utterance presents the same shape to the classifier.
"""

from __future__ import annotations

import functools
import json
import os
import zipfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .audio_io import CANONICAL_RATE, AudioBuffer, resample_linear
from .exceptions import FormatError, ParameterError

# added inside every logarithm, so silence gives a finite ln(LOG_FLOOR)
LOG_FLOOR = 1e-10
# every extraction frames the signal into FRAME_LEN samples (186 ms at
# CANONICAL_RATE) every HOP samples, no overlap, through N_MELS Mel filters
FRAME_LEN = 8192
HOP = 8192
N_MELS = 64


@dataclass
class FeatureConfig:
    """Width and padded length of the features, extracted at CANONICAL_RATE
    over the full Mel band, 0 Hz to half that rate."""

    n_mfcc: int = 40
    max_frames: int = 775

    def __post_init__(self):
        if self.n_mfcc not in (13, 40):
            raise ParameterError(f"n_mfcc must be 13 or 40, got {self.n_mfcc}")
        if self.max_frames < 1:
            raise ParameterError("max_frames must be >= 1")


@dataclass
class FeatureMatrix:
    """max_frames x n_mfcc matrix; rows beyond n_valid_frames are zero padding."""

    values: np.ndarray
    n_valid_frames: int


def frame_signal(buffer: AudioBuffer, frame_len: int, hop: int) -> np.ndarray:
    """Split a signal into frames of frame_len samples every hop samples.

    Trailing samples that do not fill a whole frame are dropped, so the frame
    count is floor((len - frame_len)/hop) + 1.
    """
    x = buffer.samples
    if hop < 1:
        raise ParameterError("hop must be >= 1")
    if len(x) < frame_len:
        raise ParameterError(
            f"signal of {len(x)} samples is shorter than one frame ({frame_len})"
        )
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def hamming_window(n: int) -> np.ndarray:
    """w[k] = 0.54 - 0.46 cos(2 pi k / (n-1)), k = 0..n-1."""
    if n < 2:
        raise ParameterError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def fft_power_spectrum(frame: np.ndarray) -> np.ndarray:
    """One-sided power spectrum |X[k]|^2, k = 0..n/2, of a real frame."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1]
    if n < 2 or n & (n - 1):
        raise ParameterError(f"frame length must be a power of two, got {n}")
    spectrum = np.fft.rfft(frame, axis=-1)
    return np.abs(spectrum) ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(frame_len: int, n_mels: int) -> np.ndarray:
    """Triangular filters, n_mels x (frame_len/2 + 1), peak weight 1.0 at each
    filter's center bin.

    Centers are equally spaced on the Mel scale from 0 Hz to CANONICAL_RATE/2.
    Each filter rises linearly from the previous center bin to its own and
    falls to the next, so every FFT bin between the first and last center gets
    nonzero weight from at least one filter.
    """
    n_bins = frame_len // 2 + 1
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(CANONICAL_RATE / 2), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.round(hz_points * frame_len / CANONICAL_RATE).astype(int)
    bins = np.minimum(bins, n_bins - 1)
    if np.any(np.diff(bins) < 1):
        raise ParameterError(
            f"{n_mels} Mel filters collapse at frame_len={frame_len}: "
            "adjacent centers map to the same FFT bin; reduce n_mels or raise frame_len"
        )

    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        left, center, right = bins[m], bins[m + 1], bins[m + 2]
        up = np.arange(left, center + 1)
        fb[m, up] = (up - left) / (center - left)
        down = np.arange(center, right + 1)
        fb[m, down] = (right - down) / (right - center)
        fb[m, center] = 1.0
    return fb


def log_mel_energies(power: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """ln(filterbank . power + LOG_FLOOR); accepts one spectrum or a stack."""
    power = np.asarray(power, dtype=np.float64)
    if power.shape[-1] != filterbank.shape[1]:
        raise ParameterError(
            f"power spectrum has {power.shape[-1]} bins, filterbank expects {filterbank.shape[1]}"
        )
    return np.log(power @ filterbank.T + LOG_FLOOR)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, n x n: D @ D.T = identity."""
    j = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.cos(np.pi * j * (m + 0.5) / n)
    d[0] *= np.sqrt(1.0 / n)
    d[1:] *= np.sqrt(2.0 / n)
    return d


def frame_log_energy(frame: np.ndarray) -> np.ndarray:
    """ln(sum of squared samples + LOG_FLOOR), computed on the raw frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] == 0:
        raise ParameterError("empty frame")
    return np.log(np.sum(frame * frame, axis=-1) + LOG_FLOOR)


def normalize_centered(matrix: np.ndarray) -> np.ndarray:
    """Zero-center and scale into [-1, 1] by the max absolute deviation,
    with statistics over every row. A constant matrix maps to all zeros.
    """
    matrix = np.array(matrix, dtype=np.float64)
    if len(matrix) < 1:
        raise ParameterError("need at least one valid frame")
    mu = matrix.mean()
    spread = np.abs(matrix - mu).max()
    if spread == 0.0:
        return np.zeros_like(matrix)
    return (matrix - mu) / spread


@functools.cache
def _dsp_constants():
    """The Hamming window, Mel filterbank and N_MELS x N_MELS DCT-II basis,
    built once and shared read-only. Building them also runs one FRAME_LEN
    FFT, which leaves numpy's FFT plan cached: a pool forked after this call
    inherits both and does not rebuild them in every worker."""
    constants = (hamming_window(FRAME_LEN), mel_filterbank(FRAME_LEN, N_MELS),
                 dct_matrix(N_MELS))
    for array in constants:
        array.flags.writeable = False
    np.fft.rfft(constants[0])
    return constants


def extract_features(buffer: AudioBuffer, config: FeatureConfig) -> FeatureMatrix:
    """Run the full per-utterance feature pipeline.

    A buffer at another rate is first resampled linearly to
    CANONICAL_RATE. Output is a max_frames x n_mfcc matrix normalized into
    [-1, 1]; rows past the valid frame count are zero.
    """
    (valid,) = extract_widths(buffer, [config.n_mfcc], config.max_frames)
    values = np.zeros((config.max_frames, config.n_mfcc))
    values[: len(valid)] = valid
    return FeatureMatrix(values=values, n_valid_frames=len(valid))


def extract_widths(buffer: AudioBuffer, widths, max_frames: int) -> list:
    """The valid rows of extract_features at each width (13 or 40), in order:
    one (frames, width) array each, frames being at most max_frames, from one
    pass of the pipeline's front end. The buffer is framed, windowed,
    transformed and Mel-filtered once, and every width is finished from the
    same log-Mel energies."""
    if buffer.sample_rate != CANONICAL_RATE:
        buffer = resample_linear(buffer, CANONICAL_RATE)
    if not np.isfinite(buffer.samples).all():
        raise ParameterError("buffer holds non-finite (NaN or infinite) samples")
    frames = frame_signal(buffer, FRAME_LEN, HOP)
    window, fb, dct = _dsp_constants()
    power = fft_power_spectrum(frames * window)
    log_e = log_mel_energies(power, fb)

    n_valid = min(len(frames), max_frames)
    out = []
    for width in widths:
        if width == 40:
            raw = log_e @ dct[:40].T
        else:
            cepstra = log_e @ dct[:13].T
            raw = np.column_stack([cepstra[:, 1:13], frame_log_energy(frames)])
        out.append(normalize_centered(raw[:n_valid]))
    return out


# --- On-disk feature store ----------------------------------------------------
#
# One `mfcc<n_mfcc>.npz` per width: the sorted sample ids, each id's valid rows
# only (concatenated in id order, counts in `n_valid`), each id's source content
# hash, and the producing FeatureConfig as sorted-key JSON. np.savez stamps every
# member with the same fixed date, so equal stores are equal bytes.


@dataclass
class FeatureStore:
    """One width's stored features: the producing config, and per sample id
    its valid rows (n_valid x n_mfcc) and its source content hash."""

    config: FeatureConfig
    rows: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)

    def stack(self, ids, dtype=np.float64) -> np.ndarray:
        """(len(ids), config.max_frames, n_mfcc) rows of ids in dtype, in
        order, zero-padded past each id's valid frames. Each stored float64
        row is rounded into dtype as astype rounds it, with no float64 copy
        of the whole stack."""
        ids = list(ids)
        out = np.zeros((len(ids), self.config.max_frames, self.config.n_mfcc), dtype=dtype)
        for k, sample_id in enumerate(ids):
            if sample_id not in self.rows:
                raise ParameterError(f"no {self.config.n_mfcc}-MFCC features for {sample_id!r}; "
                                     f"run `convser extract --mfcc {self.config.n_mfcc}` first")
            valid = self.rows[sample_id]
            out[k, : len(valid)] = valid
        return out


def store_path(root, n_mfcc: int) -> Path:
    return Path(root) / f"mfcc{n_mfcc}.npz"


def save_features(store: FeatureStore, root) -> None:
    """Write the store through a temporary file, so an interrupted run never
    leaves a truncated one."""
    path = store_path(root, store.config.n_mfcc)
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = sorted(store.rows)
    rows = [store.rows[i] for i in ids] or [np.zeros((0, store.config.n_mfcc))]
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez(
            handle,
            ids=np.array(ids, dtype=str),
            n_valid=np.array([len(store.rows[i]) for i in ids], dtype=np.int64),
            rows=np.concatenate(rows),
            content_hashes=np.array([store.hashes[i] for i in ids], dtype=str),
            config=np.array(json.dumps(asdict(store.config), sort_keys=True)),
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_features(root, n_mfcc: int) -> FeatureStore:
    path = store_path(root, n_mfcc)
    if not path.is_file():
        raise ParameterError(f"no feature store at {path}; "
                             f"run `convser extract --mfcc {n_mfcc}` first")
    fix = f"delete it and re-run `convser extract --mfcc {n_mfcc}`"
    try:
        with np.load(path, allow_pickle=False) as npz:
            ids = npz["ids"].tolist()
            stacked = npz["rows"]
            rows = np.split(stacked, np.cumsum(npz["n_valid"])[:-1])
            hashes = npz["content_hashes"].tolist()
            config = FeatureConfig(**json.loads(str(npz["config"])))
        finite = np.isfinite(stacked).all()
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise FormatError(f"feature store {path} is corrupt or was written by another convser "
                          f"version ({type(exc).__name__}); {fix}") from None
    if not finite:
        bad = next(i for i, r in zip(ids, rows) if not np.isfinite(r).all())
        raise FormatError(f"feature store {path} holds non-finite (NaN or infinite) features "
                          f"for {bad!r}; {fix}")
    return FeatureStore(config, dict(zip(ids, rows)), dict(zip(ids, hashes)))


def cached_features_fresh(root, config: FeatureConfig, content_hashes: dict):
    """(store, fresh ids) for config's width under root. The store is the one
    on disk when config made it, else a new empty one; the fresh ids are those
    in content_hashes whose stored rows came from the same content."""
    path = store_path(root, config.n_mfcc)
    store = load_features(root, config.n_mfcc) if path.is_file() else None
    if store is None or store.config != config:
        return FeatureStore(config), set()
    return store, {i for i, h in content_hashes.items() if store.hashes.get(i) == h}
