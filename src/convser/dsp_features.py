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
import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, resample_linear
from .exceptions import FormatError, ParameterError


@dataclass
class FeatureConfig:
    sample_rate: int = 44100
    frame_len: int = 8192
    hop: int = 8192
    n_mels: int = 64
    n_mfcc: int = 40
    fmin: float = 0.0
    fmax: float | None = None
    log_floor: float = 1e-10
    max_frames: int = 775

    def __post_init__(self):
        if self.fmax is None:
            self.fmax = self.sample_rate / 2
        if self.frame_len < 2 or self.frame_len & (self.frame_len - 1):
            raise ParameterError(f"frame_len must be a power of two, got {self.frame_len}")
        if self.hop < 1:
            raise ParameterError("hop must be >= 1")
        if self.n_mfcc not in (13, 40):
            raise ParameterError(f"n_mfcc must be 13 or 40, got {self.n_mfcc}")
        if self.n_mels < self.n_mfcc:
            raise ParameterError(f"n_mels = {self.n_mels} too small for n_mfcc = {self.n_mfcc}")
        if not 0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise ParameterError(
                f"need 0 <= fmin < fmax <= sample_rate/2, got fmin={self.fmin} fmax={self.fmax}"
            )
        if self.log_floor <= 0:
            raise ParameterError("log_floor must be positive")
        if self.max_frames < 1:
            raise ParameterError("max_frames must be >= 1")


@dataclass
class FeatureMatrix:
    """max_frames x n_mfcc matrix; rows beyond n_valid_frames are zero padding."""

    values: np.ndarray
    n_valid_frames: int


def config_hash(config) -> str:
    """Stable hex digest of a config dataclass (sorted-key JSON over fields)."""
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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


def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular filters, n_mels x (frame_len/2 + 1), peak weight 1.0 at each
    filter's center bin.

    Centers are equally spaced on the Mel scale between fmin and fmax. Each
    filter rises linearly from the previous center bin to its own and falls
    to the next, so every FFT bin between the first and last center gets
    nonzero weight from at least one filter.
    """
    return _mel_filterbank(config.sample_rate, config.frame_len, config.n_mels,
                           config.fmin, config.fmax)


def _mel_filterbank(sample_rate, frame_len, n_mels, fmin, fmax) -> np.ndarray:
    n_bins = frame_len // 2 + 1
    mel_points = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.round(hz_points * frame_len / sample_rate).astype(int)
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


def log_mel_energies(power: np.ndarray, filterbank: np.ndarray, log_floor: float = 1e-10) -> np.ndarray:
    """ln(filterbank . power + log_floor); accepts one spectrum or a stack."""
    power = np.asarray(power, dtype=np.float64)
    if power.shape[-1] != filterbank.shape[1]:
        raise ParameterError(
            f"power spectrum has {power.shape[-1]} bins, filterbank expects {filterbank.shape[1]}"
        )
    return np.log(power @ filterbank.T + log_floor)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, n x n: D @ D.T = identity."""
    j = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.cos(np.pi * j * (m + 0.5) / n)
    d[0] *= np.sqrt(1.0 / n)
    d[1:] *= np.sqrt(2.0 / n)
    return d


def frame_log_energy(frame: np.ndarray, log_floor: float = 1e-10) -> np.ndarray:
    """ln(sum of squared samples + log_floor), computed on the raw frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] == 0:
        raise ParameterError("empty frame")
    return np.log(np.sum(frame * frame, axis=-1) + log_floor)


def normalize_centered(matrix: np.ndarray, n_valid: int | None = None) -> np.ndarray:
    """Zero-center and scale into [-1, 1] by the max absolute deviation.

    Statistics are taken over the first n_valid rows only (all rows by
    default); any remaining rows are forced to zero. A constant matrix maps
    to all zeros.
    """
    matrix = np.array(matrix, dtype=np.float64)
    if n_valid is None:
        n_valid = len(matrix)
    if n_valid < 1:
        raise ParameterError("need at least one valid frame")
    valid = matrix[:n_valid]
    mu = valid.mean()
    spread = np.abs(valid - mu).max()
    if spread == 0.0:
        matrix[:n_valid] = 0.0
    else:
        matrix[:n_valid] = (valid - mu) / spread
    matrix[n_valid:] = 0.0
    return matrix


@functools.lru_cache(maxsize=8)
def _dsp_constants(sample_rate, frame_len, n_mels, fmin, fmax):
    """The Hamming window, Mel filterbank and n_mels x n_mels DCT-II basis of
    one framing and filterbank setup, built once and shared read-only."""
    constants = (hamming_window(frame_len),
                 _mel_filterbank(sample_rate, frame_len, n_mels, fmin, fmax),
                 dct_matrix(n_mels))
    for array in constants:
        array.flags.writeable = False
    return constants


def extract_features(buffer: AudioBuffer, config: FeatureConfig) -> FeatureMatrix:
    """Run the full per-utterance feature pipeline.

    A buffer at another rate is first resampled linearly to
    config.sample_rate. Output is a max_frames x n_mfcc matrix normalized into
    [-1, 1]; rows past the valid frame count are zero.
    """
    return extract_widths(buffer, [config])[0]


def extract_widths(buffer: AudioBuffer, configs) -> list:
    """extract_features for each config, in order, from one pass of the
    pipeline's front end: the buffer is framed, windowed, transformed and
    Mel-filtered once, and every width is finished from the same log-Mel
    energies. The configs may differ in n_mfcc only."""
    config = configs[0]
    if any(replace(c, n_mfcc=config.n_mfcc) != config for c in configs):
        raise ParameterError("configs extracted together may differ in n_mfcc only")
    if buffer.sample_rate != config.sample_rate:
        buffer = resample_linear(buffer, config.sample_rate)
    if not np.isfinite(buffer.samples).all():
        raise ParameterError("buffer holds non-finite (NaN or infinite) samples")
    frames = frame_signal(buffer, config.frame_len, config.hop)
    window, fb, dct = _dsp_constants(config.sample_rate, config.frame_len, config.n_mels,
                                     config.fmin, config.fmax)
    power = fft_power_spectrum(frames * window)
    log_e = log_mel_energies(power, fb, config.log_floor)

    n_valid = min(len(frames), config.max_frames)
    out = []
    for width in (c.n_mfcc for c in configs):
        if width == 40:
            raw = log_e @ dct[:40].T
        else:
            cepstra = log_e @ dct[:13].T
            raw = np.column_stack([cepstra[:, 1:13], frame_log_energy(frames, config.log_floor)])
        values = np.zeros((config.max_frames, width))
        values[:n_valid] = normalize_centered(raw[:n_valid])
        out.append(FeatureMatrix(values=values, n_valid_frames=n_valid))
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

    def stack(self, ids) -> np.ndarray:
        """(len(ids), config.max_frames, n_mfcc) float64 rows of ids, in order,
        zero-padded past each id's valid frames."""
        ids = list(ids)
        out = np.zeros((len(ids), self.config.max_frames, self.config.n_mfcc))
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
    try:
        with np.load(path, allow_pickle=False) as npz:
            ids = npz["ids"].tolist()
            rows = np.split(npz["rows"], np.cumsum(npz["n_valid"])[:-1])
            hashes = npz["content_hashes"].tolist()
            config = FeatureConfig(**json.loads(str(npz["config"])))
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise FormatError(f"feature store {path} is corrupt or was written by another convser "
                          f"version ({type(exc).__name__}); "
                          f"delete it and re-run `convser extract --mfcc {n_mfcc}`") from None
    return FeatureStore(config, dict(zip(ids, rows)), dict(zip(ids, hashes)))


def cached_features_fresh(root, config: FeatureConfig, content_hashes: dict):
    """(store, fresh ids) for config's width under root. The store is the one
    on disk when config made it, else a new empty one; the fresh ids are those
    in content_hashes whose stored rows came from the same content."""
    path = store_path(root, config.n_mfcc)
    store = load_features(root, config.n_mfcc) if path.is_file() else None
    if store is None or config_hash(store.config) != config_hash(config):
        return FeatureStore(config), set()
    return store, {i for i, h in content_hashes.items() if store.hashes.get(i) == h}
