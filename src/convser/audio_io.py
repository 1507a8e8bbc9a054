"""WAV reading/writing, linear resampling, and dataset manifest handling.

The pipeline runs at one rate, CANONICAL_RATE (44.1 kHz): synthesis writes
at it, and feature extraction resamples recordings at other rates to it.
Canonical output format is mono PCM-16 little-endian.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .exceptions import FormatError, ManifestError, ParameterError, UnsupportedCodecError

CANONICAL_RATE = 44100

POSITIONS = ("pro", "contra")
AUGMENTATIONS = ("original", "time_stretch", "pitch_shift", "noise", "combined")

MANIFEST_FIELDS = (
    "id",
    "path",
    "speaker_id",
    "topic_id",
    "position",
    "label",
    "group_id",
    "augmentation",
)


@dataclass
class AudioBuffer:
    """Mono PCM samples as real amplitudes (nominal range [-1, 1]) plus rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ParameterError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=np.float64)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class SampleRecord:
    """One labeled corpus entry. label 1 means the statement reflects the
    speaker's actual conviction; all augmented variants inherit the label and
    group_id of their original recording."""

    id: str
    path: str
    speaker_id: str
    topic_id: int
    position: str
    label: int
    group_id: str
    augmentation: str = "original"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=False)


@dataclass
class DatasetManifest:
    records: list = field(default_factory=list)
    root: Path = Path(".")

    def __post_init__(self):
        self.root = Path(self.root)

    def resolve(self, record: SampleRecord) -> Path:
        return self.root / record.path

    def label_counts(self) -> dict:
        counts = {0: 0, 1: 0}
        for rec in self.records:
            counts[rec.label] += 1
        return counts

    def __len__(self):
        return len(self.records)


# --- WAV I/O ----------------------------------------------------------------
#
# Minimal RIFF/WAVE parser: PCM 16-bit (format tag 1) or IEEE float 32-bit
# (format tag 3), mono or stereo. WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE) carries
# the same two codes in the first bytes of its subformat GUID. Anything else is
# rejected explicitly so callers get a codec error rather than garbage samples.

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# bytes 2..15 of every KSDATAFORMAT_SUBTYPE_* GUID that wraps a plain format
# code; bytes 0..1 hold the code itself, little-endian
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def load_wav(path) -> AudioBuffer:
    """Read a WAV file into a mono AudioBuffer.

    Stereo input is downmixed by channel averaging; 16-bit integers are
    scaled by 1/32768 into [-1, 1]; the header sample rate is preserved.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF":
        raise FormatError(f"{path}: not a RIFF file")
    if raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: RIFF file is not WAVE")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _EXTENSIBLE:
                if len(body) < 40:
                    raise FormatError(f"{path}: extensible fmt chunk truncated")
                subformat = body[24:40]
                if subformat[2:] != _SUBFORMAT_GUID_TAIL:
                    raise UnsupportedCodecError(
                        f"{path}: extensible subformat {subformat.hex()} is not supported "
                        "(expect PCM-16 or IEEE float-32)"
                    )
                fmt = (int.from_bytes(subformat[:2], "little"),) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError(f"{path}: data chunk truncated")
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if sample_rate == 0:
        raise FormatError(f"{path}: header sample rate is 0")
    if channels not in (1, 2):
        raise UnsupportedCodecError(f"{path}: {channels} channels (only mono/stereo)")
    if (audio_format, bits) not in ((_PCM, 16), (_IEEE_FLOAT, 32)):
        raise UnsupportedCodecError(
            f"{path}: format tag {audio_format} at {bits} bits is not supported "
            "(expect PCM-16 or IEEE float-32)"
        )
    if len(data) % (bits // 8):
        raise FormatError(f"{path}: data chunk of {len(data)} bytes is not a whole number "
                          f"of {bits}-bit samples")
    if audio_format == _PCM:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.isfinite(samples).all():
            raise FormatError(f"{path}: non-finite float samples")

    if channels == 2:
        if len(samples) % 2:
            raise FormatError(f"{path}: stereo data length is odd")
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples=samples, sample_rate=int(sample_rate))


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write a mono PCM-16 little-endian WAV file.

    Amplitudes are clipped to [-1, 1] before quantization, so round-tripping
    holds every sample within 1/32768.
    """
    if len(buffer.samples) == 0:
        raise ParameterError("refusing to write an empty buffer")
    if not np.isfinite(buffer.samples).all():
        raise ParameterError(f"{path}: refusing to write non-finite (NaN or infinite) samples")
    clipped = np.clip(buffer.samples, -1.0, 1.0)
    ints = np.clip(np.rint(clipped * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()

    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,  # fmt chunk size
        _PCM,
        1,  # mono
        buffer.sample_rate,
        buffer.sample_rate * 2,  # byte rate
        2,  # block align
        16,  # bits per sample
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def resample_linear(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample by linear interpolation; identity when the rates match."""
    if target_rate <= 0:
        raise ParameterError(f"target_rate must be positive, got {target_rate}")
    if target_rate == buffer.sample_rate:
        return AudioBuffer(buffer.samples.copy(), buffer.sample_rate)
    n_in = len(buffer.samples)
    n_out = int(round(n_in * target_rate / buffer.sample_rate))
    src_pos = np.arange(n_out) * (buffer.sample_rate / target_rate)
    out = np.interp(src_pos, np.arange(n_in), buffer.samples)
    return AudioBuffer(out, int(target_rate))


# --- Manifest ---------------------------------------------------------------


def load_manifest(path) -> DatasetManifest:
    """Load and validate a JSON-lines manifest.

    Loading is all-or-nothing: either every record passes validation or a
    ManifestError is raised carrying one message per offending line.
    """
    path = Path(path)
    root = path.parent
    violations = []
    records = []
    seen_ids = {}

    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ManifestError([f"cannot read manifest: {exc}"]) from exc

    line_no = 0
    for raw_line in lines:
        line_no += 1
        line = raw_line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            violations.append(f"line {line_no}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict):
            violations.append(f"line {line_no}: not a JSON object")
            continue
        missing = [f for f in MANIFEST_FIELDS if f not in obj]
        if missing:
            violations.append(f"line {line_no}: missing fields {missing}")
            continue

        rec_id = str(obj["id"])
        if rec_id in seen_ids:
            violations.append(
                f"line {line_no}: duplicate id {rec_id!r} (first seen line {seen_ids[rec_id]})"
            )
        else:
            seen_ids[rec_id] = line_no

        # type() rather than isinstance(): JSON true is a bool, and bool is an int
        label = obj["label"]
        if type(label) is not int or label not in (0, 1):
            violations.append(f"line {line_no}: label {label!r} is not the integer 0 or 1")
        topic = obj["topic_id"]
        if type(topic) is not int or not 1 <= topic <= 4:
            violations.append(f"line {line_no}: topic_id {topic!r} is not an integer in 1..4")
        if obj["position"] not in POSITIONS:
            violations.append(f"line {line_no}: position {obj['position']!r} not in {POSITIONS}")
        if obj["augmentation"] not in AUGMENTATIONS:
            violations.append(
                f"line {line_no}: augmentation {obj['augmentation']!r} not in {AUGMENTATIONS}"
            )
        wav_path = root / str(obj["path"])
        if not (wav_path.is_file() and os.access(wav_path, os.R_OK)):
            violations.append(f"line {line_no}: file not readable: {obj['path']}")

        records.append(
            SampleRecord(
                id=rec_id,
                path=str(obj["path"]),
                speaker_id=str(obj["speaker_id"]),
                topic_id=topic,
                position=str(obj["position"]),
                label=label,
                group_id=str(obj["group_id"]),
                augmentation=str(obj["augmentation"]),
            )
        )

    if not records:
        violations.append("manifest contains no records")
    if violations:
        raise ManifestError(violations)
    return DatasetManifest(records=records, root=root)


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write a manifest as JSON-lines (one record object per line)."""
    path = Path(path)
    path.write_text("".join(rec.to_json() + "\n" for rec in manifest.records))
