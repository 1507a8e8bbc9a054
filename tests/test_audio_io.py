import json
import struct
import uuid

import numpy as np
import pytest

from convser.audio_io import (
    AudioBuffer,
    load_manifest,
    load_wav,
    resample_linear,
    save_manifest,
    write_wav,
)
from convser.exceptions import FormatError, ManifestError, ParameterError, UnsupportedCodecError

from conftest import dominant_frequency, make_tone, wav_bytes


class TestLoadWav:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(AudioBuffer(np.zeros(44100), 44100), path)
        buf = load_wav(path)
        assert buf.sample_rate == 44100
        assert len(buf.samples) == 44100
        assert np.all(buf.samples == 0.0)

    def test_sine_roundtrip_within_quantization(self, tmp_path):
        tone = make_tone(440, duration_s=0.5, amplitude=1.0)
        path = tmp_path / "sine.wav"
        write_wav(tone, path)
        back = load_wav(path)
        assert back.sample_rate == tone.sample_rate
        assert np.abs(back.samples - tone.samples).max() <= 1.0 / 32768

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.uniform(-1, 1, 5000), 16000)
        path = tmp_path / "rand.wav"
        write_wav(buf, path)
        back = load_wav(path)
        assert np.abs(back.samples - buf.samples).max() <= 1.0 / 32768

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_riff_but_not_wave(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"AVI " + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_stereo_downmix_of_identical_channels(self, tmp_path):
        mono = (np.sin(np.linspace(0, 20, 512)) * 20000).astype("<i2")
        stereo = np.repeat(mono, 2)
        path = tmp_path / "stereo.wav"
        path.write_bytes(wav_bytes(1, 2, 8000, 16, stereo.tobytes()))
        buf = load_wav(path)
        assert np.array_equal(buf.samples, mono.astype(np.float64) / 32768.0)

    def test_float32_payload(self, tmp_path):
        values = np.linspace(-0.9, 0.9, 100).astype("<f4")
        path = tmp_path / "f32.wav"
        path.write_bytes(wav_bytes(3, 1, 22050, 32, values.tobytes()))
        buf = load_wav(path)
        assert buf.sample_rate == 22050
        assert np.allclose(buf.samples, values, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_rejected(self, tmp_path, bad):
        values = np.linspace(-0.9, 0.9, 100).astype("<f4")
        values[37] = bad
        path = tmp_path / "bad_f32.wav"
        path.write_bytes(wav_bytes(3, 1, 22050, 32, values.tobytes()))
        with pytest.raises(FormatError, match="bad_f32.wav.*non-finite"):
            load_wav(path)

    @pytest.mark.parametrize("fmt_tag, bits, n_bytes", [(1, 16, 3), (3, 32, 6)])
    def test_partial_sample_rejected(self, tmp_path, fmt_tag, bits, n_bytes):
        path = tmp_path / "partial.wav"
        path.write_bytes(wav_bytes(fmt_tag, 1, 44100, bits, b"\x00" * n_bytes))
        with pytest.raises(FormatError, match=f"partial.wav: data chunk of {n_bytes} bytes"):
            load_wav(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(wav_bytes(1, 1, 0, 16, b"\x00" * 32))
        with pytest.raises(FormatError, match="rate0.wav: header sample rate is 0"):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "mp3ish.wav"
        path.write_bytes(wav_bytes(85, 1, 44100, 16, b"\x00" * 32))
        with pytest.raises(UnsupportedCodecError):
            load_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(wav_bytes(1, 1, 44100, 8, b"\x00" * 32))
        with pytest.raises(UnsupportedCodecError):
            load_wav(path)


def extensible_wav_bytes(subformat, channels, rate, bits, payload):
    """A WAVE_FORMAT_EXTENSIBLE file: the 40-byte fmt chunk ends in the
    subformat GUID, in its little-endian byte layout."""
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block_align, block_align, bits)
    fmt += struct.pack("<HHI", 22, bits, 0) + uuid.UUID(subformat).bytes_le
    header = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    return header + b"data" + struct.pack("<I", len(payload)) + payload


KSDATAFORMAT_SUBTYPE_PCM = "00000001-0000-0010-8000-00aa00389b71"
KSDATAFORMAT_SUBTYPE_IEEE_FLOAT = "00000003-0000-0010-8000-00aa00389b71"


class TestWaveFormatExtensible:
    def test_pcm16_reads_like_plain_pcm(self, tmp_path):
        ints = (np.sin(np.linspace(0, 20, 512)) * 20000).astype("<i2")
        stereo = np.repeat(ints, 2).tobytes()
        (tmp_path / "plain.wav").write_bytes(wav_bytes(1, 2, 8000, 16, stereo))
        (tmp_path / "ext.wav").write_bytes(
            extensible_wav_bytes(KSDATAFORMAT_SUBTYPE_PCM, 2, 8000, 16, stereo))
        plain, ext = load_wav(tmp_path / "plain.wav"), load_wav(tmp_path / "ext.wav")
        assert ext.sample_rate == 8000
        assert np.array_equal(ext.samples, plain.samples)
        assert np.array_equal(ext.samples, ints.astype(np.float64) / 32768.0)

    def test_float32_reads_like_plain_float(self, tmp_path):
        values = np.linspace(-0.9, 0.9, 100).astype("<f4")
        path = tmp_path / "ext_f32.wav"
        path.write_bytes(extensible_wav_bytes(KSDATAFORMAT_SUBTYPE_IEEE_FLOAT, 1, 22050, 32,
                                              values.tobytes()))
        buf = load_wav(path)
        assert buf.sample_rate == 22050
        assert np.array_equal(buf.samples, values.astype(np.float64))

    @pytest.mark.parametrize("subformat, bits", [
        (KSDATAFORMAT_SUBTYPE_PCM, 24),
        (KSDATAFORMAT_SUBTYPE_PCM, 8),
        (KSDATAFORMAT_SUBTYPE_IEEE_FLOAT, 64),
        ("00000006-0000-0010-8000-00aa00389b71", 8),   # A-law
        ("00000001-0721-11d3-8644-c8c1ca000000", 16),  # ambisonic B-format PCM
    ])
    def test_other_subformats_rejected(self, tmp_path, subformat, bits):
        path = tmp_path / "other.wav"
        path.write_bytes(extensible_wav_bytes(subformat, 1, 8000, bits, b"\x00" * 48))
        with pytest.raises(UnsupportedCodecError, match="other.wav"):
            load_wav(path)

    def test_short_extensible_fmt_chunk(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(wav_bytes(0xFFFE, 1, 8000, 16, b"\x00" * 32))
        with pytest.raises(FormatError, match="short.wav.*truncated"):
            load_wav(path)


class TestWriteWav:
    def test_clipping_of_overshoot(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(AudioBuffer(np.array([2.0, -2.0, 0.0]), 8000), path)
        back = load_wav(path)
        assert back.samples[0] == 32767 / 32768
        assert back.samples[1] == -1.0
        assert back.samples[2] == 0.0

    def test_empty_buffer_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        with pytest.raises(ParameterError, match="x.wav: refusing to write an empty buffer"):
            write_wav(AudioBuffer(np.zeros(0), 8000), path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        path = tmp_path / "x.wav"
        with pytest.raises(ParameterError, match="x.wav: refusing to write non-finite"):
            write_wav(AudioBuffer(np.array([0.1, bad, 0.0]), 8000), path)
        assert not path.exists()


class TestResample:
    def test_identity_when_rates_match(self):
        buf = make_tone(100, duration_s=0.1, rate=8000)
        out = resample_linear(buf, 8000)
        assert out.sample_rate == 8000
        assert np.array_equal(out.samples, buf.samples)

    def test_constant_stays_constant(self):
        buf = AudioBuffer(np.full(1000, 0.5), 8000)
        out = resample_linear(buf, 11025)
        assert out.sample_rate == 11025
        assert len(out.samples) == round(1000 * 11025 / 8000)
        assert np.allclose(out.samples, 0.5, atol=1e-12)

    def test_dominant_frequency_preserved(self):
        buf = make_tone(100, duration_s=1.0, rate=8000)
        out = resample_linear(buf, 16000)
        assert len(out.samples) == 16000
        assert abs(dominant_frequency(out) - 100.0) <= 1.0

    def test_bad_target_rate(self):
        with pytest.raises(ParameterError):
            resample_linear(make_tone(100, 0.1, 8000), 0)


def record_line(i, label, **overrides):
    rec = {
        "id": f"rec{i:03d}",
        "path": f"rec{i:03d}.wav",
        "speaker_id": f"spk{i:03d}",
        "topic_id": 1 + i % 4,
        "position": "pro",
        "label": label,
        "group_id": f"rec{i:03d}",
        "augmentation": "original",
    }
    rec.update(overrides)
    return json.dumps(rec)


class TestManifest:
    def write_corpus(self, tmp_path, lines, n_wavs):
        for i in range(n_wavs):
            write_wav(AudioBuffer(np.zeros(100), 44100), tmp_path / f"rec{i:03d}.wav")
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_paper_scale_counts(self, tmp_path):
        lines = [record_line(i, 1 if i < 18 else 0) for i in range(38)]
        path = self.write_corpus(tmp_path, lines, 38)
        manifest = load_manifest(path)
        assert len(manifest) == 38
        assert manifest.label_counts() == {1: 18, 0: 20}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        with pytest.raises(ManifestError, match="no records"):
            load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        lines = [record_line(0, 1), record_line(0, 0, path="rec001.wav")]
        path = self.write_corpus(tmp_path, lines, 2)
        with pytest.raises(ManifestError, match="duplicate id"):
            load_manifest(path)

    def test_bad_label_names_line(self, tmp_path):
        lines = [record_line(0, 1), record_line(1, 2)]
        path = self.write_corpus(tmp_path, lines, 2)
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    @pytest.mark.parametrize("field, value", [("label", True), ("label", False),
                                              ("label", 1.0), ("topic_id", True)])
    def test_non_integer_label_or_topic_names_line(self, tmp_path, field, value):
        lines = [record_line(0, 1), json.dumps(json.loads(record_line(1, 0)) | {field: value})]
        path = self.write_corpus(tmp_path, lines, 2)
        with pytest.raises(ManifestError, match=f"line 2: {field} {value!r} is not"):
            load_manifest(path)

    @pytest.mark.parametrize("line", ["5", "null", '"rec001"', "[1, 2]"])
    def test_line_that_is_not_an_object(self, tmp_path, line):
        lines = [record_line(0, 1), line, record_line(1, 5)]
        path = self.write_corpus(tmp_path, lines, 2)
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert err.value.violations == ["line 2: not a JSON object",
                                         "line 3: label 5 is not the integer 0 or 1"]

    def test_missing_file(self, tmp_path):
        lines = [record_line(0, 1), record_line(1, 0, path="nope.wav")]
        path = self.write_corpus(tmp_path, lines, 2)
        with pytest.raises(ManifestError, match="not readable"):
            load_manifest(path)

    def test_all_violations_collected(self, tmp_path):
        lines = [record_line(0, 1), record_line(0, 5, position="maybe")]
        path = self.write_corpus(tmp_path, lines, 1)
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert len(err.value.violations) >= 3  # dup id, bad label, bad position

    def test_save_load_roundtrip(self, tmp_path):
        lines = [record_line(i, i % 2) for i in range(4)]
        path = self.write_corpus(tmp_path, lines, 4)
        manifest = load_manifest(path)
        save_manifest(manifest, tmp_path / "copy.jsonl")
        again = load_manifest(tmp_path / "copy.jsonl")
        assert again.records == manifest.records
