import math

import numpy as np
import pytest

from convser.audio_io import AudioBuffer, load_manifest, load_wav, save_manifest
from convser.augmentation import (
    AugmentationPlan,
    add_noise,
    augment_dataset,
    pitch_shift,
    time_stretch,
)
from convser.exceptions import FormatError, ParameterError
from convser.synth_data import SynthSpec, generate_corpus

from conftest import dominant_frequency, make_tone


class TestTimeStretch:
    def test_identity_rate_is_exact_copy(self):
        tone = make_tone(440, duration_s=0.5)
        out = time_stretch(tone, 1.0)
        assert np.array_equal(out.samples, tone.samples)

    def test_half_rate_doubles_duration(self):
        tone = make_tone(200, duration_s=1.0)
        out = time_stretch(tone, 0.5)
        assert len(out.samples) == 2 * len(tone.samples)

    @pytest.mark.parametrize("rate", [0.8, 1.25, 2.0])
    def test_dominant_frequency_preserved(self, rate):
        tone = make_tone(440, duration_s=1.0)
        out = time_stretch(tone, rate)
        assert abs(len(out.samples) - round(len(tone.samples) / rate)) <= 1
        assert abs(dominant_frequency(out) - 440.0) <= 0.02 * 440.0

    def test_no_nan_and_bounded(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(rng.uniform(-1, 1, 20000), 44100)
        for rate in (0.5, 0.77, 1.5, 2.0):
            out = time_stretch(buf, rate)
            assert np.all(np.isfinite(out.samples))
            assert np.abs(out.samples).max() <= 4.0

    def test_rate_out_of_range(self):
        tone = make_tone(100, 0.1)
        for rate in (0.4, 2.5):
            with pytest.raises(ParameterError):
                time_stretch(tone, rate)


class TestPitchShift:
    def test_zero_semitones_is_exact_copy(self):
        tone = make_tone(440, duration_s=0.3)
        out = pitch_shift(tone, 0.0)
        assert np.array_equal(out.samples, tone.samples)

    def test_octave_up(self):
        tone = make_tone(440, duration_s=1.0)
        out = pitch_shift(tone, 12.0)
        assert len(out.samples) == len(tone.samples)
        assert abs(dominant_frequency(out) - 880.0) <= 0.03 * 880.0

    @pytest.mark.parametrize("semitones", [-7.0, -2.0, 2.0, 5.5])
    def test_frequency_ratio_and_length(self, semitones):
        tone = make_tone(500, duration_s=1.0)
        out = pitch_shift(tone, semitones)
        assert len(out.samples) == len(tone.samples)
        target = 500.0 * 2.0 ** (semitones / 12.0)
        assert abs(dominant_frequency(out) - target) <= 0.03 * target

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            pitch_shift(make_tone(100, 0.1), 12.5)


class TestAddNoise:
    def test_measured_snr(self):
        tone = make_tone(300, duration_s=1.0)
        for snr in (20.0, 10.0):
            out = add_noise(tone, snr, seed=5)
            noise = out.samples - tone.samples
            measured = 10.0 * np.log10(np.mean(tone.samples**2) / np.mean(noise**2))
            assert abs(measured - snr) <= 0.5

    def test_deterministic_given_seed(self):
        tone = make_tone(300, duration_s=0.2)
        a = add_noise(tone, 15.0, seed=9)
        b = add_noise(tone, 15.0, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = add_noise(tone, 15.0, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_infinite_snr_is_copy(self):
        tone = make_tone(300, duration_s=0.2)
        out = add_noise(tone, math.inf, seed=1)
        assert np.array_equal(out.samples, tone.samples)

    def test_zero_power_rejected(self):
        with pytest.raises(ParameterError, match="zero-power"):
            add_noise(AudioBuffer(np.zeros(100), 8000), 20.0, seed=0)


class TestAugmentDataset:
    def test_default_plan_is_eight_per_original(self):
        assert AugmentationPlan().size == 8

    def test_one_original_becomes_eight(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=1, duration_s=1.0, seed=3),
                                   tmp_path / "src")
        merged = augment_dataset(manifest, AugmentationPlan(rng_seed=3), tmp_path / "out")
        assert len(merged) == 8

    def test_paper_scale_expansion(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=38, duration_s=0.5, seed=4),
                                   tmp_path / "src")
        merged = augment_dataset(manifest, AugmentationPlan(rng_seed=4), tmp_path / "out")
        assert len(merged) == 304

    def test_labels_and_groups_propagated(self, tiny_augmented, tiny_corpus):
        originals = {rec.id: rec for rec in tiny_corpus.records}
        label_ratio = tiny_corpus.label_counts()
        merged_ratio = tiny_augmented.label_counts()
        assert merged_ratio[1] * label_ratio[0] == merged_ratio[0] * label_ratio[1]
        for rec in tiny_augmented.records:
            parent = originals[rec.group_id]
            assert rec.label == parent.label
            assert rec.group_id == parent.id

    def test_variant_naming_and_validity(self, tiny_augmented):
        save_manifest(tiny_augmented, tiny_augmented.root / "roundtrip.jsonl")
        loaded = load_manifest(tiny_augmented.root / "roundtrip.jsonl")
        assert len(loaded) == len(tiny_augmented)
        tags = {rec.id.split("__", 1)[1] for rec in loaded.records if "__" in rec.id}
        assert tags == {
            "stretch_0.9", "stretch_1.1", "pitch_-2", "pitch_+2",
            "noise_20db", "noise_10db", "combined",
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=2, duration_s=0.5, seed=6),
                                   tmp_path / "src")
        plan = AugmentationPlan(rng_seed=42)
        a = augment_dataset(manifest, plan, tmp_path / "a")
        b = augment_dataset(manifest, plan, tmp_path / "b")
        for rec_a, rec_b in zip(a.records, b.records):
            assert rec_a.id == rec_b.id
            assert (a.root / rec_a.path).read_bytes() == (b.root / rec_b.path).read_bytes()

    @pytest.mark.parametrize("corrupt", [0, 2])
    def test_partial_output_cleaned_on_failure(self, tmp_path, corrupt):
        manifest = generate_corpus(SynthSpec(n_originals=3, duration_s=0.5, seed=8),
                                   tmp_path / "src")
        # corrupt one source file after manifest validation; with the first
        # corrupt, the other records are written while or after it fails
        (tmp_path / "src" / manifest.records[corrupt].path).write_bytes(b"not a wav")
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}"
            with pytest.raises(FormatError, match="RIFF"):
                augment_dataset(manifest, AugmentationPlan(rng_seed=1), out, jobs=jobs)
            assert list(out.glob("*.wav")) == []

    def test_snr_of_written_variants(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=1, duration_s=1.0, seed=9),
                                   tmp_path / "src")
        merged = augment_dataset(manifest, AugmentationPlan(rng_seed=9), tmp_path / "out")
        original = load_wav(merged.root / "synth000.wav")
        for snr in (20.0, 10.0):
            variant = load_wav(merged.root / f"synth000__noise_{snr:g}db.wav")
            noise = variant.samples - original.samples
            measured = 10 * np.log10(np.mean(original.samples**2) / np.mean(noise**2))
            assert abs(measured - snr) <= 0.5
