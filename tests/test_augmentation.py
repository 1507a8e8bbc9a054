import math
import re
from dataclasses import replace

import numpy as np
import pytest

from convser.audio_io import AudioBuffer, load_manifest, load_wav, save_manifest
from convser.augmentation import (
    OLA_GRAIN,
    OLA_HOP,
    OLA_TEMPLATE,
    OLA_TOLERANCE,
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


def single_stage_time_stretch(x, rate):
    """time_stretch's samples with the lag search as one float64 np.correlate
    over all lags, the search the screened one must reproduce."""
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
        in_pos = nominal
        if index > 0:
            natural = min(prev_in + hop, n_in - template)
            target = x[natural : natural + template]
            lo = max(nominal - OLA_TOLERANCE, 0)
            hi = min(nominal + OLA_TOLERANCE, n_in - grain)
            if hi > lo and np.any(target):
                region = x[lo : hi + template]
                in_pos = lo + int(np.argmax(np.correlate(region, target, mode="valid")))
        prev_in = in_pos
        take = min(grain, n_out - out_pos)
        out[out_pos : out_pos + take] += x[in_pos : in_pos + take] * window[:take]
        weight[out_pos : out_pos + take] += window[:take]
    out /= np.maximum(weight, 1e-8)
    return out


# every stretch rate the default plan runs (pitch_shift's are 2**(-+2/12)), and the bounds
SEARCH_RATES = [0.9, 1.1, 2.0 ** (2 / 12), 2.0 ** (-2 / 12), 1.05, 0.5, 2.0]


def search_inputs():
    n = np.arange(44100)
    sine = np.sin(2 * np.pi * 441 * n / 44100)
    rng = np.random.default_rng(3)
    gaps = np.where((n // 4000) % 2 == 0, np.sin(n * 0.03), 0.0)
    return {
        "sine_integer_period": sine,
        # periods 100 samples apart tie to about 1e-7 in float64, below float32's resolution
        "sine_integer_period_near_ties": sine + 1e-7 * rng.standard_normal(44100),
        "sine_non_integer_period": np.sin(2 * np.pi * n / 98.7),
        "white_noise": rng.standard_normal(44100),
        "silence": np.zeros(44100),
        "silent_stretches": gaps,
        "scaled_1e-300": 1e-300 * gaps,
        "scaled_1e300": 1e300 * gaps,
        "subnormal": 5e-324 * np.round(1000 * sine),
        "subnormal_among_normal": np.where(n % 3 == 0, 1e-310, 0.1 * sine),
        "shorter_than_a_grain": rng.standard_normal(OLA_GRAIN - 500),
        "shorter_than_a_template": np.sin(np.arange(300) * 0.2),
    }


class TestExactSearch:
    @pytest.mark.parametrize("rate", SEARCH_RATES)
    @pytest.mark.parametrize("name", sorted(search_inputs()))
    def test_equals_the_single_stage_search(self, name, rate):
        x = search_inputs()[name]
        out = time_stretch(AudioBuffer(x, 44100), rate).samples
        assert out.tobytes() == single_stage_time_stretch(x, rate).tobytes()

    @pytest.mark.parametrize("rate", SEARCH_RATES)
    def test_synth_corpus_equals_the_single_stage_search(self, tiny_corpus, rate):
        for rec in tiny_corpus.records:
            buffer = load_wav(tiny_corpus.resolve(rec))
            assert (time_stretch(buffer, rate).samples.tobytes()
                    == single_stage_time_stretch(buffer.samples, rate).tobytes()), rec.id


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
AUGMENTATIONS = {
    "time_stretch": lambda buffer: time_stretch(buffer, 0.9),
    "time_stretch_1.0": lambda buffer: time_stretch(buffer, 1.0),
    "pitch_shift": lambda buffer: pitch_shift(buffer, 2.0),
    "pitch_shift_0": lambda buffer: pitch_shift(buffer, 0.0),
    "add_noise": lambda buffer: add_noise(buffer, 10.0, seed=0),
    "add_noise_inf": lambda buffer: add_noise(buffer, math.inf, seed=0),
}


@pytest.mark.parametrize("value", sorted(NON_FINITE))
@pytest.mark.parametrize("augmentation", sorted(AUGMENTATIONS))
def test_non_finite_samples_rejected(augmentation, value):
    tone = make_tone(440, duration_s=1.0)
    tone.samples[1000] = NON_FINITE[value]
    with pytest.raises(ParameterError,
                       match=re.escape("buffer holds non-finite (NaN or infinite) samples")):
        AUGMENTATIONS[augmentation](tone)


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

    @pytest.mark.parametrize("overrides, tag", [
        ({"time_stretch_rates": (0.9, 0.9000001)}, "stretch_0.9"),
        ({"pitch_shift_semitones": (2, 2.0)}, "pitch_+2"),
        ({"noise_snrs_db": (20.0, 10.0, 20.0)}, "noise_20db"),
    ])
    def test_colliding_variant_tags_rejected(self, overrides, tag):
        with pytest.raises(ParameterError, match=re.escape(f"share the tag '{tag}'")):
            AugmentationPlan(**overrides)

    @pytest.mark.parametrize("overrides, field", [
        ({"time_stretch_rates": (0.9, 2.01)}, "time_stretch_rates"),
        ({"time_stretch_rates": (math.nan,)}, "time_stretch_rates"),
        ({"combined_stretch_rate": 0.49}, "combined_stretch_rate"),
        ({"pitch_shift_semitones": (-12.5,)}, "pitch_shift_semitones"),
        ({"pitch_shift_semitones": (math.nan,)}, "pitch_shift_semitones"),
        ({"noise_snrs_db": (math.nan,)}, "noise_snrs_db"),
        ({"noise_snrs_db": (10.0, -math.inf)}, "noise_snrs_db"),
        ({"combined_snr_db": math.nan}, "combined_snr_db"),
    ])
    def test_values_the_augmentations_reject_are_rejected_by_the_plan(self, overrides, field):
        with pytest.raises(ParameterError, match=f"^{field}: "):
            AugmentationPlan(**overrides)

    def test_plan_bounds_are_those_of_the_augmentations(self):
        """The range ends are accepted by both, and +inf is the no-noise sentinel."""
        AugmentationPlan(time_stretch_rates=(0.5, 2.0), pitch_shift_semitones=(-12, 12),
                         noise_snrs_db=(math.inf, -40.0), combined_stretch_rate=2.0,
                         combined_snr_db=math.inf)
        tone = make_tone(200, duration_s=0.2)
        for rate in (0.5, 2.0):
            time_stretch(tone, rate)
        for semitones in (-12, 12):
            pitch_shift(tone, semitones)
        add_noise(tone, -40.0, seed=1)

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

    def test_original_id_equal_to_a_variant_id_rejected(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=2, duration_s=0.5, seed=8),
                                   tmp_path / "src")
        manifest.records[1] = replace(manifest.records[1], id="synth000__combined")
        with pytest.raises(ParameterError, match=re.escape(
                "two records of the augmented corpus have the id 'synth000__combined'")):
            augment_dataset(manifest, AugmentationPlan(rng_seed=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_id_with_a_path_rejected(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=2, duration_s=0.5, seed=8),
                                   tmp_path / "src")
        manifest.records[1] = replace(manifest.records[1], id="../escaped")
        out = tmp_path / "a" / "out"
        with pytest.raises(ParameterError, match=re.escape(
                "id '../escaped' is not a plain file name")):
            augment_dataset(manifest, AugmentationPlan(rng_seed=1), out)
        assert not (tmp_path / "a").exists()

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
