import numpy as np
import pytest

from convser import dsp_features
from convser.audio_io import CANONICAL_RATE, AudioBuffer, resample_linear
from convser.dsp_features import (
    FRAME_LEN,
    HOP,
    LOG_FLOOR,
    N_MELS,
    FeatureConfig,
    FeatureStore,
    cached_features_fresh,
    dct_matrix,
    extract_features,
    extract_widths,
    fft_power_spectrum,
    frame_log_energy,
    frame_signal,
    hamming_window,
    hz_to_mel,
    load_features,
    log_mel_energies,
    mel_filterbank,
    normalize_centered,
    save_features,
)
from convser.exceptions import ParameterError

from conftest import make_tone


def naive_dft_power(frame):
    """O(n^2) DFT straight from the definition; the independent oracle."""
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    m = np.arange(n)[None, :]
    spectrum = np.exp(-2j * np.pi * k * m / n) @ frame
    return np.abs(spectrum) ** 2


class TestFrameSignal:
    def test_trailing_samples_dropped(self):
        buf = AudioBuffer(np.arange(10, dtype=float), 8000)
        frames = frame_signal(buf, 4, 4)
        assert frames.shape == (2, 4)
        assert np.array_equal(frames[0], [0, 1, 2, 3])
        assert np.array_equal(frames[1], [4, 5, 6, 7])

    def test_single_exact_frame(self):
        buf = AudioBuffer(np.zeros(8192), 44100)
        assert frame_signal(buf, 8192, 8192).shape == (1, 8192)

    def test_paper_scale_frame_count(self):
        # 144 s at 44100 Hz, non-overlapping 8192-sample frames
        n = 144 * 44100
        buf = AudioBuffer(np.zeros(n), 44100)
        frames = frame_signal(buf, 8192, 8192)
        assert frames.shape[0] == (n - 8192) // 8192 + 1 == 775

    def test_too_short(self):
        with pytest.raises(ParameterError, match="shorter"):
            frame_signal(AudioBuffer(np.zeros(100), 8000), 128, 64)


class TestHammingWindow:
    def test_known_values(self):
        w = hamming_window(5)
        assert np.allclose(w, [0.08, 0.54, 1.0, 0.54, 0.08], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 63, 512])
    def test_endpoints_and_symmetry(self, n):
        w = hamming_window(n)
        assert w[0] == pytest.approx(0.08, abs=1e-12)
        assert w[-1] == pytest.approx(0.08, abs=1e-12)
        assert np.allclose(w, w[::-1], atol=1e-12)

    def test_too_small(self):
        with pytest.raises(ParameterError):
            hamming_window(1)


class TestPowerSpectrum:
    def test_impulse_is_flat(self):
        assert np.allclose(fft_power_spectrum(np.array([1.0, 0, 0, 0])), [1, 1, 1])

    def test_constant_is_dc_only(self):
        assert np.allclose(fft_power_spectrum(np.ones(4)), [16, 0, 0])

    def test_against_naive_dft(self):
        rng = np.random.default_rng(11)
        frame = rng.standard_normal(1024)
        ours = fft_power_spectrum(frame)
        ref = naive_dft_power(frame)
        assert np.abs(ours - ref).max() / ref.max() <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(12)
        for n in (4, 64, 512):
            x = rng.standard_normal(n)
            power = fft_power_spectrum(x)
            # rebuild the two-sided power sum from the one-sided spectrum
            total = power[0] + power[-1] + 2 * power[1:-1].sum()
            assert total / n == pytest.approx(np.sum(x * x), rel=1e-9)

    def test_non_power_of_two(self):
        with pytest.raises(ParameterError):
            fft_power_spectrum(np.zeros(48))


class TestMelFilterbank:
    def test_mel_scale_values(self):
        assert hz_to_mel(0.0) == 0.0
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), abs=1e-9)

    def test_weights_in_unit_interval(self):
        fb = mel_filterbank(8192, 64)
        assert fb.shape == (64, 8192 // 2 + 1)
        assert fb.min() >= 0.0 and fb.max() == 1.0
        assert np.all(fb.max(axis=1) == 1.0)  # every filter peaks at 1

    def test_tone_at_center_maximizes_its_filter(self):
        fb = mel_filterbank(FRAME_LEN, N_MELS)
        for m in (5, 20, 50):
            center_bin = int(np.argmax(fb[m]))
            freq = center_bin * CANONICAL_RATE / FRAME_LEN
            t = np.arange(FRAME_LEN) / CANONICAL_RATE
            power = fft_power_spectrum(np.sin(2 * np.pi * freq * t))
            assert int(np.argmax(fb @ power)) == m

    def test_interior_bins_covered(self):
        fb = mel_filterbank(8192, 64)
        centers = np.argmax(fb, axis=1)
        interior = np.arange(centers[0], centers[-1] + 1)
        assert np.all(fb[:, interior].max(axis=0) > 0.0)

    def test_resolution_error(self):
        with pytest.raises(ParameterError, match="collapse"):
            mel_filterbank(512, 64)


class TestLogMelEnergies:
    def setup_method(self):
        self.fb = mel_filterbank(8192, 64)

    def test_zero_power_hits_floor(self):
        energies = log_mel_energies(np.zeros(self.fb.shape[1]), self.fb)
        assert np.allclose(energies, np.log(LOG_FLOOR))

    def test_power_scaling_shifts_by_log(self):
        rng = np.random.default_rng(5)
        power = rng.uniform(0.1, 1.0, self.fb.shape[1])
        base = log_mel_energies(power, self.fb)
        scaled = log_mel_energies(7.5 * power, self.fb)
        assert np.allclose(scaled - base, np.log(7.5), atol=1e-9)

    def test_monotone_in_power(self):
        rng = np.random.default_rng(6)
        power = rng.uniform(0.1, 1.0, self.fb.shape[1])
        base = log_mel_energies(power, self.fb)
        bumped = power.copy()
        bumped[100] += 5.0
        assert np.all(log_mel_energies(bumped, self.fb) >= base - 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            log_mel_energies(np.zeros(10), self.fb)


class TestDct:
    def test_constant_input(self):
        n = 16
        coeffs = np.full(n, 3.0) @ dct_matrix(n).T
        assert coeffs[0] == pytest.approx(3.0 * np.sqrt(n), abs=1e-12)
        assert np.abs(coeffs[1:]).max() <= 1e-12

    @pytest.mark.parametrize("n", [13, 40, 64])
    def test_orthonormality(self, n):
        d = dct_matrix(n)
        assert np.abs(d @ d.T - np.eye(n)).max() <= 1e-9

    def test_zero_input(self):
        assert np.all(np.zeros(8) @ dct_matrix(8)[:4].T == 0.0)


class TestFrameLogEnergy:
    def test_zero_frame(self):
        assert frame_log_energy(np.zeros(16)) == pytest.approx(np.log(LOG_FLOOR))

    def test_unit_impulse(self):
        frame = np.zeros(16)
        frame[3] = 1.0
        assert frame_log_energy(frame) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_adds_log4(self):
        rng = np.random.default_rng(9)
        frame = 100.0 * rng.standard_normal(64)  # loud enough that LOG_FLOOR is lost
        low = frame_log_energy(frame)
        high = frame_log_energy(2 * frame)
        assert high - low == pytest.approx(np.log(4.0), abs=1e-12)

    def test_empty(self):
        with pytest.raises(ParameterError):
            frame_log_energy(np.zeros(0))


class TestNormalize:
    def test_constant_matrix(self):
        assert np.all(normalize_centered(np.full((4, 3), 2.5)) == 0.0)

    def test_two_point(self):
        out = normalize_centered(np.array([[-1.0, 3.0]]))
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-15)

    def test_random_stats(self):
        rng = np.random.default_rng(4)
        out = normalize_centered(rng.standard_normal((20, 7)))
        assert abs(out.mean()) <= 1e-12
        assert np.abs(out).max() == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        once = normalize_centered(rng.standard_normal((10, 4)))
        twice = normalize_centered(once.copy())
        assert np.abs(twice - once).max() <= 1e-12

    def test_padding_rows_zeroed(self):
        matrix = np.ones((5, 2))
        matrix[:3] = [[1.0, 2.0]] * 3
        out = normalize_centered(matrix, n_valid=3)
        assert np.all(out[3:] == 0.0)


class TestExtractFeatures:
    def test_output_widths(self):
        tone = make_tone(700, duration_s=1.5)
        for width in (13, 40):
            config = FeatureConfig(n_mfcc=width, max_frames=8)
            fm = extract_features(tone, config)
            assert fm.values.shape == (8, width)
            assert fm.n_valid_frames == (len(tone.samples) - 8192) // 8192 + 1

    def test_width_selects_layout(self):
        """13 gives c1..c12 then the frame log energy; 40 gives c0..c39. The
        clip has 6 frames and max_frames is 4, so only the first 4 are kept
        and normalized."""
        tone = make_tone(880, duration_s=1.3)
        for width in (13, 40):
            config = FeatureConfig(n_mfcc=width, max_frames=4)
            frames = frame_signal(tone, FRAME_LEN, HOP)
            power = fft_power_spectrum(frames * hamming_window(FRAME_LEN))
            log_e = log_mel_energies(power, mel_filterbank(FRAME_LEN, N_MELS))
            dct = dct_matrix(N_MELS)
            if width == 13:
                # c1..c12 sliced from c0..c12: the product with rows 1..12
                # alone may round differently in the last bit
                raw = np.column_stack([(log_e @ dct[:13].T)[:, 1:13],
                                       frame_log_energy(frames)])
            else:
                raw = log_e @ dct[:40].T
            assert len(raw) == 6
            fm = extract_features(tone, config)
            assert fm.n_valid_frames == 4
            assert np.array_equal(fm.values, normalize_centered(raw[:4]))

    def test_silence_has_no_temporal_variation(self):
        silence = AudioBuffer(np.zeros(44100), 44100)
        for width in (13, 40):
            fm = extract_features(silence, FeatureConfig(n_mfcc=width, max_frames=8))
            valid = fm.values[: fm.n_valid_frames]
            # every frame of silence is identical; only padding rows differ
            assert np.all(valid == valid[0])
            assert np.abs(valid).max() <= 1.0
            assert np.all(fm.values[fm.n_valid_frames :] == 0.0)

    def test_values_bounded_and_padding_zero(self):
        tone = make_tone(1000, duration_s=1.2)
        fm = extract_features(tone, FeatureConfig(n_mfcc=40, max_frames=10))
        assert np.abs(fm.values).max() <= 1.0
        assert np.all(fm.values[fm.n_valid_frames :] == 0.0)

    def test_tone_lands_in_nearest_filter(self):
        fb = mel_filterbank(FRAME_LEN, N_MELS)
        centers = np.argmax(fb, axis=1) * CANONICAL_RATE / FRAME_LEN
        target = int(np.argmin(np.abs(centers - 1000.0)))
        tone = make_tone(centers[target], duration_s=1.2)
        frames = frame_signal(tone, FRAME_LEN, HOP)
        power = fft_power_spectrum(frames * hamming_window(FRAME_LEN))
        responses = power @ fb.T
        assert np.all(np.argmax(responses, axis=1) == target)

    def test_deterministic(self):
        tone = make_tone(333, duration_s=1.0)
        config = FeatureConfig(n_mfcc=13, max_frames=6)
        a = extract_features(tone, config)
        b = extract_features(tone, config)
        assert np.array_equal(a.values, b.values)

    def test_other_rate_is_resampled(self):
        tone = make_tone(100, 1.0, rate=16000)
        config = FeatureConfig()
        a = extract_features(tone, config)
        b = extract_features(resample_linear(tone, CANONICAL_RATE), config)
        assert a.n_valid_frames == b.n_valid_frames > 0
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        tone = make_tone(440, duration_s=0.5)
        tone.samples[-1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            extract_features(tone, FeatureConfig(n_mfcc=13, max_frames=3))

    def test_cached_constants_are_read_only(self):
        constants = dsp_features._dsp_constants()
        assert dsp_features._dsp_constants() is constants
        for array in constants:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("width", [13, 40])
    def test_matches_freshly_built_constants(self, width):
        """extract_features with cached constants equals, bit for bit, the
        same pipeline with the window, filterbank and DCT built afresh."""
        tone = make_tone(523, duration_s=1.4)
        config = FeatureConfig(n_mfcc=width, max_frames=8)
        frames = frame_signal(tone, FRAME_LEN, HOP)
        power = fft_power_spectrum(frames * hamming_window(FRAME_LEN))
        log_e = log_mel_energies(power, mel_filterbank(FRAME_LEN, N_MELS))
        if width == 40:
            raw = log_e @ dct_matrix(N_MELS)[:40].T
        else:
            cepstra = log_e @ dct_matrix(N_MELS)[:13].T
            raw = np.column_stack([cepstra[:, 1:13], frame_log_energy(frames)])
        expected = np.zeros((8, width))
        expected[: len(raw)] = normalize_centered(raw)
        for _ in range(2):  # the first call may build the constants, the second reuses them
            fm = extract_features(tone, config)
            assert fm.n_valid_frames == len(raw)
            assert np.array_equal(fm.values, expected)

    def test_widths_together_equal_each_width_alone(self):
        tone = make_tone(440, duration_s=1.4)
        together = extract_widths(tone, [40, 13], 5)
        for fm, width in zip(together, (40, 13)):
            alone = extract_features(tone, FeatureConfig(n_mfcc=width, max_frames=5))
            assert fm.n_valid_frames == alone.n_valid_frames == 5
            assert np.array_equal(fm.values, alone.values)

    def test_truncation_to_max_frames(self):
        tone = make_tone(500, duration_s=2.0)
        fm = extract_features(tone, FeatureConfig(n_mfcc=13, max_frames=3))
        assert fm.values.shape == (3, 13)
        assert fm.n_valid_frames == 3


class TestFeatureStore:
    def stored(self, tmp_path, config):
        """A saved store of three tones; one is cut at max_frames, two are padded."""
        store = FeatureStore(config)
        for sample_id, seconds in (("b", 1.0), ("a", 0.5), ("c", 2.0)):
            fm = extract_features(make_tone(440, duration_s=seconds), config)
            store.rows[sample_id] = fm.values[: fm.n_valid_frames]
            store.hashes[sample_id] = f"hash-{sample_id}"
        save_features(store, tmp_path)
        return store

    def test_roundtrip_is_bit_exact_with_padding(self, tmp_path):
        config = FeatureConfig(n_mfcc=13, max_frames=6)
        ids = ["a", "b", "c"]
        expected = {i: extract_features(make_tone(440, duration_s=s), config)
                    for i, s in zip(ids, (0.5, 1.0, 2.0))}
        self.stored(tmp_path, config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mfcc13.npz"]
        back = load_features(tmp_path, 13)
        assert back.config == config
        assert back.hashes == {i: f"hash-{i}" for i in ids}
        assert sorted(fm.n_valid_frames for fm in expected.values()) == [2, 5, 6]
        order = ["b", "c", "a"]  # rows come in the caller's order, not the stored one
        stacked = back.stack(order)
        assert stacked.shape == (3, 6, 13)
        for k, sample_id in enumerate(order):
            assert stacked.dtype == expected[sample_id].values.dtype
            assert np.array_equal(stacked[k], expected[sample_id].values)
            assert len(back.rows[sample_id]) == expected[sample_id].n_valid_frames

    def test_fresh_by_content_hash_and_by_config_hash(self, tmp_path):
        config = FeatureConfig(n_mfcc=13, max_frames=6)
        self.stored(tmp_path, config)
        # "c" belongs to another manifest: it is kept but not reported
        store, fresh = cached_features_fresh(
            tmp_path, config, {"a": "hash-a", "b": "changed", "d": "hash-d"})
        assert fresh == {"a"}
        assert sorted(store.rows) == ["a", "b", "c"]
        changed = FeatureConfig(n_mfcc=13, max_frames=7)
        store, fresh = cached_features_fresh(tmp_path, changed, {"a": "hash-a"})
        assert fresh == set() and store.rows == {} and store.config == changed
        store, fresh = cached_features_fresh(tmp_path / "none", config, {"a": "hash-a"})
        assert fresh == set() and store.rows == {}

    def test_missing_store_and_missing_id_name_the_extract_command(self, tmp_path):
        with pytest.raises(ParameterError, match="convser extract --mfcc 40"):
            load_features(tmp_path, 40)
        self.stored(tmp_path, FeatureConfig(n_mfcc=40, max_frames=6))
        with pytest.raises(ParameterError, match="'zz'.*convser extract --mfcc 40"):
            load_features(tmp_path, 40).stack(["a", "zz"])
