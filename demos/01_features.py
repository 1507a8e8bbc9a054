"""From waveform to MFCC matrix, one stage at a time.

Builds a short harmonic tone, then walks the extraction pipeline manually
(frames -> window -> power spectrum -> Mel energies -> DCT) and compares the
result with the one-call extract_features().
"""

import numpy as np

from convser.audio_io import AudioBuffer
from convser.dsp_features import (
    FeatureConfig,
    dct_matrix,
    extract_features,
    fft_power_spectrum,
    frame_log_energy,
    frame_signal,
    hamming_window,
    log_mel_energies,
    mel_filterbank,
    normalize_centered,
)

rate = 44100
t = np.arange(3 * rate) / rate
# a 160 Hz fundamental with a few tilted harmonics, like the synthetic corpus
wave = sum((0.5 ** k) * np.sin(2 * np.pi * 160 * (k + 1) * t) for k in range(6))
buffer = AudioBuffer(0.3 * wave / np.abs(wave).max(), rate)
print(f"signal: {buffer.duration:.1f} s at {buffer.sample_rate} Hz")

config = FeatureConfig(n_mfcc=13, max_frames=20)
frames = frame_signal(buffer, config.frame_len, config.hop)
print(f"frames: {frames.shape[0]} x {frames.shape[1]} "
      f"({config.frame_len / rate * 1000:.0f} ms each, non-overlapping)")

windowed = frames * hamming_window(config.frame_len)
power = fft_power_spectrum(windowed)
print(f"power spectrum: {power.shape[1]} bins up to {rate // 2} Hz")

fb = mel_filterbank(config)
energies = log_mel_energies(power, fb, config.log_floor)
print(f"mel energies: {energies.shape[1]} filters; "
      f"strongest filter per frame: {np.argmax(energies, axis=1)[:8]} ...")

cepstra = energies @ dct_matrix(config.n_mels)[:13].T
base = np.column_stack([cepstra[:, 1:13], frame_log_energy(frames, config.log_floor)])
manual = normalize_centered(base)

fm = extract_features(buffer, config)
print(f"extract_features: {fm.values.shape} with {fm.n_valid_frames} valid frames")
print(f"manual pipeline matches: {np.allclose(manual, fm.values[:fm.n_valid_frames])}")
print(f"value range: [{fm.values.min():.3f}, {fm.values.max():.3f}], "
      f"global mean {fm.values[:fm.n_valid_frames].mean():.2e}")
