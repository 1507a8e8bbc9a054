import struct

import numpy as np
import pytest

from convser.audio_io import AudioBuffer


def make_tone(freq_hz, duration_s=1.0, rate=44100, amplitude=0.5):
    t = np.arange(int(round(duration_s * rate))) / rate
    return AudioBuffer(amplitude * np.sin(2.0 * np.pi * freq_hz * t), rate)


def wav_bytes(fmt_tag, channels, rate, bits, payload):
    block_align = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, channels, rate, rate * block_align, block_align, bits
    )
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


def dominant_frequency(buffer):
    """Frequency of the strongest FFT bin (DC removed)."""
    x = buffer.samples - buffer.samples.mean()
    power = np.abs(np.fft.rfft(x)) ** 2
    return int(np.argmax(power)) * buffer.sample_rate / len(x)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Six 1-second synthetic originals plus manifest, shared across tests."""
    from convser.synth_data import SynthSpec, generate_corpus

    out = tmp_path_factory.mktemp("tiny_corpus")
    manifest = generate_corpus(SynthSpec(n_originals=6, duration_s=1.0, seed=7), out)
    return manifest


@pytest.fixture(scope="session")
def tiny_augmented(tiny_corpus, tmp_path_factory):
    from convser.augmentation import AugmentationPlan, augment_dataset
    from convser.audio_io import save_manifest

    out = tmp_path_factory.mktemp("tiny_augmented")
    merged = augment_dataset(tiny_corpus, AugmentationPlan(rng_seed=7), out)
    save_manifest(merged, out / "manifest.jsonl")
    return merged
