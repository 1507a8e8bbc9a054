"""A miniature end-to-end experiment.

Synthesizes a small separable corpus, augments it, extracts both MFCC widths,
cross-validates one model per width, and renders a two-row result table. Uses
short clips and few epochs so it finishes in about a minute; scale n/duration
/epochs up for the real desk-scale run.
"""

import tempfile
from pathlib import Path

import numpy as np

from convser.audio_io import load_wav
from convser.augmentation import AugmentationPlan, augment_dataset
from convser.dsp_features import FeatureConfig, extract_features
from convser.neural_net import ModelConfig
from convser.report import render_text_table, result_row
from convser.synth_data import SynthSpec, generate_corpus, measure_separability
from convser.train_eval import TrainConfig, cross_validate

workdir = Path(tempfile.mkdtemp(prefix="convser_demo_"))
print(f"working in {workdir}")

manifest = generate_corpus(SynthSpec(n_originals=10, duration_s=2.0, seed=42), workdir / "src")
merged = augment_dataset(manifest, AugmentationPlan(rng_seed=42), workdir / "aug")
print(f"corpus: {len(manifest)} originals -> {len(merged)} records")

floor = measure_separability(manifest, FeatureConfig(n_mfcc=13, max_frames=11))
print(f"threshold-classifier floor on originals: {floor:.2f} (the model should beat this)")

rows = []
for width in (13, 40):
    config = FeatureConfig(n_mfcc=width, max_frames=11)
    features = np.stack([extract_features(load_wav(merged.resolve(rec)), config).values
                         for rec in merged.records])
    model_config = ModelConfig(filters=16, kernel_size=5, lstm_units=20,
                               n_mfcc=width, max_frames=11)
    train_config = TrainConfig(epochs=40, seed=42, split_mode="paper")
    report = cross_validate(model_config, train_config, features, merged)
    rows.append(result_row(report))
    print(f"M1-{width}: averaged validation accuracy "
          f"{report.averaged.accuracy:.3f} over {len(report.fold_seeds)} shuffles")

print()
print(render_text_table(rows))
