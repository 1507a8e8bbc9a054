from dataclasses import replace

import numpy as np

from convser.audio_io import DatasetManifest, load_manifest, load_wav
from convser.dsp_features import FeatureConfig
from convser.synth_data import SynthSpec, generate_corpus, measure_separability


class TestGenerateCorpus:
    def test_counts_and_balance(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=10, duration_s=0.5, seed=1), tmp_path)
        assert len(manifest) == 10
        assert manifest.label_counts() == {0: 5, 1: 5}
        assert len(list(tmp_path.glob("*.wav"))) == 10
        assert (tmp_path / "manifest.jsonl").is_file()
        assert (tmp_path / "synth_spec.json").is_file()

    def test_odd_count_balance_within_one(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=7, duration_s=0.3, seed=1), tmp_path)
        counts = manifest.label_counts()
        assert abs(counts[0] - counts[1]) <= 1

    def test_manifest_passes_validation(self, tmp_path):
        generate_corpus(SynthSpec(n_originals=6, duration_s=0.3, seed=2), tmp_path)
        manifest = load_manifest(tmp_path / "manifest.jsonl")
        assert len(manifest) == 6
        speakers = {rec.speaker_id for rec in manifest.records}
        assert len(speakers) == 6
        assert {rec.topic_id for rec in manifest.records} == {1, 2, 3, 4}
        assert all(rec.group_id == rec.id for rec in manifest.records)

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(n_originals=4, duration_s=0.4, seed=9)
        a = generate_corpus(spec, tmp_path / "a")
        generate_corpus(spec, tmp_path / "b")
        for rec in a.records:
            assert (tmp_path / "a" / rec.path).read_bytes() == (
                tmp_path / "b" / rec.path
            ).read_bytes()
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
            tmp_path / "b" / "manifest.jsonl"
        ).read_bytes()

    def test_no_clipping_at_default_amplitude(self, tmp_path):
        manifest = generate_corpus(SynthSpec(n_originals=4, duration_s=0.4, seed=3), tmp_path)
        for rec in manifest.records:
            buf = load_wav(manifest.resolve(rec))
            assert np.abs(buf.samples).max() < 1.0


class TestSeparability:
    def config(self):
        return FeatureConfig(n_mfcc=13, max_frames=11)

    def test_separable_default_signatures(self, tmp_path):
        spec = SynthSpec(n_originals=16, duration_s=2.0, seed=5)
        manifest = generate_corpus(spec, tmp_path)
        assert measure_separability(manifest, self.config()) >= 0.8

    def test_null_corpus_near_chance(self, tmp_path):
        spec = SynthSpec(n_originals=16, duration_s=2.0, seed=6, null=True)
        manifest = generate_corpus(spec, tmp_path)
        score = measure_separability(manifest, self.config())
        assert 0.3 <= score <= 0.7

    def test_constant_corpus_exactly_half(self, tmp_path):
        """One WAV under eight ids with alternating labels: no threshold
        beats constant prediction, so every held-out record scores 0.5."""
        (rec,) = generate_corpus(SynthSpec(n_originals=1, duration_s=1.0, seed=7),
                                 tmp_path).records
        manifest = DatasetManifest(
            records=[replace(rec, id=f"copy{k}", label=k % 2) for k in range(8)], root=tmp_path)
        assert measure_separability(manifest, self.config()) == 0.5

    def test_null_gives_class_1_the_signature_of_class_0(self, tmp_path):
        """Each file draws its jitter from its own seed, so a null corpus
        differs from the separable one in its class-1 files only."""
        for null in (False, True):
            generate_corpus(SynthSpec(n_originals=4, duration_s=0.3, seed=6, null=null),
                            tmp_path / str(null))
        for k in range(4):
            name = f"synth{k:03d}.wav"
            signal, null = ((tmp_path / tree / name).read_bytes() for tree in ("False", "True"))
            assert (signal == null) == (k % 2 == 0)
