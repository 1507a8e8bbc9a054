"""Speech-based conviction detection at desk scale.

A numpy-only pipeline: WAV ingest, MFCC feature extraction, audio
augmentation, a from-scratch CNN-LSTM binary classifier with exact-gradient
backpropagation, ADAM training with shuffle-based cross-validation, the
16-cell hyper-parameter grid, and metric/report tooling. A synthetic corpus
generator stands in for private recordings so every stage is testable.
"""

from .audio_io import (
    AudioBuffer,
    DatasetManifest,
    SampleRecord,
    load_manifest,
    load_wav,
    resample_linear,
    save_manifest,
    write_wav,
)
from .augmentation import AugmentationPlan, add_noise, augment_dataset, pitch_shift, time_stretch
from .dsp_features import FeatureConfig, FeatureMatrix, extract_features
from .exceptions import (
    ConvserError,
    FormatError,
    ManifestError,
    ParameterError,
    UnsupportedCodecError,
)
from .neural_net import (
    ModelConfig,
    ModelParams,
    init_params,
    load_model,
    model_backward,
    model_forward,
    model_score,
    save_model,
)
from .synth_data import SynthSpec, generate_corpus, measure_separability
from .train_eval import (
    ConfusionCounts,
    MetricsReport,
    RunReport,
    TrainConfig,
    adam_step,
    confusion,
    cross_validate,
    metrics,
    run_grid,
    split_dataset,
    train_model,
)

__version__ = "0.1.0"
