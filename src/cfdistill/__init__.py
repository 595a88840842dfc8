"""cfdistill: song embeddings from listening logs, an audio-to-embedding
estimator network, and knowledge-transfer regimes for task models."""

from .als import (
    AlsConfig,
    CfEmbedding,
    UserItemMatrix,
    als_fit,
    als_solve_side,
    build_interaction_matrix,
    item_vector,
    load_embedding,
    parse_log_file,
    save_embedding,
    weighted_loss,
)
from .evaluation import (
    accuracy,
    paired_improvement_test,
    r_squared,
    stratified_kfold,
    stratified_split,
)
from .features import (
    FeatureConfig,
    MelSpectrogram,
    Waveform,
    mel_filterbank,
    melspectrogram,
    stft_power,
)
from .transfer import (
    ExperimentResult,
    RegimeConfig,
    TaskData,
    TaskSpec,
    TrainConfig,
    distillation_loss,
    train_cf_estimator,
    train_task,
)
from .world import World, WorldConfig, generate_world

__version__ = "0.1.0"
