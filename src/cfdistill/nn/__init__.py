"""Minimal differentiable-network core: layers, losses, Adam, presets."""

from .adam import AdamState, adam_step
from .layers import (
    BatchNorm,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    Layer,
    MaxPool,
    ReLU,
    SEBlock,
    sigmoid,
)
from .losses import (
    cosine_proximity_loss,
    mse_loss,
    softmax_cross_entropy,
    softmax_probabilities,
)
from .network import (
    LayerSpec,
    NetworkModel,
    PRESETS,
    build_network,
    build_preset,
    cf_estimator_desk,
    cf_estimator_table1,
    double_conv,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "AdamState",
    "adam_step",
    "BatchNorm",
    "Conv2d",
    "FullyConnected",
    "GlobalAvgPool",
    "Layer",
    "MaxPool",
    "ReLU",
    "SEBlock",
    "sigmoid",
    "cosine_proximity_loss",
    "mse_loss",
    "softmax_cross_entropy",
    "softmax_probabilities",
    "LayerSpec",
    "NetworkModel",
    "PRESETS",
    "build_network",
    "build_preset",
    "cf_estimator_desk",
    "cf_estimator_table1",
    "double_conv",
    "load_checkpoint",
    "save_checkpoint",
]
