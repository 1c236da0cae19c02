"""Minimal differentiable substrate: tensors, layers, Adam."""

from .tensor import Tensor, concat, gather, softmax, softmax_cross_entropy, stable_sigmoid
from .layers import (
    CHAR_EMBEDDING_DIM,
    CHAR_FEATURE_DIM,
    CNN_KERNELS,
    char_cnn_forward,
    clip_global_norm,
    lstm_cell,
    lstm_layer,
    uniform_init,
)
from .optim import AdamState, adam_step, flat_buffer, flat_views, init_adam

__all__ = [
    "AdamState",
    "CHAR_EMBEDDING_DIM",
    "CHAR_FEATURE_DIM",
    "CNN_KERNELS",
    "Tensor",
    "adam_step",
    "char_cnn_forward",
    "clip_global_norm",
    "concat",
    "flat_buffer",
    "flat_views",
    "gather",
    "init_adam",
    "lstm_cell",
    "lstm_layer",
    "softmax",
    "softmax_cross_entropy",
    "stable_sigmoid",
    "uniform_init",
]
