"""Minimal differentiable substrate: tensors, layers, Adam, gradient checks."""

from .tensor import Tensor, concat, gather, softmax, softmax_cross_entropy, stable_sigmoid
from .layers import (
    CHAR_EMBEDDING_DIM,
    CHAR_FEATURE_DIM,
    CNN_KERNELS,
    char_cnn_forward,
    clip_global_norm,
    lstm_cell,
    lstm_step,
    uniform_init,
)
from .optim import AdamState, adam_step, init_adam
from .gradcheck import grad_check

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
    "gather",
    "grad_check",
    "init_adam",
    "lstm_cell",
    "lstm_step",
    "softmax",
    "softmax_cross_entropy",
    "stable_sigmoid",
    "uniform_init",
]
