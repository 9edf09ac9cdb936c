"""Numpy neural-network substrate: layers, activations, losses, optimisers."""

from .layers import (
    DTYPE,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    inference_active,
    inference_scope,
    normal_init,
    weight_sharing_copy,
    xavier_uniform,
)
from .activations import (
    gelu,
    gelu_backward,
    log_softmax,
    relu,
    relu_backward,
    sigmoid,
    softmax,
    softmax_backward,
    tanh,
    tanh_backward,
)
from .losses import binary_cross_entropy_with_logits, softmax_cross_entropy
from .optim import SGD, Adam, Optimizer, clip_gradients
from .serialize import load_module, load_state_dict, save_module, state_dict
from .stats import TrainStats

__all__ = [
    "Adam",
    "DTYPE",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "SGD",
    "binary_cross_entropy_with_logits",
    "clip_gradients",
    "gelu",
    "gelu_backward",
    "inference_active",
    "inference_scope",
    "load_module",
    "load_state_dict",
    "log_softmax",
    "normal_init",
    "relu",
    "relu_backward",
    "save_module",
    "sigmoid",
    "softmax",
    "softmax_backward",
    "softmax_cross_entropy",
    "state_dict",
    "TrainStats",
    "tanh",
    "tanh_backward",
    "weight_sharing_copy",
    "xavier_uniform",
]
