"""Minimal neural-network layer library on numpy.

The reproduction cannot ship PyTorch/transformers, so every trainable model
(MiniBERT and the matching classifier) is built on this hand-rolled
substrate.  Design decisions:

* **Explicit forward/backward.** No autograd tape; each layer caches what its
  backward pass needs.  A layer instance therefore supports exactly one
  in-flight *training* forward at a time.  Inside :func:`inference_scope`
  no forward writes a cache, so any number of threads may run inference
  forwards on one shared model while a training forward awaits backward.
* **float32 throughout** for speed and memory.
* **Named parameters.** ``Module.parameters()`` returns an ordered
  ``{name: Parameter}`` dict, which the optimisers and the npz serialiser
  consume.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

DTYPE = np.float32


class _InferenceFlag(threading.local):
    active = False


_INFERENCE = _InferenceFlag()


@contextmanager
def inference_scope() -> Iterator[None]:
    """Run this thread's forwards without writing any backward cache.

    Every forward in the library reads only parameters inside the scope,
    which makes it reentrant: threads can share one live model with no
    replicas, and a scoring call cannot clobber the caches a pending
    training forward left for its backward.  Dropout is the identity
    inside the scope whatever ``Module.training`` says, so a forward in the
    scope draws no mask and leaves the dropout generators untouched: a
    scoring call made while an update trains returns the eval-mode scores
    and does not change the update's later steps.  The scope belongs to
    the calling thread and nests.
    """
    previous = _INFERENCE.active
    _INFERENCE.active = True
    try:
        yield
    finally:
        _INFERENCE.active = previous


def inference_active() -> bool:
    """True inside :func:`inference_scope` on the calling thread."""
    return _INFERENCE.active


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray) -> None:
        self.value = np.asarray(value, dtype=DTYPE)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def _require_forward(cache: object, layer: str) -> None:
    """Fail loudly (even under ``python -O``) when backward precedes forward."""
    if cache is None:
        raise RuntimeError(f"{layer}: backward before forward")


class Module:
    """Base class: parameter registry plus train/eval mode flag."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._children: dict[str, "Module"] = {}
        self.training = True

    def register(self, name: str, value: np.ndarray) -> Parameter:
        parameter = Parameter(value)
        self._parameters[name] = parameter
        return parameter

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def parameters(self, prefix: str = "") -> dict[str, Parameter]:
        """All parameters of this module and its children, name-qualified."""
        result: dict[str, Parameter] = {}
        for name, parameter in self._parameters.items():
            result[f"{prefix}{name}"] = parameter
        for child_name, child in self._children.items():
            result.update(child.parameters(prefix=f"{prefix}{child_name}."))
        return result

    def zero_grad(self) -> None:
        for parameter in self.parameters().values():
            parameter.zero_grad()

    def train(self) -> None:
        self.training = True
        for child in self._children.values():
            child.train()

    def eval(self) -> None:
        self.training = False
        for child in self._children.values():
            child.eval()

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters().values())


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(DTYPE)


def normal_init(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """BERT-style truncated-ish normal initialisation (plain normal here)."""
    return (rng.standard_normal(shape) * std).astype(DTYPE)


class Linear(Module):
    """Affine layer ``y = x @ W + b`` for inputs of shape (..., fan_in).

    ``weight`` overrides the Xavier initialisation with a caller-built
    matrix -- the fused-QKV attention packs three per-block Xavier draws
    into one so fusing changes the GEMM layout, not the initial weights.
    """

    def __init__(
        self,
        fan_in: int,
        fan_out: int,
        rng: np.random.Generator | None = None,
        weight: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.fan_in = fan_in
        self.fan_out = fan_out
        if weight is None:
            if rng is None:
                raise ValueError("Linear needs an rng when no initial weight is given")
            weight = xavier_uniform(rng, fan_in, fan_out)
        elif weight.shape != (fan_in, fan_out):
            raise ValueError(
                f"initial weight shape {weight.shape} != ({fan_in}, {fan_out})"
            )
        self.weight = self.register("weight", weight)
        self.bias = self.register("bias", np.zeros(fan_out, dtype=DTYPE))
        self._input: np.ndarray | None = None
        #: Reusable workspace for the weight-gradient GEMM, so every training
        #: step after the first is allocation-free on the (fan_in, fan_out)
        #: product (the bulk of backward's memory traffic).
        self._grad_weight_buffer: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not _INFERENCE.active:
            self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        _require_forward(self._input, "Linear")
        x = self._input
        flat_x = x.reshape(-1, self.fan_in)
        flat_grad = grad_output.reshape(-1, self.fan_out)
        if flat_x.dtype == flat_grad.dtype == self.weight.grad.dtype:
            if self._grad_weight_buffer is None:
                self._grad_weight_buffer = np.empty_like(self.weight.grad)
            np.matmul(flat_x.T, flat_grad, out=self._grad_weight_buffer)
            self.weight.grad += self._grad_weight_buffer
        else:  # mixed-dtype caller: np.matmul(out=) would reject the cast
            self.weight.grad += flat_x.T @ flat_grad
        self.bias.grad += flat_grad.sum(axis=0)
        grad_input = grad_output @ self.weight.value.T
        self._input = None
        return grad_input


class Embedding(Module):
    """Lookup table; rows indexed by integer ids of any shape."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.table = self.register("table", normal_init(rng, (num_embeddings, dim)))
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if not _INFERENCE.active:
            self._ids = ids
        return self.table.value[ids]

    def backward(self, grad_output: np.ndarray) -> None:
        _require_forward(self._ids, "Embedding")
        flat_ids = self._ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, self.dim)
        np.add.at(self.table.grad, flat_ids, flat_grad)
        self._ids = None


class LayerNorm(Module):
    """Layer normalisation over the last axis.

    Every row reduction is a GEMV on the ``(rows, dim)`` view: the mean and
    variance against a ``1/dim`` column, and in backward the ``gamma``/
    ``beta`` gradients as ``(1 x rows) @ (rows x dim)`` products.  NumPy's
    own reductions along a last axis of 64 cost ten times the GEMV.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = self.register("gamma", np.ones(dim, dtype=DTYPE))
        self.beta = self.register("beta", np.zeros(dim, dtype=DTYPE))
        self._mean_column = np.full(dim, 1.0 / dim, dtype=DTYPE)
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows = x.reshape(-1, self.dim)
        # Centred once; the variance is the mean square of the same array.
        normalised = rows - (rows @ self._mean_column)[:, None]
        inv_std = (1.0 / np.sqrt(np.square(normalised) @ self._mean_column + self.eps))[:, None]
        normalised *= inv_std
        if _INFERENCE.active:
            output = normalised  # uncached: scale and shift in place
            output *= self.gamma.value
        else:
            self._cache = (normalised, inv_std)
            output = normalised * self.gamma.value
        output += self.beta.value
        return output.reshape(x.shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        _require_forward(self._cache, "LayerNorm")
        normalised, inv_std = self._cache
        grad = grad_output.reshape(-1, self.dim)
        row_ones = np.ones(len(grad), dtype=grad.dtype)
        product = grad * normalised
        self.gamma.grad += row_ones @ product
        self.beta.grad += row_ones @ grad
        # d/dx of (x - mean) * inv_std, standard layer-norm backward:
        grad_norm = grad * self.gamma.value
        product *= self.gamma.value  # grad_norm * normalised
        grad_norm -= (grad_norm @ self._mean_column)[:, None]
        grad_norm -= normalised * (product @ self._mean_column)[:, None]
        grad_norm *= inv_std
        self._cache = None
        return grad_norm.reshape(grad_output.shape)


class Dropout(Module):
    """Inverted dropout; identity in eval mode, with rate 0, or inside
    :func:`inference_scope`."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if _INFERENCE.active:
            return x
        mask = None
        if self.training and self.rate != 0.0:
            keep = 1.0 - self.rate
            mask = (self.rng.random(x.shape) < keep).astype(DTYPE) / keep
        self._mask = mask
        return x if mask is None else x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        grad_input = grad_output * self._mask
        self._mask = None
        return grad_input
