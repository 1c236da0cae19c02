"""Unfused Tensor ops that only the node-graph oracles in test_neural use.

The fused LSTM cell, char-CNN and output-layer cross-entropy in
`defmod.neural` must match a graph built from these one-op nodes bit for
bit. The package itself never builds such a graph, so the ops live here
rather than in `defmod.neural`.
"""

import numpy as np

from defmod.errors import ShapeError
from defmod.neural import Tensor, stable_sigmoid


def getitem(x: Tensor, key) -> Tensor:
    """Basic indexing only (ints and slices); use `gather` for id arrays."""
    parts = key if isinstance(key, tuple) else (key,)
    if any(not isinstance(part, (int, np.integer, slice)) for part in parts):
        raise TypeError("Tensor indexing supports ints and slices; use gather for arrays")
    out = Tensor(x.data[key], parents=(x,))

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[key] += g

    out._backward = backward
    return out


def reshape(x: Tensor, *shape) -> Tensor:
    out = Tensor(x.data.reshape(*shape), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    out._backward = backward
    return out


def tensor_max(x: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; ties route the gradient to the first maximum."""
    idx = np.argmax(x.data, axis=axis)
    out = Tensor(np.take_along_axis(x.data, np.expand_dims(idx, axis), axis).squeeze(axis),
                 parents=(x,))

    def backward(g):
        if x.requires_grad:
            scatter = np.zeros_like(x.data)
            np.put_along_axis(scatter, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
            x._accumulate(scatter)

    out._backward = backward
    return out


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out.data * out.data))

    out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(stable_sigmoid(x.data), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out.data * (1.0 - out.data))

    out._backward = backward
    return out


def ref_softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of the target class, shape (N,).

    Fused for numerical stability: loss_i = logsumexp(l_i) - l_i[target_i].
    The softmax itself is formed only by the backward, so a forward whose
    loss is never differentiated (a dev-NLL pass) never builds it.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"expected (N,V) logits and (N,) targets, got {logits.shape} and {targets.shape}")
    rows = np.arange(logits.shape[0])
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    picked = shift[rows, targets]
    exp = np.exp(shift, out=shift)
    sums = exp.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) - picked
    out = Tensor(losses, parents=(logits,))

    def backward(g):
        if logits.requires_grad:
            dlogits = exp / sums
            dlogits[rows, targets] -= 1.0
            dlogits *= g[:, None]
            logits._accumulate(dlogits)

    out._backward = backward
    return out
