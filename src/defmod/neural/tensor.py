"""Parameters, the scalar loss node, and the fused output layer.

A `Tensor` is a float64 array with a gradient slot. The package uses it
for the model's parameters and for `defgen.batch_nll`'s loss: one node
whose parents are the parameters and whose backward, straight-line numpy,
gives each parameter its one gradient per step. The graph ops `+`, `*` and
`sum` remain for the tests' oracle graphs; the package builds none.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigError, NonFiniteError, ShapeError


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteError("tensor data must be finite")
    return arr


# Kept for `+` and `*`, which the tests' oracle graphs build.
def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add_at_rows(out: np.ndarray, ids: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(out, ids, values)` along the leading axis: the same
    additions in the same order. A C-contiguous `out` takes numpy's much
    faster path for one-dimensional arrays, entry by entry."""
    if not out.flags.c_contiguous or not out.size:
        np.add.at(out, ids, values)
        return
    width = out.size // len(out)
    entries = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), entries, values.reshape(-1))


class RowGrad:
    """A gradient that is zero outside a few rows of its parameter.

    `rows` holds the distinct row ids in ascending order and `values` their
    gradients, summed over repeated ids. The sums are taken into zeros, in
    the order of `ids`, as the dense scatter-add into a zero-filled gradient
    takes them, so zeros with `values` written into `rows` are that array
    bit for bit.
    """

    __slots__ = ("rows", "values")

    def __init__(self, ids, grads: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        grads = np.asarray(grads, dtype=np.float64)
        self.rows, inverse = np.unique(ids.reshape(-1), return_inverse=True)
        self.values = np.zeros((len(self.rows), *grads.shape[ids.ndim:]))
        add_at_rows(self.values, inverse, grads)


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "grad_view", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        # What backward left here: a dense array, a RowGrad (the two
        # embedding tables), or None.
        self.grad: np.ndarray | RowGrad | None = None
        # Where a dense gradient is formed, when not None: this tensor's view
        # of an optimizer's gradient buffer (`init_adam`).
        self.grad_view: np.ndarray | None = None
        self._parents = tuple(parents)
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # Kept for the oracle graphs; a copy, since one array may reach two parents.
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.requires_grad and self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        elif self.requires_grad:
            self.grad += grad

    # Kept: perfbench's tracer times it as `neural.backward`; it replays the oracles.
    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph."""
        if self.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Kept for the oracle graphs and perfbench's self-test, `(x * x + x).sum()`.
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward
        return out

    # Kept for the oracle graphs and perfbench's self-test.
    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(g):
            self._accumulate(_unbroadcast(g * other.data, self.shape))
            other._accumulate(_unbroadcast(g * self.data, other.shape))

        out._backward = backward
        return out

    # Kept for the oracle graphs and perfbench's self-test.
    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), parents=(self,))

        out._backward = lambda g: self._accumulate(np.full_like(self.data, float(g)))
        return out


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|.

    Equal bit for bit to 1 / (1 + exp(-x)) where x >= 0 and to
    exp(x) / (1 + exp(x)) elsewhere.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis, stabilized by max subtraction."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    # Divide into one new array, then work in place: one allocation, not four.
    probs = np.asarray(logits, dtype=np.float64) / temperature
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def set_grads(inputs: np.ndarray, d_out: np.ndarray, W: Tensor, b: Tensor) -> None:
    """The gradients of the affine map `inputs @ W + b`, given `d_out`: W's
    one product and b's one column sum, each formed in the tensor's
    `grad_view` when it has one and as a new array otherwise."""
    W.grad = np.matmul(inputs.T, d_out, out=W.grad_view)
    b.grad = d_out.sum(axis=0, out=b.grad_view)


def softmax_cross_entropy(hidden: np.ndarray, W: Tensor, b: Tensor,
                          targets) -> tuple[np.ndarray, Callable]:
    """Per-row negative log-likelihood of the target class under
    softmax(hidden @ W + b), shape (N,), and its backward.

    Fused for numerical stability: loss_i = logsumexp(l_i) - l_i[target_i].
    The forward keeps one (N, V) array, the shifted exponentials, and the
    row sums; the softmax itself is formed only by the backward, so a
    forward whose loss is never differentiated (a dev-NLL pass) never
    builds it. `backward(g)` takes the gradient of the (N,) losses, forms
    dlogits in that same array, writes the gradients of W and b
    (`set_grads`) and returns the gradient of `hidden`; a second call raises
    RuntimeError. Every output and gradient takes the same operations in
    the same order as a matmul node, a bias node and a cross-entropy node
    over the logits, so the two agree bit for bit.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if hidden.ndim != 2 or W.ndim != 2 or hidden.shape[1] != W.shape[0]:
        raise ShapeError(f"expected (N,H) hidden and (H,V) weights, got {hidden.shape} and {W.shape}")
    if b.shape != (W.shape[1],) or targets.shape != (hidden.shape[0],):
        raise ShapeError(f"expected ({W.shape[1]},) bias and ({hidden.shape[0]},) targets, "
                         f"got {b.shape} and {targets.shape}")
    rows = np.arange(hidden.shape[0])
    # One (N, V) array, built in place: logits, then shifted, then exponentials.
    logits = hidden @ W.data
    logits += b.data
    shift = _as_array(logits)
    shift -= shift.max(axis=1, keepdims=True)
    picked = shift[rows, targets]
    exp = np.exp(shift, out=shift)
    sums = exp.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) - picked

    def backward(g):
        nonlocal exp
        if exp is None:
            raise RuntimeError("softmax_cross_entropy's backward has run: its buffer holds dlogits")
        dlogits, exp = exp, None
        dlogits /= sums
        dlogits[rows, targets] -= 1.0
        dlogits *= g[:, None]
        set_grads(hidden, dlogits, W, b)
        return dlogits @ W.data.T

    return losses, backward
