"""Reverse-mode automatic differentiation over float64 numpy arrays.

Each operation records its parents and a closure that routes the output
gradient back to them; `Tensor.backward` replays the closures in reverse
topological order. Only the operations needed by the definition model are
provided.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("tensor data must be finite")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

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

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add `grad` into this tensor's gradient.

        A first gradient is copied, not kept: one array may reach several
        parents (`+` hands the same g to both), and each adds into its own
        grad in place. A caller that has just built `grad`, with this
        tensor's shape, and holds no other reference to it passes
        `owned=True`, and the array itself becomes the gradient.
        """
        if self.grad is not None:
            self.grad += grad
        elif owned:
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)

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

    # arithmetic

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Tensor":
        if isinstance(scalar, Tensor):
            raise TypeError("division is supported by plain scalars only")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ShapeError(f"matmul needs 2-D operands, got {self.shape} @ {other.shape}")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul mismatch: {self.shape} @ {other.shape}")
        out = Tensor(self.data @ other.data, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T, owned=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ g, owned=True)

        out._backward = backward
        return out

    def sum(self, axis=None) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis), parents=(self,))

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.full_like(self.data, float(g)))
            else:
                self._accumulate(np.broadcast_to(np.expand_dims(g, axis), self.shape).copy())

        out._backward = backward
        return out


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|.

    Equal bit for bit to 1 / (1 + exp(-x)) where x >= 0 and to
    exp(x) / (1 + exp(x)) elsewhere.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    out._backward = backward
    return out


def gather(table: Tensor, ids) -> Tensor:
    """Select rows of an embedding table by integer id."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids], parents=(table,))

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    out._backward = backward
    return out


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


def softmax_cross_entropy(hidden: Tensor, W: Tensor, b: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of the target class under
    softmax(hidden @ W + b), shape (N,), as one graph node.

    Fused for numerical stability: loss_i = logsumexp(l_i) - l_i[target_i].
    The forward keeps one (N, V) array, the shifted exponentials, and the
    row sums; the softmax itself is formed only by the backward, so a
    forward whose loss is never differentiated (a dev-NLL pass) never
    builds it. The backward hands the gradients it builds to the parents
    without copies. Every output and gradient takes the same operations in
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
    logits = hidden.data @ W.data
    logits += b.data
    shift = _as_array(logits)
    shift -= shift.max(axis=1, keepdims=True)
    picked = shift[rows, targets]
    exp = np.exp(shift, out=shift)
    sums = exp.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) - picked
    out = Tensor(losses, parents=(hidden, W, b))

    def backward(g):
        dlogits = exp / sums
        dlogits[rows, targets] -= 1.0
        dlogits *= g[:, None]
        if b.requires_grad:
            b._accumulate(dlogits.sum(axis=0), owned=True)
        if W.requires_grad:
            W._accumulate(hidden.data.T @ dlogits, owned=True)
        if hidden.requires_grad:
            hidden._accumulate(dlogits @ W.data.T, owned=True)

    out._backward = backward
    return out
