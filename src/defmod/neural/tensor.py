"""Reverse-mode automatic differentiation over float64 numpy arrays.

Each operation records its parents and a closure that routes the output
gradient back to them; `Tensor.backward` replays the closures in reverse
topological order. Only the operations needed by the definition model are
provided.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NonFiniteError, ShapeError


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteError("tensor data must be finite")
    return arr


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
        # What backward left here: a dense array, a RowGrad when one
        # `add_rows` call (a `gather` or a char-CNN word) reached this leaf
        # and nothing else did, or None.
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

    def _densify(self) -> None:
        """Make this tensor's gradient dense: zeros, in `grad_view` if there is
        one, with the rows of a row-form gradient written in."""
        rows = self.grad
        if self.grad_view is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad = self.grad_view
            self.grad.fill(0.0)
        if isinstance(rows, RowGrad):
            self.grad[rows.rows] = rows.values

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add `grad` into this tensor's gradient.

        A first gradient is copied into `grad_view`, or else into a new
        array, not kept: one array may reach several parents (`+` hands the
        same g to both), and each adds into its own grad in place. A caller
        that has just built `grad`, with this tensor's shape, and holds no
        other reference to it passes `owned=True`, and without a view the
        array itself becomes the gradient. A tensor that needs no gradient
        ignores the call, and a row-form gradient is made dense before
        `grad` is added.
        """
        if not self.requires_grad:
            return
        if isinstance(self.grad, RowGrad):
            self._densify()
        if self.grad is not None:
            self.grad += grad
        elif owned and self.grad_view is None:
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data) if self.grad_view is None else self.grad_view
            np.copyto(self.grad, grad)

    def _accumulate_product(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add `a @ b` into this tensor's gradient. A first gradient is formed
        by the product in `grad_view` itself when there is one, so it is
        neither allocated nor copied."""
        if self.requires_grad and self.grad is None and self.grad_view is not None:
            self.grad = np.matmul(a, b, out=self.grad_view)
        else:
            self._accumulate(a @ b, owned=True)

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
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(g):
            self._accumulate(_unbroadcast(g * other.data, self.shape))
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
            self._accumulate_product(g, other.data.T)
            other._accumulate_product(self.data.T, g)

        out._backward = backward
        return out

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


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            t._accumulate(piece)

    out._backward = backward
    return out


def add_rows(table: Tensor, ids, grads: np.ndarray) -> None:
    """Scatter-add `grads` into the rows `ids` of `table`'s gradient.

    The first gradient of a leaf is kept in row form (RowGrad), so an
    optimizer need not touch the rows no id reached, and `grad_view` is
    not written. A leaf that already holds a gradient, and any interior
    node, get the dense scatter-add.
    """
    if not table.requires_grad:
        return
    if table.grad is None and not table._parents:
        table.grad = RowGrad(ids, grads)
        return
    if table.grad is None or isinstance(table.grad, RowGrad):
        table._densify()
    add_at_rows(table.grad, np.asarray(ids, dtype=np.int64), np.asarray(grads, dtype=np.float64))


def gather(table: Tensor, ids) -> Tensor:
    """Select rows of an embedding table by integer id."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids], parents=(table,))
    out._backward = lambda g: add_rows(table, ids, g)
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
    builds it. The backward forms dlogits in that same array, so the node
    holds one (N, V) array throughout, and a second backward through it
    raises RuntimeError. It hands the gradients it builds to the parents
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
        nonlocal exp
        if exp is None:
            raise RuntimeError("softmax_cross_entropy's backward has run: its buffer holds dlogits")
        dlogits, exp = exp, None
        dlogits /= sums
        dlogits[rows, targets] -= 1.0
        dlogits *= g[:, None]
        b._accumulate(dlogits.sum(axis=0), owned=True)
        W._accumulate_product(hidden.data.T, dlogits)
        hidden._accumulate(dlogits @ W.data.T, owned=True)

    out._backward = backward
    return out
