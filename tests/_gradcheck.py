"""Central finite-difference verification of backpropagated gradients.

The package never checks its own gradients, so only the tests carry this.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from defmod.neural import Tensor
from defmod.neural.tensor import RowGrad


def dense_grad(t: Tensor) -> np.ndarray | None:
    """`t.grad` as a dense array; a row-form gradient is expanded, None stays None."""
    return t.grad.dense(t.shape) if isinstance(t.grad, RowGrad) else t.grad


def grad_check(
    fn: Callable[[], Tensor],
    params: list[Tensor] | dict[str, Tensor],
    epsilon: float = 1e-4,
) -> float:
    """Max relative error between analytic and numeric gradients of a scalar.

    `fn` must rebuild the computation from the current parameter values on
    every call. Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    tensors = list(params.values()) if isinstance(params, dict) else list(params)
    for p in tensors:
        p.zero_grad()
    fn().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else dense_grad(p).copy() for p in tensors]
    worst = 0.0
    for p, a in zip(tensors, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            plus = fn().item()
            flat[i] = original - epsilon
            minus = fn().item()
            flat[i] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            a_i = a.reshape(-1)[i]
            err = abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
