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
    if not isinstance(t.grad, RowGrad):
        return t.grad
    out = np.zeros(t.shape)
    out[t.grad.rows] = t.grad.values
    return out


# The share of a check's coordinates that may straddle a kink (`kinks`).
MAX_SKIPPED_SHARE = 0.05


def grad_check(
    fn: Callable[[], Tensor],
    params: list[Tensor] | dict[str, Tensor],
    epsilon: float = 1e-4,
    kinks: Callable[[], np.ndarray] | None = None,
) -> float:
    """Max relative error between analytic and numeric gradients of a scalar.

    `fn` must rebuild the computation from the current parameter values on
    every call. Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    `kinks`, when given, returns the active set of the computation's
    non-smooth operations at the current parameter values (for the
    char-CNN, each kernel's pool argmax per word). A coordinate whose active
    set at +epsilon or -epsilon differs from the one at the parameters
    themselves has no derivative there for the difference to estimate; it
    is skipped and counted. The check fails if it skips more than
    MAX_SKIPPED_SHARE of all coordinates, or every coordinate of a tensor.
    """
    tensors = list(params.values()) if isinstance(params, dict) else list(params)
    for p in tensors:
        p.zero_grad()
    fn().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else dense_grad(p).copy() for p in tensors]
    active = kinks() if kinks else None
    worst = 0.0
    skipped = total = 0
    for p, a in zip(tensors, analytic):
        flat = p.data.reshape(-1)
        checked = 0
        for i in range(flat.size):
            original = flat[i]
            values, kinked = [], False
            for shifted in (original + epsilon, original - epsilon):
                flat[i] = shifted
                values.append(fn().item())
                kinked = kinked or (kinks is not None and not np.array_equal(kinks(), active))
            flat[i] = original
            if kinked:
                skipped += 1
                continue
            checked += 1
            numeric = (values[0] - values[1]) / (2.0 * epsilon)
            a_i = a.reshape(-1)[i]
            err = abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1e-8)
            worst = max(worst, err)
        assert checked or not flat.size, f"no coordinate of a {p.shape} tensor was checked"
        total += flat.size
    assert skipped <= MAX_SKIPPED_SHARE * total, (
        f"{skipped} of {total} coordinates straddle a kink")
    return worst
