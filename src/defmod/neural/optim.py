"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor

# Entries per block of the Adam update: the block's slices of p, g, m, v and
# the two scratch arrays (6 x 256 KiB) stay in cache while it is updated.
BLOCK_ENTRIES = 32768


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: dict[str, Tensor], lr: float = 0.001) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.first_moment[name] = np.zeros_like(p.data)
        state.second_moment[name] = np.zeros_like(p.data)
    return state


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Dense Adam (Kingma & Ba): every entry's moments decay, whether or not its
    gradient is zero. Each parameter is walked in blocks of whole leading-axis
    rows of about BLOCK_ENTRIES entries, so a step makes one pass over p, g, m
    and v and allocates nothing parameter-sized. Within a block the
    operations are those of the textbook expression, in the same order,
    so the result is the same bit for bit:
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps).
    """
    state.step += 1
    correct1 = 1.0 - state.beta1 ** state.step
    correct2 = 1.0 - state.beta2 ** state.step
    keep1, keep2 = 1.0 - state.beta1, 1.0 - state.beta2
    # A block is at least one row, so the scratch must hold the widest row.
    width = max([BLOCK_ENTRIES, *(math.prod(g.shape[1:]) for g in grads.values())])
    scratch1, scratch2 = np.empty(width), np.empty(width)
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {name} {p.data.shape}")
        # 0-d arrays become one-entry views; slices along axis 0 are always
        # views, whatever the memory layout.
        data, g, m, v = (np.atleast_1d(a) for a in (
            p.data, g, state.first_moment[name], state.second_moment[name]))
        rows = max(1, BLOCK_ENTRIES // max(1, math.prod(data.shape[1:])))
        for start in range(0, len(data), rows):
            pb, gb, mb, vb = (a[start:start + rows] for a in (data, g, m, v))
            s1 = scratch1[:gb.size].reshape(gb.shape)
            s2 = scratch2[:gb.size].reshape(gb.shape)
            mb *= state.beta1
            np.multiply(gb, keep1, out=s1)
            mb += s1
            vb *= state.beta2
            np.multiply(gb, gb, out=s1)
            s1 *= keep2
            vb += s1
            np.divide(mb, correct1, out=s1)
            s1 *= state.lr
            np.divide(vb, correct2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += state.epsilon
            s1 /= s2
            pb -= s1
