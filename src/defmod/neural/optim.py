"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from .tensor import RowGrad, Tensor

# Entries per block of the Adam update: the block's slices of p, g, m, v and
# the three scratch arrays (7 x 256 KiB) stay in cache while it is updated.
BLOCK_ENTRIES = 32768
# Live spans separated by fewer never-live entries than this are walked as
# one span: the walk leaves never-live rows unchanged, and costs fewer numpy
# calls than a second span would.
GAP_ENTRIES = 2048
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 0.001
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    # Per parameter, which leading-axis rows have had a gradient since init.
    live: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: dict[str, Tensor], lr: float = 0.001) -> AdamState:
    """Fresh state: zero moments and no live rows.

    The moments come from `np.zeros`, whose pages the system maps only when
    first written, so rows that never get a gradient cost no memory.
    """
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.first_moment[name] = np.zeros(p.data.shape)
        state.second_moment[name] = np.zeros(p.data.shape)
        state.live[name] = np.zeros(len(np.atleast_1d(p.data)), dtype=bool)
    return state


def _check_fits(name: str, g: np.ndarray | RowGrad, data: np.ndarray) -> None:
    if isinstance(g, RowGrad):
        rows = np.atleast_1d(data)
        in_range = not len(g.rows) or (g.rows[0] >= 0 and g.rows[-1] < len(rows))
        if g.values.shape[1:] != rows.shape[1:] or not in_range:
            raise ShapeError(f"row gradient of shape {g.values.shape} does not fit "
                             f"parameter {name} {data.shape}")
    elif g.shape != data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match parameter {name} {data.shape}")


def _live_spans(live: np.ndarray, row_entries: int) -> list[tuple[int, int]]:
    """[start, stop) runs of live rows, merged across gaps of fewer than
    GAP_ENTRIES entries."""
    if live.all():
        return [(0, len(live))]
    rows = np.flatnonzero(live)
    if not len(rows):
        return []
    cuts = np.flatnonzero((np.diff(rows) - 1) * row_entries >= GAP_ENTRIES) + 1
    starts = rows[np.concatenate(([0], cuts))]
    stops = rows[np.concatenate((cuts - 1, [-1]))] + 1
    return list(zip(starts.tolist(), stops.tolist()))


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | RowGrad],
              state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Dense Adam (Kingma & Ba): every entry's moments decay, whether or not its
    gradient is zero. A gradient is a dense array or a RowGrad. A row (along
    the leading axis) is live once it has had a gradient since `init_adam`,
    and only live rows are walked. That is exact: a never-live row holds
    m = v = +0.0, which an update with a zero gradient leaves unchanged, as
    it leaves p. The live rows are walked in place as contiguous spans,
    merged across gaps of fewer than GAP_ENTRIES entries, each span in
    blocks of whole rows of about BLOCK_ENTRIES entries; nothing
    parameter-sized is allocated. Within a block the operations are those
    of the textbook expression, in the same order, so the result is the
    same bit for bit:
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps).
    """
    for name, g in grads.items():
        _check_fits(name, g, params[name].data)
    state.step += 1
    correct1 = 1.0 - BETA1 ** state.step
    correct2 = 1.0 - BETA2 ** state.step
    keep1, keep2 = 1.0 - BETA1, 1.0 - BETA2
    # A block is at least one row, so the scratch must hold the widest row.
    width = max([BLOCK_ENTRIES, *(math.prod(params[name].data.shape[1:]) for name in grads)])
    scratch1, scratch2, scratch_g = np.empty(width), np.empty(width), np.empty(width)
    for name, g in grads.items():
        # 0-d arrays become one-entry views; slices along axis 0 are always
        # views, whatever the memory layout.
        data, m, v = (np.atleast_1d(a) for a in (
            params[name].data, state.first_moment[name], state.second_moment[name]))
        live = state.live[name]
        if isinstance(g, RowGrad):
            live[g.rows] = True
        else:
            live[:] = True
            g = np.atleast_1d(g)
        row_entries = max(1, math.prod(data.shape[1:]))
        rows = max(1, BLOCK_ENTRIES // row_entries)
        for span_start, span_stop in _live_spans(live, row_entries):
            for start in range(span_start, span_stop, rows):
                stop = min(start + rows, span_stop)
                pb, mb, vb = (a[start:stop] for a in (data, m, v))
                if isinstance(g, RowGrad):
                    # Rows of the block without a gradient this step get zero.
                    gb = scratch_g[:pb.size].reshape(pb.shape)
                    gb.fill(0.0)
                    lo, hi = np.searchsorted(g.rows, (start, stop))
                    gb[g.rows[lo:hi] - start] = g.values[lo:hi]
                else:
                    gb = g[start:stop]
                s1 = scratch1[:gb.size].reshape(gb.shape)
                s2 = scratch2[:gb.size].reshape(gb.shape)
                mb *= BETA1
                np.multiply(gb, keep1, out=s1)
                mb += s1
                vb *= BETA2
                np.multiply(gb, gb, out=s1)
                s1 *= keep2
                vb += s1
                np.divide(mb, correct1, out=s1)
                s1 *= state.lr
                np.divide(vb, correct2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += EPSILON
                s1 /= s2
                pb -= s1
