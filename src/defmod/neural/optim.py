"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import takewhile

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
    # Views into one flat array each, laid out like the parameters. A dense
    # gradient is formed in its view of `gradient` (`Tensor.grad_view`).
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    gradient: dict[str, np.ndarray] = field(default_factory=dict)
    # Per parameter, which leading-axis rows have had a gradient since init.
    live: dict[str, np.ndarray] = field(default_factory=dict)
    # Three scratch arrays of at least BLOCK_ENTRIES entries.
    scratch: tuple = ()


def flat_views(shapes: dict[str, tuple[int, ...]], make) -> dict[str, np.ndarray]:
    """One float64 buffer from `make(entries)`, cut into a C-order view per
    name in `shapes` order.

    Parameters held this way are one range to `adam_step` and one copy to a
    snapshot (`flat_buffer`).
    """
    flat = make(sum(math.prod(shape) for shape in shapes.values()))
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def flat_buffer(params: dict[str, Tensor]) -> np.ndarray:
    """The buffer that `flat_views` cut every parameter's data from."""
    flat = next(iter(params.values())).data.base
    if (flat is None or any(p.data.base is not flat for p in params.values())
            or flat.size != sum(p.size for p in params.values())):
        raise ShapeError("the parameters are not views of one flat buffer")
    return flat


def init_adam(params: dict[str, Tensor], lr: float = 0.001) -> AdamState:
    """Fresh state: zero moments, no live rows, and a gradient buffer laid
    out like the parameters (which must be the views of one `flat_views`
    buffer), whose views are hooked to the parameters as `grad_view`.

    The moments and the gradients come from `np.zeros`, whose pages the
    system maps only when first written, so the entries of rows that never
    get a gradient stay unmapped, up to the system's page granularity (see
    README). The caller unhooks the views when it is done.
    """
    flat_buffer(params)
    shapes = {name: p.data.shape for name, p in params.items()}
    state = AdamState(lr=lr, first_moment=flat_views(shapes, np.zeros),
                      second_moment=flat_views(shapes, np.zeros),
                      gradient=flat_views(shapes, np.zeros))
    for name, p in params.items():
        p.grad_view = state.gradient[name]
        state.live[name] = np.zeros(len(np.atleast_1d(p.data)), dtype=bool)
    return state


def _check_fits(name: str, g: RowGrad, data: np.ndarray) -> None:
    rows = np.atleast_1d(data)
    in_range = not len(g.rows) or (g.rows[0] >= 0 and g.rows[-1] < len(rows))
    if g.values.shape[1:] != rows.shape[1:] or not in_range:
        raise ShapeError(f"row gradient of shape {g.values.shape} does not fit "
                         f"parameter {name} {data.shape}")


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


def _update(pb, gb, mb, vb, state: AdamState, correct1: float, correct2: float) -> None:
    """The textbook update of one block, in place, in the textbook's order:
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/c1) / (sqrt(v/c2) + eps)."""
    s1 = state.scratch[0][:gb.size].reshape(gb.shape)
    s2 = state.scratch[1][:gb.size].reshape(gb.shape)
    mb *= BETA1
    np.multiply(gb, 1.0 - BETA1, out=s1)
    mb += s1
    vb *= BETA2
    np.multiply(gb, gb, out=s1)
    s1 *= 1.0 - BETA2
    vb += s1
    np.divide(mb, correct1, out=s1)
    s1 *= state.lr
    np.divide(vb, correct2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += EPSILON
    s1 /= s2
    pb -= s1


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | RowGrad],
              state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Dense Adam (Kingma & Ba): every entry's moments decay, whether or not its
    gradient is zero. In buffer order, the parameters with a row-form
    gradient (RowGrad) come first, and every parameter after them has a
    dense gradient that is its view of `state.gradient`; anything else
    raises ShapeError. A dense parameter without a gradient this step would
    have its view replay the last step's gradient, so it is refused too.

    The dense part is one range of the parameter, gradient and moment
    buffers, walked to the end in blocks of BLOCK_ENTRIES entries, each a
    view on all four. Each row-form parameter is walked on its own, in
    blocks of whole rows along the leading axis of about BLOCK_ENTRIES
    entries. A row is live once it has had a gradient since `init_adam`,
    and only live rows are walked, as contiguous spans merged across gaps
    of fewer than GAP_ENTRIES entries. That is exact: a never-live row
    holds m = v = +0.0, which an update with a zero gradient leaves
    unchanged, as it leaves p. Nothing parameter-sized is allocated, and
    each block takes the operations of the textbook expression in the same
    order (`_update`), so the result is the same bit for bit.
    """
    by_rows = list(takewhile(lambda name: isinstance(grads.get(name), RowGrad), params))
    dense = list(params)[len(by_rows):]
    for name in dense:
        if grads.get(name) is not state.gradient[name]:
            raise ShapeError(f"parameter {name} needs its dense gradient in its view of the "
                             "gradient buffer, after every row-form gradient")
    if len(grads) != len(params):
        raise ShapeError(f"gradients for unknown parameters: {sorted(set(grads) - set(params))}")
    for name in by_rows:
        _check_fits(name, grads[name], params[name].data)
    for name in dense:
        state.live[name].fill(True)
    state.step += 1
    correct1 = 1.0 - BETA1 ** state.step
    correct2 = 1.0 - BETA2 ** state.step
    # A block is at least one row, so the scratch must hold the widest row.
    width = max([BLOCK_ENTRIES, *(math.prod(params[name].data.shape[1:]) for name in by_rows)])
    if not state.scratch or state.scratch[0].size < width:
        state.scratch = (np.empty(width), np.empty(width), np.empty(width))
    start = sum(params[name].size for name in by_rows)
    p = flat_buffer(params)[start:]
    g, m, v = (next(iter(views.values())).base[start:]
               for views in (state.gradient, state.first_moment, state.second_moment))
    for lo in range(0, p.size, BLOCK_ENTRIES):
        hi = lo + BLOCK_ENTRIES
        _update(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], state, correct1, correct2)
    scratch_g = state.scratch[2]
    for name in by_rows:
        g = grads[name]
        # 0-d arrays become one-entry views.
        data, m, v = (np.atleast_1d(a) for a in (
            params[name].data, state.first_moment[name], state.second_moment[name]))
        live = state.live[name]
        live[g.rows] = True
        row_entries = max(1, math.prod(data.shape[1:]))
        rows = max(1, BLOCK_ENTRIES // row_entries)
        for span_start, span_stop in _live_spans(live, row_entries):
            for lo in range(span_start, span_stop, rows):
                hi = min(lo + rows, span_stop)
                pb, mb, vb = (a[lo:hi] for a in (data, m, v))
                # Rows of the block without a gradient this step get zero.
                gb = scratch_g[:pb.size].reshape(pb.shape)
                gb.fill(0.0)
                first, last = np.searchsorted(g.rows, (lo, hi))
                gb[g.rows[first:last] - lo] = g.values[first:last]
                _update(pb, gb, mb, vb, state, correct1, correct2)
