"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import math
from bisect import bisect_right
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
    # Views into one flat array each, laid out like the parameters.
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    # Per parameter, which leading-axis rows have had a gradient since init.
    live: dict[str, np.ndarray] = field(default_factory=dict)
    # The dense runs of the last step, with the names and arrays they were
    # built from, and three scratch arrays of at least BLOCK_ENTRIES entries.
    runs: tuple = ((), (), ())
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
    """Fresh state: zero moments and no live rows.

    The moments come from `np.zeros`, whose pages the system maps only when
    first written, so the moments of rows that never get a gradient stay
    unmapped, up to the system's page granularity (see README).
    """
    shapes = {name: p.data.shape for name, p in params.items()}
    state = AdamState(lr=lr, first_moment=flat_views(shapes, np.zeros),
                      second_moment=flat_views(shapes, np.zeros))
    for name, p in params.items():
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


def _in_buffer(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(buffer, offset): a 1-D array whose entries offset .. offset + a.size - 1
    are those of the C-contiguous array `a`."""
    base = a.base
    if (isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == a.dtype
            and base.flags.c_contiguous):
        return base, (a.ctypes.data - base.ctypes.data) // a.itemsize
    return a.reshape(-1), 0


def _dense_runs(params: dict[str, Tensor], names: tuple[str, ...],
                state: AdamState) -> list[tuple]:
    """The parameters `names`, whose data are C-contiguous, as runs of
    entries that lie back to back in the parameter buffer and in both
    moment buffers: (p, m, v, starts, run_names), with p, m and v 1-D and
    the entries of run_names[k] starting at starts[k].

    Cached in `state` while the same arrays back the same names. Building
    the runs marks every row of their parameters live.
    """
    arrays = tuple(params[name].data for name in names)
    built_names, built_arrays, runs = state.runs
    if built_names == names and all(a is b for a, b in zip(arrays, built_arrays)):
        return runs
    # Each open run: buffers, first offsets, next offsets, starts, names.
    open_runs: list[list] = []
    for name, data in zip(names, arrays):
        buffers, offsets = zip(*(_in_buffer(a) for a in (
            data, state.first_moment[name], state.second_moment[name])))
        run = open_runs[-1] if open_runs else None
        if run and all(b is rb for b, rb in zip(buffers, run[0])) and list(offsets) == run[2]:
            run[3].append(run[2][0] - run[1][0])
            run[4].append(name)
        else:
            run = [buffers, list(offsets), None, [0], [name]]
            open_runs.append(run)
        run[2] = [offset + data.size for offset in offsets]
        state.live[name][:] = True
    runs = [(*(b[lo:hi] for b, lo, hi in zip(buffers, firsts, nexts)), starts, run_names)
            for buffers, firsts, nexts, starts, run_names in open_runs]
    state.runs = (names, arrays, runs)
    return runs


def _gradient_block(grads: dict, starts: list[int], names: list[str], start: int, stop: int,
                    scratch: np.ndarray) -> np.ndarray:
    """Entries start .. stop - 1 of a run's gradient: a view when one
    parameter holds them all, else packed into `scratch`."""
    k = bisect_right(starts, start) - 1
    g = grads[names[k]].reshape(-1)
    if starts[k] + g.size >= stop:
        return g[start - starts[k]:stop - starts[k]]
    block = scratch[:stop - start]
    while k < len(names) and starts[k] < stop:
        g = grads[names[k]].reshape(-1)
        lo, hi = max(start, starts[k]), min(stop, starts[k] + g.size)
        block[lo - start:hi - start] = g[lo - starts[k]:hi - starts[k]]
        k += 1
    return block


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
    gradient is zero. A gradient is a dense array or a RowGrad. Parameters
    with a dense gradient and C-contiguous data are walked as runs of
    entries that lie back to back in memory (`_dense_runs`): the parameters
    of `flat_views` are one run, in blocks of BLOCK_ENTRIES entries. A block
    inside one parameter reads its gradient as a view; a block across
    several packs their slices into scratch. Every other parameter is walked
    on its own, in blocks of whole rows along the leading axis of about
    BLOCK_ENTRIES entries. A row is live once it has had a gradient since
    `init_adam`, and only the live rows of a RowGrad's parameter are walked,
    as contiguous spans merged across gaps of fewer than GAP_ENTRIES
    entries. That is exact: a never-live row holds m = v = +0.0, which an
    update with a zero gradient leaves unchanged, as it leaves p. Nothing
    parameter-sized is allocated, and each block takes the operations of
    the textbook expression in the same order (`_update`), so the result is
    the same bit for bit.
    """
    for name, g in grads.items():
        _check_fits(name, g, params[name].data)
    state.step += 1
    correct1 = 1.0 - BETA1 ** state.step
    correct2 = 1.0 - BETA2 ** state.step
    dense, by_rows = [], []
    for name, g in grads.items():
        walked_alone = isinstance(g, RowGrad) or not params[name].data.flags.c_contiguous
        (by_rows if walked_alone else dense).append(name)
    # A block is at least one row, so the scratch must hold the widest row.
    width = max([BLOCK_ENTRIES, *(math.prod(params[name].data.shape[1:]) for name in by_rows)])
    if not state.scratch or state.scratch[0].size < width:
        state.scratch = (np.empty(width), np.empty(width), np.empty(width))
    scratch_g = state.scratch[2]
    for p, m, v, starts, names in _dense_runs(params, tuple(dense), state):
        for start in range(0, p.size, BLOCK_ENTRIES):
            stop = min(start + BLOCK_ENTRIES, p.size)
            gb = _gradient_block(grads, starts, names, start, stop, scratch_g)
            _update(p[start:stop], gb, m[start:stop], v[start:stop], state, correct1, correct2)
    for name in by_rows:
        g = grads[name]
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
                _update(pb, gb, mb, vb, state, correct1, correct2)
