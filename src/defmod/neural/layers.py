"""Stacked-LSTM and character-CNN layers built on the Tensor graph."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _as_array, stable_sigmoid

# (kernel length, number of filters); concatenated output dim is 160.
CNN_KERNELS = ((2, 10), (3, 30), (4, 40), (5, 40), (6, 40))
CHAR_FEATURE_DIM = sum(size for _, size in CNN_KERNELS)
CHAR_EMBEDDING_DIM = 20

INIT_SCALE = 0.05


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], scale: float = INIT_SCALE) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def _gate_views(acts: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    return tuple(acts[..., k * hidden:(k + 1) * hidden] for k in range(4))


def lstm_cell(xw: np.ndarray, h: np.ndarray, c: np.ndarray, Wh: np.ndarray,
              b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM cell update on plain arrays, given the input product
    `xw = x @ Wx`: (h_new, c_new, acts, tanh(c_new)).

    The gate pre-activations are `xw + h @ Wh + b`, added in that order.
    `acts` holds the gate activations side by side in the order
    [input, forget, candidate, output]. The pre-activations are checked
    for finiteness first, since sigmoid and tanh would map an infinite value
    to a finite one.
    """
    hidden = Wh.shape[0]
    gates = _as_array(xw + h @ Wh + b)
    acts = stable_sigmoid(gates)
    acts[:, 2 * hidden:3 * hidden] = np.tanh(gates[:, 2 * hidden:3 * hidden])
    i, f, g, o = _gate_views(acts, hidden)
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, acts, tanh_c


def lstm_layer(X: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor, steps: int) -> Tensor:
    """One LSTM layer over a whole sequence, from a zero state, as one graph node.

    X holds `steps` blocks of batch rows, time-major: rows t*B .. t*B + B - 1
    are step t. Returns every step's h in the same (steps * B, hidden)
    layout. The forward computes X @ Wx for all steps in one product, so
    only h @ Wh runs inside the recurrence. The backward runs
    backpropagation through time into one (steps, B, 4 * hidden) buffer of
    gate gradients, then takes the gradients of X, Wx, Wh and b with one
    product or sum each over all rows.
    """
    if X.ndim != 2 or X.shape[1] != Wx.shape[0]:
        raise ShapeError(f"lstm input shape {X.shape} does not match weights {Wx.shape[0]}")
    if steps < 1 or X.shape[0] % steps:
        raise ShapeError(f"{X.shape[0]} input rows do not split into {steps} steps")
    batch, hidden = X.shape[0] // steps, Wh.shape[0]
    xw = (X.data @ Wx.data).reshape(steps, batch, 4 * hidden)
    acts = np.empty((steps, batch, 4 * hidden))
    cs = np.empty((steps, batch, hidden))
    tanh_cs = np.empty((steps, batch, hidden))
    hs = np.empty((steps, batch, hidden))
    h = c = np.zeros((batch, hidden))
    for t in range(steps):
        h, c, acts[t], tanh_cs[t] = lstm_cell(xw[t], h, c, Wh.data, b.data)
        hs[t], cs[t] = h, c
    out = Tensor(hs.reshape(steps * batch, hidden), parents=(X, Wx, Wh, b))

    def backward(g):
        g = g.reshape(steps, batch, hidden)
        i, f, cand, o = _gate_views(acts, hidden)
        # Each gate's local derivative for every step at once; the
        # recurrence below then multiplies each by dc or dh.
        to_c = o * (1.0 - tanh_cs * tanh_cs)
        by_i = cand * i * (1.0 - i)
        by_cand = i * (1.0 - cand * cand)
        by_o = tanh_cs * o * (1.0 - o)
        by_f = np.zeros_like(cs)  # the cell state before step 0 is zero
        by_f[1:] = cs[:-1] * f[1:] * (1.0 - f[1:])
        d_gates = np.empty((steps, batch, 4 * hidden))
        d_i, d_f, d_cand, d_o = _gate_views(d_gates, hidden)
        dh = g[-1]
        dc = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            dc = dc + dh * to_c[t]
            np.multiply(dc, by_i[t], out=d_i[t])
            np.multiply(dc, by_f[t], out=d_f[t])
            np.multiply(dc, by_cand[t], out=d_cand[t])
            np.multiply(dh, by_o[t], out=d_o[t])
            if t:
                dh = g[t - 1] + d_gates[t] @ Wh.data.T
                dc = dc * f[t]
        flat = d_gates.reshape(steps * batch, 4 * hidden)
        if b.requires_grad:
            b._accumulate(flat.sum(axis=0), owned=True)
        if Wx.requires_grad:
            Wx._accumulate(X.data.T @ flat, owned=True)
        if Wh.requires_grad:
            # h before step t is hs[t - 1], and zero before step 0.
            Wh._accumulate(hs[:-1].reshape(-1, hidden).T @ flat[batch:], owned=True)
        if X.requires_grad:
            X._accumulate(flat @ Wx.data.T, owned=True)

    out._backward = backward
    return out


@lru_cache(maxsize=1024)
def _window_rows(n: int, length: int) -> np.ndarray:
    """Row p holds p, p + 1, ..., p + length - 1: every stride-1 window of n rows."""
    rows = np.arange(n - length + 1)[:, None] + np.arange(length)
    rows.flags.writeable = False
    return rows


def char_cnn_forward(params: dict[str, Tensor], char_ids, pad_id: int) -> Tensor:
    """Convolve character embeddings of one word into a (1, 160) feature row.

    Each kernel length slides with stride 1 over the embedded characters,
    max-pools over positions, and the pooled vectors are concatenated and
    passed through tanh. Words shorter than the longest kernel are padded.

    The whole word is one graph node. Its backward routes each filter's
    gradient to the first maximum, as `Tensor.max` does. The gathered
    embeddings and every kernel's scores are checked for finiteness before
    tanh, which would map an infinite score to a finite 1.0.
    """
    ids = list(char_ids)
    if not ids:
        raise ShapeError("char_cnn_forward needs at least one character")
    longest = max(length for length, _ in CNN_KERNELS)
    if len(ids) < longest:
        ids = ids + [pad_id] * (longest - len(ids))
    ids = np.asarray(ids, dtype=np.int64)
    table = params["char_emb"]
    emb = _as_array(table.data[ids])
    width = emb.shape[1]
    kernels = [(params[f"K{length}"], params[f"Kb{length}"]) for length, _ in CNN_KERNELS]
    windows: list[np.ndarray] = []
    firsts: list[np.ndarray] = []
    pooled: list[np.ndarray] = []
    for (length, size), (K, Kb) in zip(CNN_KERNELS, kernels):
        win = emb[_window_rows(len(ids), length)].reshape(-1, length * width)
        scores = _as_array(win @ K.data + Kb.data)
        first = scores.argmax(axis=0)
        windows.append(win)
        firsts.append(first)
        pooled.append(scores[first, np.arange(size)])
    feats = np.tanh(np.concatenate(pooled))
    out = Tensor(feats.reshape(1, CHAR_FEATURE_DIM),
                 parents=(table, *(t for pair in kernels for t in pair)))

    def backward(g):
        d_pooled = g.reshape(-1) * (1.0 - feats * feats)
        d_emb = np.zeros_like(emb)
        start = 0
        for (length, size), (K, Kb), win, first in zip(CNN_KERNELS, kernels, windows, firsts):
            d_scores = np.zeros((win.shape[0], size))
            d_scores[first, np.arange(size)] = d_pooled[start:start + size]
            start += size
            if Kb.requires_grad:
                Kb._accumulate(d_scores.sum(axis=0))
            if K.requires_grad:
                K._accumulate(win.T @ d_scores)
            d_win = (d_scores @ K.data.T).reshape(-1, length, width)
            # Kernel by kernel, offsets ascending: the summation order of the
            # slice-and-concat graph that tests compare against bit for bit.
            for offset in range(length):
                d_emb[offset:offset + d_win.shape[0]] += d_win[:, offset]
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, d_emb)

    out._backward = backward
    return out


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients together so their joint L2 norm is at most max_norm.

    The arrays are scaled in place and the same dict is returned, with the
    norm before clipping.
    """
    # A dot product per array: no squared copy of any gradient.
    total = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values())))
    if total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    for g in grads.values():
        g *= scale
    return grads, total
