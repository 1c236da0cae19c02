"""The LSTM layer and the character CNN as fused ops.

Each takes plain arrays and parameter Tensors and returns its output with a
backward over plain arrays, which writes the parameters' gradients and
returns the gradient of its array input, if it has one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import ShapeError
from .tensor import RowGrad, Tensor, _as_array, add_at_rows, set_grads, stable_sigmoid

# (kernel length, number of filters); concatenated output dim is 160.
CNN_KERNELS = ((2, 10), (3, 30), (4, 40), (5, 40), (6, 40))
CHAR_FEATURE_DIM = sum(size for _, size in CNN_KERNELS)
CHAR_EMBEDDING_DIM = 20

INIT_SCALE = 0.05


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


def lstm_layer(X: np.ndarray, Wx: Tensor, Wh: Tensor, b: Tensor,
               steps: int) -> tuple[np.ndarray, Callable]:
    """One LSTM layer over a whole sequence, from a zero state, and its backward.

    X holds `steps` blocks of batch rows, time-major: rows t*B .. t*B + B - 1
    are step t. Returns every step's h in the same (steps * B, hidden)
    layout. The forward computes X @ Wx for all steps in one product, so
    only h @ Wh runs inside the recurrence. `backward(g)` takes the
    gradient of the output rows, runs backpropagation through time into one
    (steps, B, 4 * hidden) buffer of gate gradients, writes the gradients of
    Wx, Wh and b with one product or sum each over all rows, and returns
    the gradient of X.
    """
    if X.ndim != 2 or X.shape[1] != Wx.shape[0]:
        raise ShapeError(f"lstm input shape {X.shape} does not match weights {Wx.shape[0]}")
    if steps < 1 or X.shape[0] % steps:
        raise ShapeError(f"{X.shape[0]} input rows do not split into {steps} steps")
    batch, hidden = X.shape[0] // steps, Wh.shape[0]
    xw = (X @ Wx.data).reshape(steps, batch, 4 * hidden)
    acts = np.empty((steps, batch, 4 * hidden))
    cs = np.empty((steps, batch, hidden))
    tanh_cs = np.empty((steps, batch, hidden))
    hs = np.empty((steps, batch, hidden))
    h = c = np.zeros((batch, hidden))
    for t in range(steps):
        h, c, acts[t], tanh_cs[t] = lstm_cell(xw[t], h, c, Wh.data, b.data)
        hs[t], cs[t] = h, c

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
        set_grads(X, flat, Wx, b)
        # h before step t is hs[t - 1], and zero before step 0.
        Wh.grad = np.matmul(hs[:-1].reshape(-1, hidden).T, flat[batch:], out=Wh.grad_view)
        return flat @ Wx.data.T

    return hs.reshape(steps * batch, hidden), backward


@lru_cache(maxsize=256)
def _window_rows(lengths: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per kernel, the embedding rows of every window entry of words of the
    given padded lengths laid back to back: (words, positions, length) for
    the gather and (length, words, positions) for the backward's scatter-add.

    Every word gets the positions of the longest; a word's windows past its
    own last one repeat that last window.
    """
    lengths_ = np.array(lengths)
    starts = np.cumsum(lengths_) - lengths_
    out = []
    for length, _ in CNN_KERNELS:
        first = np.minimum(starts[:, None] + np.arange(max(lengths) - length + 1),
                           (starts + lengths_ - length)[:, None])
        gather_rows = first[:, :, None] + np.arange(length)
        scatter_rows = np.ascontiguousarray(gather_rows.transpose(2, 0, 1))
        gather_rows.flags.writeable = scatter_rows.flags.writeable = False
        out.append((gather_rows, scatter_rows))
    return tuple(out)


def char_cnn_forward(params: dict[str, Tensor], words_char_ids,
                     pad_id: int) -> tuple[np.ndarray, Callable]:
    """Convolve the character embeddings of each word into one row of a
    (words, 160) feature matrix, and return it with its backward.

    Each word is padded with `pad_id` to the longest kernel length, and the
    padded words lie back to back in one embedding array. Each kernel length
    slides with stride 1 over each word, max-pools over positions, and the
    pooled vectors are concatenated and passed through tanh. A kernel takes
    one window gather, one product and one max over all words: a word with
    fewer windows than the longest word repeats its last window, which can
    never be the first maximum, so each word pools over exactly its own
    windows and reads no character but its own.

    `backward(g)` takes the gradient of the feature rows and routes each
    filter's gradient to the window of its first maximum. It writes each
    kernel's gradients with one product and one sum over all words, and
    sums each character's embedding gradient kernel by kernel, offsets
    ascending, into the one row-form gradient of `char_emb`. The gathered
    embeddings and every kernel's scores are checked for finiteness before
    tanh, which would map an infinite score to a finite 1.0.
    """
    words = [list(char_ids) for char_ids in words_char_ids]
    if not words or not all(words):
        raise ShapeError("char_cnn_forward needs at least one character per word")
    longest = max(length for length, _ in CNN_KERNELS)
    ids = np.array([c for word in words for c in word + [pad_id] * (longest - len(word))],
                   dtype=np.int64)
    rows = _window_rows(tuple(max(len(word), longest) for word in words))
    table = params["char_emb"]
    emb = _as_array(table.data[ids])
    n_words, width = len(words), emb.shape[1]
    kernels = [(params[f"K{length}"], params[f"Kb{length}"]) for length, _ in CNN_KERNELS]
    # Every kernel's scores, (words * positions, filters) each, in one buffer
    # that is checked for finiteness once.
    scores_buf = np.empty(sum(gather_rows.shape[1] * size
                              for (gather_rows, _), (_, size) in zip(rows, CNN_KERNELS)) * n_words)
    feats = np.empty((n_words, CHAR_FEATURE_DIM))
    windows: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    used = column = 0
    for (length, size), (K, Kb), (gather_rows, _) in zip(CNN_KERNELS, kernels, rows):
        win = emb[gather_rows].reshape(-1, length * width)
        kernel_scores = scores_buf[used:used + win.shape[0] * size].reshape(-1, size)
        used += kernel_scores.size
        np.matmul(win, K.data, out=kernel_scores)
        kernel_scores += Kb.data
        by_word = kernel_scores.reshape(n_words, -1, size)
        by_word.max(axis=1, out=feats[:, column:column + size])
        column += size
        windows.append(win)
        scores.append(by_word)
    _as_array(scores_buf)
    np.tanh(feats, out=feats)

    def backward(g):
        d_pooled = g * (1.0 - feats * feats)
        d_emb = np.zeros_like(emb)
        word_rows = np.arange(n_words)[:, None]
        column = 0
        for (length, size), (K, Kb), (_, scatter_rows), win, by_word in zip(
                CNN_KERNELS, kernels, rows, windows, scores):
            d_scores = np.zeros(by_word.shape)
            d_scores[word_rows, by_word.argmax(axis=1), np.arange(size)] = \
                d_pooled[:, column:column + size]
            column += size
            d_scores = d_scores.reshape(win.shape[0], size)
            set_grads(win, d_scores, K, Kb)
            d_win = (d_scores @ K.data.T).reshape(n_words, -1, length, width)
            # Offset-major, so that the offsets of each row add ascending, as
            # the per-word slice adds did.
            add_at_rows(d_emb, scatter_rows, d_win.transpose(2, 0, 1, 3))
        table.grad = RowGrad(ids, d_emb)

    return feats, backward


def clip_global_norm(grads: dict[str, np.ndarray | RowGrad],
                     max_norm: float) -> tuple[dict[str, np.ndarray | RowGrad], float]:
    """Scale all gradients together so their joint L2 norm is at most max_norm.

    A row-form gradient counts and scales its row values only: its other
    rows are zero. The arrays are scaled in place and the same dict is
    returned, with the norm before clipping.
    """
    arrays = [g.values if isinstance(g, RowGrad) else g for g in grads.values()]
    # A dot product per array: no squared copy of any gradient.
    total = float(np.sqrt(sum(float(np.dot(a.ravel(), a.ravel())) for a in arrays)))
    if total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    for a in arrays:
        a *= scale
    return grads, total
