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


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int, layers: int) -> dict[str, Tensor]:
    """Stacked LSTM parameters; gate order [input, forget, candidate, output].

    Forget-gate bias starts at +1 so early training does not wash out state.
    """
    params: dict[str, Tensor] = {}
    for layer in range(layers):
        dim = input_dim if layer == 0 else hidden
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0
        params[f"Wx{layer}"] = uniform_init(rng, (dim, 4 * hidden))
        params[f"Wh{layer}"] = uniform_init(rng, (hidden, 4 * hidden))
        params[f"b{layer}"] = Tensor(bias, requires_grad=True)
    return params


def _gate_views(acts: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    return tuple(acts[:, k * hidden:(k + 1) * hidden] for k in range(4))


def lstm_cell(x: np.ndarray, h: np.ndarray, c: np.ndarray, Wx: np.ndarray,
              Wh: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM cell update on plain arrays: (h_new, c_new, acts, tanh(c_new)).

    `acts` holds the gate activations side by side in the order
    [input, forget, candidate, output]. The gate pre-activations are checked
    for finiteness first, since sigmoid and tanh would map an infinite value
    to a finite one.
    """
    hidden = Wh.shape[0]
    gates = _as_array(x @ Wx + h @ Wh + b)
    acts = stable_sigmoid(gates)
    acts[:, 2 * hidden:3 * hidden] = np.tanh(gates[:, 2 * hidden:3 * hidden])
    i, f, g, o = _gate_views(acts, hidden)
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, acts, tanh_c


def lstm_step(
    x: Tensor, h: Tensor, c: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor
) -> tuple[Tensor, Tensor]:
    """One LSTM cell update for a (batch, dim) input, as two graph nodes.

    The c_new node owns the cell; the h_new node's backward only adds its
    share to c_new's gradient, so when the cell's backward runs it finds
    both output gradients complete. Every gradient takes the same operations
    in the same order as a graph of slice, sigmoid, tanh and mul nodes, so
    the two agree bit for bit.
    """
    if x.shape[1] != Wx.shape[0]:
        raise ShapeError(f"lstm input dim {x.shape[1]} does not match weights {Wx.shape[0]}")
    h_data, c_data, acts, tanh_c = lstm_cell(x.data, h.data, c.data, Wx.data, Wh.data, b.data)
    i, f, g, o = _gate_views(acts, Wh.shape[0])
    c_new = Tensor(c_data, parents=(x, h, c, Wx, Wh, b))
    h_new = Tensor(h_data, parents=(c_new,))

    # Every gradient below is a fresh array, handed over without a copy.
    def h_backward(dh):
        c_new._accumulate(dh * o * (1.0 - tanh_c * tanh_c), owned=True)

    def c_backward(dc):
        d_out = np.zeros_like(o) if h_new.grad is None else h_new.grad * tanh_c * o * (1.0 - o)
        d_gates = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c.data * f * (1.0 - f), dc * i * (1.0 - g * g), d_out],
            axis=1)
        if b.requires_grad:
            b._accumulate(d_gates.sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(d_gates @ Wx.data.T, owned=True)
        if Wx.requires_grad:
            Wx._accumulate(x.data.T @ d_gates, owned=True)
        if h.requires_grad:
            h._accumulate(d_gates @ Wh.data.T, owned=True)
        if Wh.requires_grad:
            Wh._accumulate(h.data.T @ d_gates, owned=True)
        if c.requires_grad:
            c._accumulate(dc * f, owned=True)

    h_new._backward = h_backward
    c_new._backward = c_backward
    return h_new, c_new


def lstm_forward(
    params: dict[str, Tensor],
    inputs: list[Tensor],
    initial_state: list[tuple[Tensor, Tensor]] | None = None,
) -> tuple[list[Tensor], list[tuple[Tensor, Tensor]]]:
    """Run a stacked LSTM over per-step (batch, dim) inputs.

    Layer count and hidden size are read off the parameter collection.
    Returns the top layer's hidden state at every step and the final
    (h, c) pair of every layer. The default initial state is one zero leaf
    shared by every h and c.
    """
    if not inputs:
        raise ShapeError("lstm_forward needs at least one input step")
    layers = sum(1 for name in params if name.startswith("Wx"))
    hidden = params["Wh0"].shape[0]
    batch = inputs[0].shape[0]
    if initial_state is None:
        zero = Tensor(np.zeros((batch, hidden)))
        state = [(zero, zero)] * layers
    else:
        state = list(initial_state)
    outputs: list[Tensor] = []
    for x in inputs:
        layer_input = x
        for layer in range(layers):
            h, c = lstm_step(
                layer_input, state[layer][0], state[layer][1],
                params[f"Wx{layer}"], params[f"Wh{layer}"], params[f"b{layer}"],
            )
            state[layer] = (h, c)
            layer_input = h
        outputs.append(layer_input)
    return outputs, state


def init_char_cnn(rng: np.random.Generator, char_vocab_size: int,
                  emb_dim: int = CHAR_EMBEDDING_DIM) -> dict[str, Tensor]:
    params = {"char_emb": uniform_init(rng, (char_vocab_size, emb_dim))}
    for length, size in CNN_KERNELS:
        params[f"K{length}"] = uniform_init(rng, (length * emb_dim, size))
        params[f"Kb{length}"] = Tensor(np.zeros(size), requires_grad=True)
    return params


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
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    for g in grads.values():
        g *= scale
    return grads, total
