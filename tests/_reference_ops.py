"""Reference implementations that only the tests use, as oracles.

The fused char-CNN and output-layer cross-entropy in `defmod.neural` must
match a graph built from the unfused one-op nodes below bit for bit. The
package itself never builds such a graph, so the ops live here rather than
in `defmod.neural`. `lstm_step` is the per-step LSTM cell, two graph nodes
per step, that `neural.lstm_layer` must match to 1e-12 relative, and
`ref_batch_nll` is the per-step batch loss built from it.
`ref_char_cnn_forward` is the per-word char-CNN node that
`neural.char_cnn_forward` must match bit for bit on one word and to 1e-12
relative on a batch of words. `ref_sample_definition` is the single-row
sampler that `defgen.sample_definition` must reproduce at batch 1. The
LSTM oracles run their own copy of the cell arithmetic, `ref_lstm_cell`,
so that they do not depend on the package's `lstm_cell`.
"""

from functools import lru_cache

import numpy as np

from defmod.defgen import _condition_block
from defmod.errors import ConfigError, ShapeError
from defmod.neural import (CHAR_FEATURE_DIM, CNN_KERNELS, Tensor, concat, gather, softmax,
                           softmax_cross_entropy, stable_sigmoid)
from defmod.neural.tensor import _as_array, add_rows
from defmod.textprep import BOS_ID, EOS_ID, PAD_ID, UNK_ID


def getitem(x: Tensor, key) -> Tensor:
    """Basic indexing only (ints and slices); use `gather` for id arrays."""
    parts = key if isinstance(key, tuple) else (key,)
    if any(not isinstance(part, (int, np.integer, slice)) for part in parts):
        raise TypeError("Tensor indexing supports ints and slices; use gather for arrays")
    out = Tensor(x.data[key], parents=(x,))

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[key] += g

    out._backward = backward
    return out


def reshape(x: Tensor, *shape) -> Tensor:
    out = Tensor(x.data.reshape(*shape), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    out._backward = backward
    return out


def tensor_max(x: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; ties route the gradient to the first maximum."""
    idx = np.argmax(x.data, axis=axis)
    out = Tensor(np.take_along_axis(x.data, np.expand_dims(idx, axis), axis).squeeze(axis),
                 parents=(x,))

    def backward(g):
        if x.requires_grad:
            scatter = np.zeros_like(x.data)
            np.put_along_axis(scatter, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
            x._accumulate(scatter)

    out._backward = backward
    return out


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out.data * out.data))

    out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(stable_sigmoid(x.data), parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out.data * (1.0 - out.data))

    out._backward = backward
    return out


def ref_softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of the target class, shape (N,).

    Fused for numerical stability: loss_i = logsumexp(l_i) - l_i[target_i].
    The softmax itself is formed only by the backward, so a forward whose
    loss is never differentiated (a dev-NLL pass) never builds it.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"expected (N,V) logits and (N,) targets, got {logits.shape} and {targets.shape}")
    rows = np.arange(logits.shape[0])
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    picked = shift[rows, targets]
    exp = np.exp(shift, out=shift)
    sums = exp.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) - picked
    out = Tensor(losses, parents=(logits,))

    def backward(g):
        if logits.requires_grad:
            dlogits = exp / sums
            dlogits[rows, targets] -= 1.0
            dlogits *= g[:, None]
            logits._accumulate(dlogits)

    out._backward = backward
    return out


@lru_cache(maxsize=1024)
def _window_rows(n: int, length: int) -> np.ndarray:
    """Row p holds p, p + 1, ..., p + length - 1: every stride-1 window of n rows."""
    rows = np.arange(n - length + 1)[:, None] + np.arange(length)
    rows.flags.writeable = False
    return rows


def ref_char_cnn_forward(params: dict[str, Tensor], char_ids, pad_id: int) -> Tensor:
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
            Kb._accumulate(d_scores.sum(axis=0))
            K._accumulate(win.T @ d_scores)
            d_win = (d_scores @ K.data.T).reshape(-1, length, width)
            # Kernel by kernel, offsets ascending: the summation order of the
            # slice-and-concat graph that tests compare against bit for bit.
            for offset in range(length):
                d_emb[offset:offset + d_win.shape[0]] += d_win[:, offset]
        add_rows(table, ids, d_emb)

    out._backward = backward
    return out


def char_cnn_pool_argmax(params: dict[str, Tensor], words_char_ids, pad_id: int) -> np.ndarray:
    """The active set of the char-CNN's max-pools, for `grad_check`'s
    `kinks`: the character ids of each filter's first-maximum window, per
    word and kernel, concatenated. Windows with the same characters take the
    same gradient, so a pool that moves between two of them (rounding can
    break their tie) does not count as a move."""
    longest = max(length for length, _ in CNN_KERNELS)
    firsts = []
    for char_ids in words_char_ids:
        ids = np.asarray(list(char_ids) + [pad_id] * (longest - len(char_ids)))
        emb = params["char_emb"].data[ids]
        for length, _ in CNN_KERNELS:
            rows = _window_rows(len(ids), length)
            scores = emb[rows].reshape(len(rows), -1) @ params[f"K{length}"].data
            scores += params[f"Kb{length}"].data
            firsts.append(ids[rows[scores.argmax(axis=0)]].reshape(-1))
    return np.concatenate(firsts)


def _gate_views(acts: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    return tuple(acts[:, k * hidden:(k + 1) * hidden] for k in range(4))


def ref_lstm_cell(x: np.ndarray, h: np.ndarray, c: np.ndarray, Wx: np.ndarray,
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
    h_data, c_data, acts, tanh_c = ref_lstm_cell(x.data, h.data, c.data, Wx.data, Wh.data, b.data)
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


def ref_batch_nll(model, pairs):
    """Teacher-forced mean NLL per token over a batch of pairs, stepped one
    `lstm_step` per time step and layer, with padded steps masked out of
    the mean. Returns the scalar loss and the number of real target tokens.
    """
    cfg = model.config
    encoded = [cfg.vocab.ids(p.definition[:cfg.max_def_len]) for p in pairs]
    batch = len(pairs)
    T = max(len(ids) for ids in encoded) + 1  # plus EOS
    inputs = np.full((batch, T), PAD_ID, dtype=np.int64)
    targets = np.full((batch, T), PAD_ID, dtype=np.int64)
    for i, ids in enumerate(encoded):
        inputs[i, 0] = BOS_ID
        inputs[i, 1:len(ids) + 1] = ids
        targets[i, :len(ids)] = ids
        targets[i, len(ids)] = EOS_ID
    mask = (targets != PAD_ID).astype(np.float64)

    conditions = np.stack([p.sense_vector for p in pairs])
    cond = _condition_block(model, conditions, [p.headword for p in pairs])
    steps = [concat([gather(model.params["token_emb"], inputs[:, t]), cond], axis=1)
             for t in range(T)]
    zero = Tensor(np.zeros((batch, cfg.hidden)))
    state = [(zero, zero)] * cfg.layers
    tops = []
    for x in steps:
        for layer in range(cfg.layers):
            state[layer] = lstm_step(x, *state[layer], model.params[f"Wx{layer}"],
                                     model.params[f"Wh{layer}"], model.params[f"b{layer}"])
            x = state[layer][0]
        tops.append(x)
    flat_targets = targets.T.reshape(-1)  # time-major to match the concat
    losses = softmax_cross_entropy(concat(tops, axis=0), model.params["Wo"],
                                   model.params["bo"], flat_targets)
    flat_mask = mask.T.reshape(-1)
    n_tokens = int(flat_mask.sum())
    loss = (losses * Tensor(flat_mask)).sum() / float(n_tokens)
    return loss, n_tokens


def ref_sample_definition(model, condition, target_word, temperature=0.1, max_len=60,
                          rng=None, mask_unk=True):
    """Autoregressive temperature sampling of one row; returns content tokens only.

    BOS and PAD can never be emitted; UNK is masked unless mask_unk is off.
    Stops at EOS or after max_len tokens.
    """
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    rng = rng or np.random.default_rng(0)
    cfg = model.config
    condition = np.asarray(condition, dtype=np.float64).reshape(1, cfg.condition_dim)
    cond = _condition_block(model, condition, [target_word]).data
    P = {name: t.data for name, t in model.params.items()}
    hs = [np.zeros((1, cfg.hidden)) for _ in range(cfg.layers)]
    cs = [np.zeros((1, cfg.hidden)) for _ in range(cfg.layers)]
    prev = BOS_ID
    out = []
    n_vocab = len(cfg.vocab)
    for _ in range(max_len):
        x = np.concatenate([P["token_emb"][prev][None, :], cond], axis=1)
        for layer in range(cfg.layers):
            hs[layer], cs[layer], _acts, _tanh_c = ref_lstm_cell(
                x, hs[layer], cs[layer], P[f"Wx{layer}"], P[f"Wh{layer}"], P[f"b{layer}"])
            x = hs[layer]
        logits = (x @ P["Wo"] + P["bo"])[0]
        probs = softmax(logits, temperature)
        probs[BOS_ID] = 0.0
        probs[PAD_ID] = 0.0
        if mask_unk:
            probs[UNK_ID] = 0.0
        probs = probs / probs.sum()
        token_id = int(rng.choice(n_vocab, p=probs))
        if token_id == EOS_ID:
            break
        out.append(cfg.vocab.token(token_id))
        prev = token_id
    return tuple(out)
