"""Reference implementations that only the tests use, as oracles.

The fused LSTM cell, char-CNN and output-layer cross-entropy in
`defmod.neural` must match a graph built from the unfused one-op nodes
below bit for bit. The package itself never builds such a graph, so the
ops live here rather than in `defmod.neural`. `ref_sample_definition` is
the single-row sampler that `defgen.sample_definition` must reproduce at
batch 1.
"""

import numpy as np

from defmod.defgen import _condition_block
from defmod.errors import ConfigError, ShapeError
from defmod.neural import Tensor, lstm_cell, softmax, stable_sigmoid
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
            hs[layer], cs[layer], _acts, _tanh_c = lstm_cell(
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
