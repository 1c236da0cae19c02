"""Conditioned definition language model: training, sampling, checkpoints.

A stacked LSTM (two layers by default) predicts definition tokens left to
right. At every step the input is the previous token's embedding
concatenated with a learned projection of the conditioning block (sense or
word vector plus character CNN features of the headword). Single-sense and multi-sense variants share
all machinery and differ only in the conditioning vectors handed in.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .embeddings import EmbeddingTable, SenseTable
from .errors import CheckpointError, ConfigError, NonFiniteError, ShapeError
from .fileio import atomic_write
from .matcher import SenseDefPair
from .neural import (
    CHAR_EMBEDDING_DIM,
    CHAR_FEATURE_DIM,
    CNN_KERNELS,
    Tensor,
    adam_step,
    char_cnn_forward,
    clip_global_norm,
    flat_buffer,
    flat_views,
    init_adam,
    lstm_cell,
    softmax,
    softmax_cross_entropy,
)
from .neural.layers import INIT_SCALE
from .neural.tensor import RowGrad, _as_array, add_at_rows, set_grads
# perfbench's tracer wraps the layer op where `batch_nll` looks it up, as
# `defgen.lstm_step`, so it keeps that name here.
from .neural import lstm_layer as lstm_step
from .textprep import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary, count_tokens

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PDEF1"
CLIP_NORM = 5.0
# Rows `sample_definition` steps together. Fixed, not a setting: BLAS rounding
# can depend on which rows share a block, and outputs must depend only on the
# inputs and the seeds.
SAMPLE_BLOCK_ROWS = 64
# Pairs per batch when `dataset_nll` scores a pair list.
EVAL_BATCH_SIZE = 64


@dataclass(frozen=True, eq=False)
class DefModelConfig:
    """Shapes and training hyperparameters of the definition model."""

    vocab: Vocabulary
    char_vocab: Vocabulary
    condition_dim: int
    hidden: int = 300
    layers: int = 2
    token_embedding_dim: int = 300
    max_def_len: int = 60
    lr: float = 0.001
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if len(self.vocab) < 5 or len(self.char_vocab) < 5:
            raise ConfigError("vocabularies must contain at least one real symbol")
        for name in ("condition_dim", "hidden", "layers", "token_embedding_dim",
                     "max_def_len", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


@dataclass(eq=False)
class DefModel:
    """Config plus the named parameter tensors."""

    config: DefModelConfig
    params: dict[str, Tensor]


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch mean NLL per token, on train and dev, plus stopping info.

    `grad_norms` holds each epoch's mean global gradient norm before
    clipping, and `clip_rates` the share of its steps that were clipped.
    """

    train_losses: tuple[float, ...]
    dev_losses: tuple[float, ...]
    best_epoch: int
    stopped_early: bool
    grad_norms: tuple[float, ...] = ()
    clip_rates: tuple[float, ...] = ()


@dataclass(frozen=True)
class GenConfig:
    """Sampling controls; UNK masking is on unless disabled."""

    temperature: float = 0.1
    max_len: int = 60
    mask_unk: bool = True

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.max_len < 1:
            raise ConfigError("max_len must be positive")


# Every DefModelConfig field but the vocabularies; the checkpoint header
# echoes these and `load_checkpoint` rebuilds the config from them.
HYPERPARAMETERS = tuple(f.name for f in fields(DefModelConfig)
                        if f.name not in ("vocab", "char_vocab"))


def build_char_vocab(words: Iterable[str]) -> Vocabulary:
    """Character-level vocabulary over the given headwords."""
    return Vocabulary(dict(count_tokens(ch for word in words for ch in word)))


def init_model(cfg: DefModelConfig) -> DefModel:
    """Fresh parameters, deterministic in cfg.seed, as views of one flat
    buffer (`flat_views`).

    Walks `parameter_shapes` in order: every matrix is drawn uniformly and
    every vector starts at zero, except that each LSTM layer's forget-gate
    bias (gate order [input, forget, candidate, output]) starts at +1 so
    early training does not wash out state.
    """
    rng = np.random.default_rng(cfg.seed)
    lstm_biases = {f"b{layer}" for layer in range(cfg.layers)}
    # From np.empty, not np.zeros: every entry is written below, and in a
    # loop of set-ups np.zeros faulted fresh pages in for each new model
    # where np.empty reused the memory of the last.
    views = flat_views(parameter_shapes(cfg), np.empty)
    for name, data in views.items():
        if data.ndim == 2:
            data[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=data.shape)
        else:
            data.fill(0.0)
            if name in lstm_biases:
                data[cfg.hidden:2 * cfg.hidden] = 1.0
    return DefModel(cfg, {name: Tensor(data, requires_grad=True) for name, data in views.items()})


def parameter_shapes(cfg: DefModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in the order `init_model` draws them
    and lays them out in the flat buffer.

    Token embeddings and character embeddings first (the two tables whose
    gradients are row-form), character CNN, condition projection (condition vector
    plus char features down to the token embedding width), stacked LSTM,
    output projection.
    """
    vocab, emb, hidden = len(cfg.vocab), cfg.token_embedding_dim, cfg.hidden
    shapes = {"token_emb": (vocab, emb), "char_emb": (len(cfg.char_vocab), CHAR_EMBEDDING_DIM)}
    for length, size in CNN_KERNELS:
        shapes[f"K{length}"] = (length * CHAR_EMBEDDING_DIM, size)
        shapes[f"Kb{length}"] = (size,)
    shapes["Wc"] = (cfg.condition_dim + CHAR_FEATURE_DIM, emb)
    shapes["bc"] = (emb,)
    for layer in range(cfg.layers):
        shapes[f"Wx{layer}"] = (2 * emb if layer == 0 else hidden, 4 * hidden)
        shapes[f"Wh{layer}"] = (hidden, 4 * hidden)
        shapes[f"b{layer}"] = (4 * hidden,)
    shapes["Wo"] = (hidden, vocab)
    shapes["bo"] = (vocab,)
    return shapes


def word_char_ids(word: str, char_vocab: Vocabulary) -> list[int]:
    return [char_vocab.id(ch) for ch in word]


def _condition_block(model: DefModel, conditions: np.ndarray,
                     words: list[str]) -> tuple[np.ndarray, Callable]:
    """Project [condition ; char features] rows to the token embedding width.

    Returns the (B, emb) rows and their backward, which takes their gradient
    and writes those of `bc`, `Wc` and the char-CNN's parameters.
    """
    P = model.params
    distinct = {w: row for row, w in enumerate(dict.fromkeys(words))}
    word_rows = np.array([distinct[w] for w in words])
    # One char-CNN call over the distinct headwords; pairs that share one share its row.
    feats, cnn_backward = char_cnn_forward(
        P, [word_char_ids(w, model.config.char_vocab) for w in distinct], PAD_ID)
    block = np.concatenate([_as_array(conditions), feats[word_rows]], axis=1)
    cond = block @ P["Wc"].data + P["bc"].data

    def backward(d_cond):
        set_grads(block, d_cond, P["Wc"], P["bc"])
        d_feats = np.zeros_like(feats)
        add_at_rows(d_feats, word_rows, (d_cond @ P["Wc"].data.T)[:, conditions.shape[1]:])
        cnn_backward(d_feats)

    return cond, backward


def batch_nll(model: DefModel, pairs: list[SenseDefPair]) -> tuple[Tensor, int]:
    """Teacher-forced mean NLL per token over a batch of pairs.

    Definitions are BOS-prefixed and EOS-terminated; shorter sequences are
    padded. Rows are time-major (step t holds rows t*B .. t*B + B - 1), and
    the loss is taken on the real (non-PAD) target rows only. Returns the
    scalar loss and the number of real target tokens it averages. The loss
    is one node whose parents are the parameters. Its backward runs the
    fused ops' backwards in reverse, over plain arrays, and gives every
    parameter exactly one gradient: the two embedding tables a RowGrad
    each, every other parameter one product or sum, formed in its
    `grad_view` when it has one.
    """
    if not pairs:
        raise ConfigError("batch_nll needs at least one pair")
    cfg, P = model.config, model.params
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

    conditions = np.stack([p.sense_vector for p in pairs])
    cond, cond_backward = _condition_block(model, conditions, [p.headword for p in pairs])
    token_ids, cond_rows = inputs.T.reshape(-1), np.tile(np.arange(batch), T)
    x = np.concatenate([P["token_emb"].data[token_ids], cond[cond_rows]], axis=1)
    layer_backwards = []
    for layer in range(cfg.layers):
        x, layer_backward = lstm_step(x, P[f"Wx{layer}"], P[f"Wh{layer}"], P[f"b{layer}"], T)
        layer_backwards.append(layer_backward)
    flat_targets = targets.T.reshape(-1)
    real = np.flatnonzero(flat_targets != PAD_ID)
    losses, loss_backward = softmax_cross_entropy(x[real], P["Wo"], P["bo"], flat_targets[real])
    n_tokens = len(real)
    loss = Tensor(losses.sum() * (1.0 / n_tokens), parents=tuple(P.values()))

    def backward(g):
        d_x = np.zeros_like(x)
        add_at_rows(d_x, real, loss_backward(np.full(n_tokens, g * (1.0 / n_tokens))))
        for layer_backward in reversed(layer_backwards):
            d_x = layer_backward(d_x)
        emb = cfg.token_embedding_dim
        P["token_emb"].grad = RowGrad(token_ids, d_x[:, :emb])
        d_cond = np.zeros_like(cond)
        add_at_rows(d_cond, cond_rows, d_x[:, emb:])
        cond_backward(d_cond)

    loss._backward = backward
    return loss, n_tokens


def _snapshot(params: dict[str, Tensor]) -> np.ndarray:
    return flat_buffer(params).copy()


def _restore(params: dict[str, Tensor], snapshot: np.ndarray) -> None:
    np.copyto(flat_buffer(params), snapshot)


def dataset_nll(model: DefModel, pairs: list[SenseDefPair]) -> float:
    """Mean NLL per token over a pair list, no parameter updates."""
    total, tokens = 0.0, 0
    for start in range(0, len(pairs), EVAL_BATCH_SIZE):
        loss, n = batch_nll(model, pairs[start:start + EVAL_BATCH_SIZE])
        total += loss.item() * n
        tokens += n
        del loss  # frees the batch's (tokens, V) buffer before the next forward
    return total / tokens


@contextmanager
def _diverged(where: str) -> Iterator[None]:
    """Silence numpy's overflow warnings around a training computation, and
    name `where` in the NonFiniteError raised when a value leaves the finite
    range there."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"training diverged at {where}: {exc}; "
                             "a smaller learning rate may help") from None


def train_defmodel(
    model: DefModel,
    pairs: list[SenseDefPair],
    dev_pairs: list[SenseDefPair] | None = None,
) -> tuple[DefModel, TrainReport]:
    """Mini-batch Adam on mean NLL with best-dev retention.

    Hyperparameters come from model.config; shuffling is fixed by its seed.
    Dev NLL is evaluated every epoch (on the training pairs when dev_pairs
    is None; an empty dev list is an error); the parameters of the best dev
    epoch are restored before returning. Stops once `patience` epochs pass
    without a new best, or at max_epochs. Each epoch logs one INFO line with
    train and dev NLL, the mean gradient norm, the clip rate and tokens/s. A
    value that leaves the finite range raises NonFiniteError naming the
    epoch and the step.
    """
    cfg = model.config
    if not pairs:
        raise ConfigError("train_defmodel needs at least one training pair")
    if dev_pairs is None:
        dev_pairs = pairs
    elif not dev_pairs:
        raise ConfigError("train_defmodel needs at least one dev pair; pass None for no dev list")
    rng = np.random.default_rng(cfg.seed)
    state = init_adam(model.params, lr=cfg.lr)
    order = np.arange(len(pairs))
    train_losses: list[float] = []
    dev_losses: list[float] = []
    grad_norms: list[float] = []
    clip_rates: list[float] = []
    best_dev = np.inf
    best_params: np.ndarray | None = None
    best_epoch = 0
    stopped_early = False
    try:
        for epoch in range(cfg.max_epochs):
            rng.shuffle(order)
            total, tokens = 0.0, 0
            norms: list[float] = []
            started = time.perf_counter()
            for step, start in enumerate(range(0, len(order), cfg.batch_size), 1):
                batch = [pairs[i] for i in order[start:start + cfg.batch_size]]
                with _diverged(f"epoch {epoch + 1}, step {step}"):
                    for p in model.params.values():
                        p.zero_grad()
                    loss, n = batch_nll(model, batch)
                    loss.backward()
                    # Drop the loss, and with it its backward's (tokens, V)
                    # buffer, before clip, Adam and the next step's forward.
                    loss = loss.item()
                    # The token table's gradient stays in row form: clip and Adam
                    # touch only the rows that a step or an earlier one reached.
                    grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
                    grads, norm = clip_global_norm(grads, CLIP_NORM)
                    # An infinite norm would scale every gradient to NaN.
                    if not math.isfinite(norm):
                        raise NonFiniteError(f"gradient norm is {norm}")
                    adam_step(model.params, grads, state)
                norms.append(norm)
                total += loss * n
                tokens += n
            seconds = time.perf_counter() - started
            train_losses.append(total / tokens)
            grad_norms.append(float(np.mean(norms)))
            clip_rates.append(sum(norm > CLIP_NORM for norm in norms) / len(norms))
            with _diverged(f"epoch {epoch + 1}, in the dev pass after step {step}"):
                dev_loss = dataset_nll(model, dev_pairs)
            dev_losses.append(dev_loss)
            log.info("epoch %d/%d: train nll %.4f, dev nll %.4f, grad norm %.3f, "
                     "clip rate %.2f, %.0f tokens/s", epoch + 1, cfg.max_epochs,
                     train_losses[-1], dev_loss, grad_norms[-1], clip_rates[-1],
                     tokens / max(seconds, 1e-9))
            if not np.isfinite(dev_loss):
                raise ConfigError(f"dev NLL is not finite after epoch {epoch + 1}: {dev_loss}")
            if dev_loss < best_dev:
                best_dev = dev_loss
                best_epoch = epoch
                # After the last epoch the live parameters are the best ones.
                if epoch + 1 < cfg.max_epochs:
                    best_params = _snapshot(model.params)
            elif epoch - best_epoch >= cfg.patience:
                stopped_early = True
                break
    finally:
        # Unhook the gradient buffer, so that no gradient outlives training.
        for p in model.params.values():
            p.grad = p.grad_view = None
    if best_epoch != len(dev_losses) - 1:
        _restore(model.params, best_params)
    return model, TrainReport(tuple(train_losses), tuple(dev_losses), best_epoch,
                              stopped_early, tuple(grad_norms), tuple(clip_rates))


def sample_definition(
    model: DefModel,
    conditions: np.ndarray,
    words: list[str],
    cfg: GenConfig,
    rngs: list[np.random.Generator],
) -> list[tuple[str, ...]]:
    """Autoregressive temperature sampling, one definition per row.

    Row i is conditioned on conditions[i] and headword words[i], and draws
    from rngs[i] alone: one `random()` per token, mapped through the row's
    cumulative distribution exactly as `Generator.choice(p=...)` maps it.
    BOS and PAD are never emitted, nor UNK when `cfg.mask_unk` is set; a row
    stops at EOS or after `cfg.max_len` tokens. Rows step together in blocks
    of SAMPLE_BLOCK_ROWS cut in input order, so the output depends only on
    the inputs and the generators' states. Returns content tokens only, and
    raises NonFiniteError when an LSTM layer's gates or a row's
    probabilities are not finite.
    """
    conditions = np.asarray(conditions, dtype=np.float64)
    if conditions.ndim != 2 or conditions.shape[1] != model.config.condition_dim:
        raise ShapeError(f"conditions shape {conditions.shape} does not match config")
    if not len(words) == len(rngs) == len(conditions):
        raise ShapeError(f"{len(conditions)} conditions, {len(words)} words and "
                         f"{len(rngs)} generators: need one of each per row")
    out: list[tuple[str, ...]] = []
    for start in range(0, len(words), SAMPLE_BLOCK_ROWS):
        block = slice(start, start + SAMPLE_BLOCK_ROWS)
        out.extend(_sample_block(model, conditions[block], words[block], cfg, rngs[block]))
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflows are raised below
def _sample_block(model: DefModel, conditions: np.ndarray, words: list[str],
                  cfg: GenConfig, rngs: list[np.random.Generator]) -> list[tuple[str, ...]]:
    mcfg = model.config
    P = {name: t.data for name, t in model.params.items()}
    cond, _ = _condition_block(model, conditions, words)
    masked = [BOS_ID, PAD_ID, UNK_ID] if cfg.mask_unk else [BOS_ID, PAD_ID]
    active = np.arange(len(words))  # block rows still sampling
    hs = [np.zeros((len(words), mcfg.hidden)) for _ in range(mcfg.layers)]
    cs = [np.zeros((len(words), mcfg.hidden)) for _ in range(mcfg.layers)]
    prev = np.full(len(words), BOS_ID)
    out: list[list[str]] = [[] for _ in words]
    for _ in range(cfg.max_len):
        x = np.concatenate([P["token_emb"][prev], cond[active]], axis=1)
        for layer in range(mcfg.layers):
            try:
                hs[layer], cs[layer], _acts, _tanh_c = lstm_cell(
                    x @ P[f"Wx{layer}"], hs[layer], cs[layer], P[f"Wh{layer}"], P[f"b{layer}"])
            except NonFiniteError as exc:
                raise NonFiniteError(f"sampling overflowed in LSTM layer {layer}: {exc}") from None
            x = hs[layer]
        logits = x @ P["Wo"]
        logits += P["bo"]
        if not np.isfinite(logits).all():
            raise NonFiniteError("sampling probabilities are not finite: non-finite logits")
        probs = softmax(logits, cfg.temperature)
        probs[:, masked] = 0.0
        total = probs.sum(axis=1, keepdims=True)
        if not (total > 0.0).all():
            # NaN where logits / temperature overflowed, 0 where masking took all the mass.
            cause = (f"the logits overflow when divided by the temperature {cfg.temperature}"
                     if np.isnan(total).any() else "masking left a row with no probability mass")
            raise NonFiniteError(f"sampling probabilities are not finite: {cause}")
        probs /= total
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        tokens = np.array([np.searchsorted(row_cdf, rngs[row].random(), side="right")
                           for row, row_cdf in zip(active, cdf)])
        going = tokens != EOS_ID
        active, prev = active[going], tokens[going]
        for row, token_id in zip(active, prev):
            out[row].append(mcfg.vocab.token(int(token_id)))
        if not active.size:
            break
        hs = [h[going] for h in hs]
        cs = [c[going] for c in cs]
    return [tuple(tokens) for tokens in out]


def _sense_conditions(word: str, source: SenseTable | EmbeddingTable) -> list[np.ndarray]:
    """One condition vector per retained sense (one total for a word table)."""
    return [vec for _k, vec, _p in source.senses(word)]


def generate_for_word(
    model: DefModel,
    word: str,
    source: SenseTable | EmbeddingTable,
    cfg: GenConfig,
    rng: np.random.Generator,
) -> list[tuple[int, tuple[str, ...]]]:
    """One definition per retained sense (or one total for a word table).

    Sense k draws from `rng.spawn(K)[k]`, K being the word's sense count.
    """
    conditions = _sense_conditions(word, source)
    definitions = sample_definition(model, np.stack(conditions), [word] * len(conditions),
                                    cfg, rng.spawn(len(conditions)))
    return list(enumerate(definitions))


def generate_seeded(
    model: DefModel,
    words: list[str],
    source: SenseTable | EmbeddingTable,
    cfg: GenConfig,
    seeds: list[int],
) -> list[list[list[tuple[str, ...]]]]:
    """Definitions for every sense of every word, once per seed, in one call.

    Returns out[s][i][k], sense k of words[i] under seeds[s]; that row draws
    from the stream `default_rng([seeds[s], i, k])`. Rows are sampled in
    (seed, word, sense) order.
    """
    conditions = [_sense_conditions(word, source) for word in words]
    rows = [(s, i, k) for s in range(len(seeds))
            for i, word_conditions in enumerate(conditions)
            for k in range(len(word_conditions))]
    stacked = (np.stack([conditions[i][k] for _s, i, k in rows]) if rows
               else np.empty((0, model.config.condition_dim)))
    definitions = sample_definition(
        model, stacked, [words[i] for _s, i, _k in rows], cfg,
        [np.random.default_rng([seeds[s], i, k]) for s, i, k in rows])
    out: list[list[list[tuple[str, ...]]]] = [[[] for _ in words] for _ in seeds]
    for (s, i, _k), tokens in zip(rows, definitions):
        out[s][i].append(tokens)
    return out


def save_generated(rows: list[tuple[str, int, tuple[str, ...]]], path: str | Path) -> None:
    """TSV: headword, sense index, space-joined generated definition."""
    with atomic_write(path) as f:
        for headword, sense_index, tokens in rows:
            f.write(f"{headword}\t{sense_index}\t{' '.join(tokens)}\n")


def _config_payload(cfg: DefModelConfig) -> bytes:
    echo = {name: getattr(cfg, name) for name in HYPERPARAMETERS}
    echo["char_feature_dim"] = CHAR_FEATURE_DIM
    echo["vocab_digest"] = cfg.vocab.digest()
    echo["char_vocab_digest"] = cfg.char_vocab.digest()
    return json.dumps(echo, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(model: DefModel, path: str | Path) -> None:
    """Binary container: magic, canonical JSON config echo, named tensors.

    Written atomically, so a failed save leaves any earlier checkpoint intact.
    """
    payload = _config_payload(model.config)
    with atomic_write(path, binary=True) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        f.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            data = model.params[name].data
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.astype("<f8").tobytes())


def load_checkpoint(path: str | Path, vocab: Vocabulary,
                    char_vocab: Vocabulary) -> DefModel:
    """Rebuild a model, refusing when the vocabularies do not match.

    The parameters are views of one flat buffer, as `init_model` lays them
    out, and each tensor is read straight from the file into its view.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size

            def take(n: int) -> bytes:
                piece = f.read(n)
                if len(piece) != n:
                    raise CheckpointError(f"{path}: truncated checkpoint")
                return piece

            if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                raise CheckpointError(f"{path}: bad magic, not a model checkpoint")
            (config_len,) = struct.unpack("<I", take(4))
            echo = json.loads(take(config_len).decode("utf-8"))
            if echo["vocab_digest"] != vocab.digest():
                raise CheckpointError(f"{path}: token vocabulary digest mismatch")
            if echo["char_vocab_digest"] != char_vocab.digest():
                raise CheckpointError(f"{path}: character vocabulary digest mismatch")
            if echo["char_feature_dim"] != CHAR_FEATURE_DIM:
                raise CheckpointError(f"{path}: char_feature_dim {echo['char_feature_dim']} in "
                                      f"the checkpoint, the kernel set gives {CHAR_FEATURE_DIM}")
            cfg = DefModelConfig(vocab, char_vocab,
                                 **{name: echo[name] for name in HYPERPARAMETERS})
            expected = parameter_shapes(cfg)
            # Sized against the bytes left before allocating, so a corrupt
            # config cannot ask for more memory than the file holds.
            if 8 * sum(math.prod(shape) for shape in expected.values()) > size - f.tell():
                raise CheckpointError(f"{path}: truncated checkpoint")
            views = flat_views(expected, partial(np.empty, dtype="<f8"))
            (n_tensors,) = struct.unpack("<I", take(4))
            read: set[str] = set()
            for _ in range(n_tensors):
                (name_len,) = struct.unpack("<H", take(2))
                name = take(name_len).decode("utf-8")
                (ndim,) = struct.unpack("<B", take(1))
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
                if name not in expected or name in read:
                    raise CheckpointError(f"{path}: tensor names do not match the architecture")
                if shape != expected[name]:
                    raise CheckpointError(f"{path}: tensor {name} has shape {shape}, "
                                          f"the config needs {expected[name]}")
                if 8 * math.prod(shape) > size - f.tell():
                    raise CheckpointError(f"{path}: truncated checkpoint")
                f.readinto(views[name])
                read.add(name)
            if read != set(expected):
                raise CheckpointError(f"{path}: tensor names do not match the architecture")
            if f.tell() != size:
                raise CheckpointError(f"{path}: trailing bytes after tensors")
            params = {name: Tensor(data, requires_grad=True) for name, data in views.items()}
    except CheckpointError:
        raise
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc
    return DefModel(cfg, params)
