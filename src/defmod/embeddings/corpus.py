"""Shared corpus machinery for the embedding trainers."""

from __future__ import annotations

import logging

import numpy as np
from scipy import sparse

from ..errors import ConfigError
from ..textprep import Vocabulary, build_vocab

log = logging.getLogger(__name__)

NOISE_POWER = 0.75
LR_FLOOR_RATIO = 1e-4


def corpus_to_ids(tokens, vocab: Vocabulary) -> np.ndarray:
    """Map a token stream to vocab ids, dropping out-of-vocabulary tokens."""
    ids = [vocab.id(t) for t in tokens if t in vocab]
    return np.asarray(ids, dtype=np.int64)


def prepare_corpus(corpus, min_count: int, vocab: Vocabulary | None = None):
    """(vocab, retained words, corpus ids) for a token stream.

    Without a vocab one is built from the corpus at min_count. Raises
    ConfigError when no word is retained or no token survives the filter.
    """
    tokens = corpus if isinstance(corpus, list) else list(corpus)
    if vocab is None:
        vocab = build_vocab(tokens, min_count=min_count)
    words = vocab.words()[4:]
    if not words:
        raise ConfigError("corpus has no words above min_count")
    ids = corpus_to_ids(tokens, vocab)
    if ids.size == 0:
        raise ConfigError("corpus is empty after vocabulary filtering")
    return vocab, words, ids


class NoiseSampler:
    """Negative sampling from unigram counts raised to the 0.75 power."""

    def __init__(self, vocab: Vocabulary):
        counts = np.array([vocab.count(w) for w in vocab.words()], dtype=np.float64)
        self._cdf = np.cumsum(counts ** NOISE_POWER)
        if self._cdf[-1] == 0:
            raise ConfigError("noise distribution needs at least one counted token")
        # Normalised by its own last entry, so it ends at exactly 1.0 and no
        # draw from [0, 1) lands past the last word.
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return np.searchsorted(self._cdf, rng.random(shape), side="right")


def window_contexts(
    ids: np.ndarray, start: int, stop: int, window: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Context ids (n, 2*window) of the centers at positions [start, stop),
    with a boolean mask of the valid slots.

    Each center draws its own width uniformly from 1..window. Columns 2k and
    2k + 1 hold the tokens k + 1 places to the left and to the right;
    contexts may extend outside the chunk but never outside the corpus, and
    masked slots hold id 0. Read column by column (ctx.T[mask.T]) the valid
    slots are skip-gram pairs ordered by offset, left before right, then by
    position.
    """
    widths = rng.integers(1, window + 1, size=stop - start)
    offsets = np.repeat(np.arange(1, window + 1), 2)
    offsets[::2] *= -1
    pos = np.arange(start, stop)[:, None] + offsets
    mask = (widths[:, None] >= np.abs(offsets)) & (pos >= 0) & (pos < ids.size)
    ctx = np.where(mask, ids.take(pos, mode="clip"), 0)
    return ctx, mask


def incidence(rows: np.ndarray, n_rows: int, ids: np.ndarray, values=None):
    """(distinct ids, their counts, M) for entries i given as (rows[i], ids[i]).

    M is a sparse COO array of shape (n_rows, distinct ids) whose entry
    [r, j] sums values[i] (1 when values is None) over the entries with
    rows[i] == r and ids[i] == distinct[j]; its products with dense arrays
    add the entries in their given order. The trainers read the distinct
    rows of a table once, multiply them through M or M.T, and write the
    sums back to those rows only. ids are nonnegative, and the cost is
    O(entries + largest id); with no entries M has zero columns.
    """
    ids = np.reshape(ids, -1)
    counts = np.bincount(ids)
    distinct = np.flatnonzero(counts)
    cols = np.cumsum(counts > 0)[ids] - 1
    values = np.ones(ids.size) if values is None else np.reshape(values, -1)
    matrix = sparse.coo_array((values, (np.reshape(rows, -1), cols)), shape=(n_rows, distinct.size))
    return distinct, counts[distinct], matrix


def linear_lr(initial_lr: float, processed: int, total: int) -> float:
    """Linear decay from initial_lr with a floor at LR_FLOOR_RATIO of it."""
    frac = processed / max(total, 1)
    return max(initial_lr * (1.0 - frac), initial_lr * LR_FLOOR_RATIO)


def run_epochs(ids: np.ndarray, cfg, train_epoch, name: str) -> None:
    """Run cfg.epochs passes of train_epoch(lr_offset, lr_total), logging each.

    The learning rate decays linearly over all epochs' tokens. Each pass
    streams the whole corpus through the trainer's one rng, so runs are
    bit-reproducible for a fixed seed.
    """
    total = max(cfg.epochs * ids.size, 1)
    for epoch in range(cfg.epochs):
        train_epoch(epoch * ids.size, total)
        log.info("%s epoch %d/%d done", name, epoch + 1, cfg.epochs)
