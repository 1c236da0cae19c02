"""Shared corpus machinery for the embedding trainers."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import ConfigError
from ..textprep import Vocabulary

NOISE_POWER = 0.75
LR_FLOOR_RATIO = 1e-4


def corpus_to_ids(tokens, vocab: Vocabulary) -> np.ndarray:
    """Map a token stream to vocab ids, dropping out-of-vocabulary tokens."""
    ids = [vocab.id(t) for t in tokens if t in vocab]
    return np.asarray(ids, dtype=np.int64)


class NoiseSampler:
    """Negative sampling from unigram counts raised to the 0.75 power."""

    def __init__(self, vocab: Vocabulary):
        counts = np.array([vocab.count(w) for w in vocab.words()], dtype=np.float64)
        weights = counts ** NOISE_POWER
        total = weights.sum()
        if total == 0:
            raise ConfigError("noise distribution needs at least one counted token")
        self._cdf = np.cumsum(weights / total)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return np.searchsorted(self._cdf, rng.random(shape), side="right")


def dynamic_window_pairs(
    ids: np.ndarray, start: int, stop: int, window: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Skip-gram (center, context) id pairs for center positions [start, stop).

    Each center draws its own width uniformly from 1..window; contexts may
    extend outside the chunk but never outside the corpus.
    """
    n = stop - start
    widths = rng.integers(1, window + 1, size=n)
    centers_list = []
    contexts_list = []
    positions = np.arange(start, stop)
    for offset in range(1, window + 1):
        active = widths >= offset
        left = positions - offset
        ok = active & (left >= 0)
        centers_list.append(positions[ok])
        contexts_list.append(left[ok])
        right = positions + offset
        ok = active & (right < len(ids))
        centers_list.append(positions[ok])
        contexts_list.append(right[ok])
    center_pos = np.concatenate(centers_list)
    context_pos = np.concatenate(contexts_list)
    return ids[center_pos], ids[context_pos]


def scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """In place, table[rows[i]] += values[i] for every i; repeated rows sum.

    rows index the first axis of a table of any rank that reshapes to 2-D
    without a copy (a C-contiguous one does; otherwise this raises), and
    values holds one table row per entry of rows. Only the distinct rows are
    read and written: the sums are one product with a sparse one-hot matrix
    of shape (distinct rows, n), built in CSC form (column i holds a single 1
    at the position of rows[i] among the distinct rows), so the cost is
    O(n log n + n * row size) whatever the table's length.
    """
    rows = np.asarray(rows).reshape(-1)
    n = rows.size
    flat = table.reshape(table.shape[0], -1)
    if flat.size and not np.may_share_memory(flat, table):
        raise ValueError("scatter_add needs a table that reshapes to 2-D without a copy")
    touched, inverse = np.unique(rows, return_inverse=True)
    onehot = sparse.csc_array((np.ones(n), inverse.reshape(-1), np.arange(n + 1)), shape=(touched.size, n))
    flat[touched] += onehot @ np.reshape(values, (n, flat.shape[1]))


def linear_lr(initial_lr: float, processed: int, total: int) -> float:
    """Linear decay from initial_lr with a floor at LR_FLOOR_RATIO of it."""
    frac = processed / max(total, 1)
    return max(initial_lr * (1.0 - frac), initial_lr * LR_FLOOR_RATIO)


def chunk_ranges(n: int, chunk: int):
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Split [0, n) into near-equal contiguous shards for worker threads."""
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(shards) if bounds[i] < bounds[i + 1]]
