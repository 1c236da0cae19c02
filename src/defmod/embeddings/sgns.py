"""Skip-gram with negative sampling over a tokenized corpus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..neural import stable_sigmoid
from ..textprep import Vocabulary
from .corpus import NoiseSampler, incidence, linear_lr, prepare_corpus, run_epochs, window_contexts
from .tables import EmbeddingTable

# Centers per vectorized update; small enough to keep batches near-online.
CHUNK = 512


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 300
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "min_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.initial_lr <= 0:
            raise ConfigError("initial_lr must be positive")


def _train_span(
    ids: np.ndarray,
    W_in: np.ndarray,
    W_out: np.ndarray,
    sampler: NoiseSampler,
    cfg: SgnsConfig,
    rng: np.random.Generator,
    lr_offset: int,
    lr_total: int,
) -> None:
    """Run one epoch's updates over the corpus, CHUNK centers at a time."""
    for lo in range(0, ids.size, CHUNK):
        hi = min(lo + CHUNK, ids.size)
        ctx, mask = window_contexts(ids, lo, hi, cfg.window, rng)
        # Column by column: pairs ordered by offset, then by position.
        contexts = ctx.T[mask.T]
        centers = np.broadcast_to(ids[lo:hi], mask.T.shape)[mask.T]
        lr = linear_lr(cfg.initial_lr, lr_offset + lo, lr_total)
        negatives = sampler.sample(rng, (centers.size, cfg.negatives))
        out_ids = np.concatenate([contexts[:, None], negatives], axis=1)
        labels = np.zeros((centers.size, 1 + cfg.negatives))
        labels[:, 0] = 1.0
        scores = (W_out[out_ids] @ W_in[centers][:, :, None])[:, :, 0]
        coef = (labels - stable_sigmoid(scores)) * lr
        # G sums the coefficients of each (center, output) pair, so both
        # gradients are one product with the chunk-start vectors. Updates
        # inside a chunk share those stale vectors; averaging each row's
        # gradient over its in-chunk occurrences keeps the step bounded.
        uc, inv, center_counts = np.unique(centers, return_inverse=True, return_counts=True)
        uo, out_counts, G = incidence(np.repeat(inv, out_ids.shape[1]), uc.size, out_ids, coef)
        vin, vout = W_in[uc], W_out[uo]
        W_in[uc] += (G @ vout) / center_counts[:, None]
        W_out[uo] += (G.T @ vin) / out_counts[:, None]


def train_sgns(corpus, cfg: SgnsConfig, vocab: Vocabulary | None = None) -> EmbeddingTable:
    """Train single-sense embeddings; returns one vector per retained word.

    Epochs and seeding follow corpus.run_epochs.
    """
    vocab, words, ids = prepare_corpus(corpus, cfg.min_count, vocab)
    rng = np.random.default_rng(cfg.seed)
    V = len(vocab)
    W_in = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(V, cfg.dim))
    W_out = np.zeros((V, cfg.dim))
    sampler = NoiseSampler(vocab)
    run_epochs(ids, cfg, lambda offset, total: _train_span(
        ids, W_in, W_out, sampler, cfg, rng, offset, total), "sgns")
    keep = [vocab.id(w) for w in words]
    return EmbeddingTable(cfg.dim, words, W_in[keep])
