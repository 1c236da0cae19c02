"""Multi-sense skip-gram with a truncated stick-breaking prior.

Each word owns up to max_prototypes sense vectors. For every corpus
occurrence, soft responsibilities over senses combine the expected
stick-breaking log prior (digamma expectations of the Beta posteriors)
with the context log-likelihood; gradient updates and prototype counts
are weighted by those responsibilities.

The context likelihood is an exact softmax over the output vocabulary,
O(V) per unique center, which is the right trade-off at desk scale.
A chunk's U unique centers (at most min(V, CHUNK)) share one normalizer
pass: a (U*K x dim) by (dim x V) BLAS matmul gives every score, and two
more of the same size give the expected output vectors and the output
matrix gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from ..errors import ConfigError
from ..textprep import Vocabulary
from .corpus import chunk_ranges, linear_lr, prepare_corpus, run_epochs, scatter_add, window_contexts
from .tables import DEFAULT_PRUNE_THRESHOLD, SenseTable

CHUNK = 1024


@dataclass(frozen=True)
class AdagramConfig:
    dim: int = 300
    window: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 5
    seed: int = 0
    max_prototypes: int = 5
    concentration_alpha: float = 0.1
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD
    threads: int = 1

    def __post_init__(self):
        for name in ("dim", "window", "min_count", "max_prototypes", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.initial_lr <= 0 or self.concentration_alpha <= 0:
            raise ConfigError("initial_lr and concentration_alpha must be positive")


def expected_log_pi(counts: np.ndarray, alpha: float) -> np.ndarray:
    """E[log pi_k] under truncated stick-breaking Beta posteriors.

    counts has shape (..., K); stick k has posterior Beta(1 + n_k,
    alpha + sum_{j>k} n_j) and the last stick takes the remainder.
    """
    counts = np.asarray(counts, dtype=np.float64)
    K = counts.shape[-1]
    tail = np.flip(np.cumsum(np.flip(counts, -1), -1), -1) - counts
    a = 1.0 + counts
    b = alpha + tail
    e_log_beta = digamma(a) - digamma(a + b)
    e_log_rest = digamma(b) - digamma(a + b)
    prefix = np.concatenate(
        [np.zeros_like(e_log_rest[..., :1]), np.cumsum(e_log_rest[..., :-1], -1)], axis=-1
    )
    out = e_log_beta + prefix
    out[..., K - 1] = prefix[..., K - 1]
    return out


def expected_pi(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Expected prototype priors; the last stick absorbs the remainder so
    every row sums to exactly 1."""
    counts = np.asarray(counts, dtype=np.float64)
    tail = np.flip(np.cumsum(np.flip(counts, -1), -1), -1) - counts
    a = 1.0 + counts
    b = alpha + tail
    beta = a / (a + b)
    beta[..., -1] = 1.0
    rest = np.cumprod(1.0 - beta[..., :-1], axis=-1)
    pi = beta.copy()
    pi[..., 1:] *= rest
    return pi


def _train_span(
    ids: np.ndarray,
    span: tuple[int, int],
    In: np.ndarray,
    Out: np.ndarray,
    counts: np.ndarray,
    cfg: AdagramConfig,
    rng: np.random.Generator,
    lr_offset: int,
    lr_total: int,
) -> None:
    K = cfg.max_prototypes
    dim = cfg.dim
    for start, stop in chunk_ranges(span[1] - span[0], CHUNK):
        lo = span[0] + start
        hi = span[0] + stop
        n = hi - lo
        centers = ids[lo:hi]
        ctx, mask = window_contexts(ids, lo, hi, cfg.window, rng)
        lr = linear_lr(cfg.initial_lr, lr_offset + lo, lr_total)

        uniq, inv = np.unique(centers, return_inverse=True)
        in_u = In[uniq]
        in_flat = in_u.reshape(-1, dim)
        # Exact softmax over the output vocabulary in one (U*K, V) buffer:
        # the scores, shifted in place to their exponentials. The products
        # below divide by the normalizer on their (U*K, dim) side, which is
        # cheaper than normalizing the buffer.
        expo = in_flat @ Out.T
        top = expo.max(axis=1, keepdims=True)
        expo -= top
        np.exp(expo, out=expo)
        norm = expo.sum(axis=1, keepdims=True)
        lse = (top + np.log(norm)).reshape(len(uniq), K)
        prior = expected_log_pi(counts[uniq], cfg.concentration_alpha)

        in_n = in_u[inv]
        ctx_vecs = Out[ctx]
        dots = in_n @ ctx_vecs.transpose(0, 2, 1)
        loglik = ((dots - lse[inv][:, :, None]) * mask[:, None, :]).sum(axis=2)
        scores = prior[inv] + loglik
        scores -= scores.max(axis=1, keepdims=True)
        resp = np.exp(scores)
        resp /= resp.sum(axis=1, keepdims=True)

        # One mini-batch step: the mean occurrence gradient keeps the
        # per-row movement bounded regardless of chunk size and vocabulary.
        step = lr / n
        n_ctx = mask.sum(axis=1)
        sum_ctx = (mask[:, None, :] @ ctx_vecs)[:, 0]
        expected_out = (expo @ Out / norm).reshape(len(uniq), K, dim)
        grad_in = step * resp[:, :, None] * (sum_ctx[:, None, :] - n_ctx[:, None, None] * expected_out[inv])
        scatter_add(In, centers, grad_in)

        resp_in = (resp[:, None, :] @ in_n)[:, 0]
        pos_coef = step * mask
        scatter_add(Out, ctx, pos_coef[:, :, None] * resp_in[:, None, :])
        weight = np.zeros((len(uniq), K))
        scatter_add(weight, inv, resp * n_ctx[:, None])
        Out -= step * (expo.T @ (in_flat * (weight.reshape(-1, 1) / norm)))

        scatter_add(counts, centers, resp)


def train_adagram(corpus, cfg: AdagramConfig, vocab: Vocabulary | None = None) -> SenseTable:
    """Train multi-sense embeddings; epochs, threads and seeding follow
    corpus.run_epochs."""
    vocab, words, ids = prepare_corpus(corpus, cfg.min_count, vocab)
    rng = np.random.default_rng(cfg.seed)
    V = len(vocab)
    In = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(V, cfg.max_prototypes, cfg.dim))
    Out = np.zeros((V, cfg.dim))
    counts = np.zeros((V, cfg.max_prototypes))
    run_epochs(ids, cfg, rng, lambda span, r, offset, total: _train_span(
        ids, span, In, Out, counts, cfg, r, offset, total), "adagram")
    table = SenseTable(cfg.dim, cfg.max_prototypes, cfg.prune_threshold)
    word_ids = [vocab.id(word) for word in words]
    priors = expected_pi(counts[word_ids], cfg.concentration_alpha)
    for word, wid, pi in zip(words, word_ids, priors):
        table.add(word, In[wid], pi)
    return table
