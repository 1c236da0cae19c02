"""Multi-sense skip-gram with a truncated stick-breaking prior.

Each word owns up to max_prototypes sense vectors. For every corpus
occurrence, soft responsibilities over senses combine the expected
stick-breaking log prior (digamma expectations of the Beta posteriors)
with the context log-likelihood; gradient updates and prototype counts
are weighted by those responsibilities.

The context likelihood is an exact softmax over the output vocabulary,
O(V) per unique center, which is the right trade-off at desk scale. A
chunk's U unique centers (at most min(V, CHUNK)) are scored in blocks of
whole centers, about BLOCK of their U*K sense rows at a time, in one
reused (rows, V) buffer: a BLAS matmul gives a block's scores, and two
more give its expected output vectors and its share of the output matrix
gradient. A chunk still takes O(CHUNK * V) time, but only O(BLOCK * V)
memory.

The context side is one product with C, a sparse (occurrences x distinct
context words) count matrix from corpus.incidence: C @ Out sums each
occurrence's context vectors, and C.T carries the positive output
gradient back to those words' rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from ..errors import ConfigError
from ..neural import softmax
from ..textprep import Vocabulary
from .corpus import incidence, linear_lr, prepare_corpus, run_epochs, window_contexts
from .tables import DEFAULT_PRUNE_THRESHOLD, SenseTable

CHUNK = 1024
# Sense rows of the softmax buffer per block, rounded down to whole centers.
BLOCK = 128


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

    def __post_init__(self):
        for name in ("dim", "window", "min_count", "max_prototypes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.initial_lr <= 0 or self.concentration_alpha <= 0:
            raise ConfigError("initial_lr and concentration_alpha must be positive")


def _stick_posteriors(counts: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the Beta posteriors: counts has shape (..., K), and stick k
    has posterior Beta(1 + n_k, alpha + sum_{j>k} n_j)."""
    counts = np.asarray(counts, dtype=np.float64)
    tail = np.flip(np.cumsum(np.flip(counts, -1), -1), -1) - counts
    return 1.0 + counts, alpha + tail


def expected_log_pi(counts: np.ndarray, alpha: float) -> np.ndarray:
    """E[log pi_k] under truncated stick-breaking Beta posteriors; the last
    stick takes the remainder."""
    a, b = _stick_posteriors(counts, alpha)
    e_log_beta = digamma(a) - digamma(a + b)
    e_log_rest = digamma(b) - digamma(a + b)
    prefix = np.concatenate(
        [np.zeros_like(e_log_rest[..., :1]), np.cumsum(e_log_rest[..., :-1], -1)], axis=-1
    )
    out = e_log_beta + prefix
    out[..., -1] = prefix[..., -1]
    return out


def expected_pi(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Expected prototype priors; the last stick absorbs the remainder so
    every row sums to exactly 1."""
    a, b = _stick_posteriors(counts, alpha)
    beta = a / (a + b)
    beta[..., -1] = 1.0
    rest = np.cumprod(1.0 - beta[..., :-1], axis=-1)
    pi = beta.copy()
    pi[..., 1:] *= rest
    return pi


def _train_span(
    ids: np.ndarray,
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
    per_block = max(1, BLOCK // K)
    buf = np.empty((per_block * K, Out.shape[0]))
    neg = np.empty_like(Out)
    part = np.empty_like(Out)
    for lo in range(0, ids.size, CHUNK):
        hi = min(lo + CHUNK, ids.size)
        n = hi - lo
        ctx, mask = window_contexts(ids, lo, hi, cfg.window, rng)
        lr = linear_lr(cfg.initial_lr, lr_offset + lo, lr_total)

        # Occurrences sorted stably by center: center u owns the rows
        # seg[u]:seg[u + 1] in corpus order, and row i of the (n, K) arrays
        # below belongs to sense rows sense[i] of in_flat.
        order = np.argsort(ids[lo:hi], kind="stable")
        uniq, seg, occ = np.unique(ids[lo:hi][order], return_index=True, return_counts=True)
        seg = np.append(seg, n)
        owner = np.repeat(np.arange(len(uniq)), occ)
        sense = owner[:, None] * K + np.arange(K)
        ctx, mask = ctx[order], mask[order]
        n_ctx = mask.sum(axis=1)
        # C counts each distinct context word uc[j] in occurrence i's
        # window, so the summed context dots of a sense are in . sum_ctx.
        uc, _, C = incidence(np.repeat(np.arange(n), n_ctx), n, ctx[mask])
        sum_ctx = C @ Out[uc]
        in_flat = In[uniq].reshape(-1, dim)
        fit = (in_flat[sense] @ sum_ctx[:, :, None])[:, :, 0]
        fit += expected_log_pi(counts[uniq], cfg.concentration_alpha)[owner]

        # Exact softmax over the output vocabulary, whole centers at a time
        # in one reused (rows, V) buffer: the scores, shifted in place to
        # their exponentials. The products divide by the normalizer on
        # their (rows, dim) side, which is cheaper than normalizing the
        # buffer. Each block takes its occurrences' responsibilities and
        # its share of the negative Out gradient before the next block
        # overwrites the buffer.
        resp = np.empty((n, K))
        weight = np.empty((len(uniq), K))
        expected_out = np.empty_like(in_flat)
        neg.fill(0.0)
        for u0 in range(0, len(uniq), per_block):
            u1 = min(u0 + per_block, len(uniq))
            r0, r1, o0, o1 = u0 * K, u1 * K, seg[u0], seg[u1]
            expo = np.matmul(in_flat[r0:r1], Out.T, out=buf[: r1 - r0])
            top = expo.max(axis=1, keepdims=True)
            expo -= top
            np.exp(expo, out=expo)
            norm = expo.sum(axis=1, keepdims=True)
            lse = (top + np.log(norm)).reshape(-1, K)
            expected_out[r0:r1] = expo @ Out / norm
            block = softmax(fit[o0:o1] - n_ctx[o0:o1, None] * lse[owner[o0:o1] - u0])
            resp[o0:o1] = block
            weight[u0:u1] = np.add.reduceat(block * n_ctx[o0:o1, None], seg[u0:u1] - o0)
            neg += np.matmul(expo.T, in_flat[r0:r1] * (weight[u0:u1].reshape(-1, 1) / norm), out=part)

        # One mini-batch step from the chunk-start parameters: the mean
        # occurrence gradient keeps the per-row movement bounded regardless
        # of chunk size and vocabulary. R, (n, U*K), is the center incidence
        # weighted by the responsibilities: R[i, sense[i, k]] = resp[i, k].
        step = lr / n
        _, _, R = incidence(np.repeat(np.arange(n), K), n, sense, resp)
        In[uniq] += (step * (R.T @ sum_ctx - weight.reshape(-1, 1) * expected_out)).reshape(-1, K, dim)
        Out[uc] += C.T @ (step * (R @ in_flat))
        neg *= step
        Out -= neg
        counts[uniq] += np.add.reduceat(resp, seg[:-1])


def train_adagram(corpus, cfg: AdagramConfig, vocab: Vocabulary | None = None) -> SenseTable:
    """Train multi-sense embeddings; epochs and seeding follow corpus.run_epochs."""
    vocab, words, ids = prepare_corpus(corpus, cfg.min_count, vocab)
    rng = np.random.default_rng(cfg.seed)
    V = len(vocab)
    In = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(V, cfg.max_prototypes, cfg.dim))
    Out = np.zeros((V, cfg.dim))
    counts = np.zeros((V, cfg.max_prototypes))
    run_epochs(ids, cfg, lambda offset, total: _train_span(
        ids, In, Out, counts, cfg, rng, offset, total), "adagram")
    table = SenseTable(cfg.dim, cfg.max_prototypes, cfg.prune_threshold)
    word_ids = [vocab.id(word) for word in words]
    priors = expected_pi(counts[word_ids], cfg.concentration_alpha)
    for word, wid, pi in zip(words, word_ids, priors):
        table.add(word, In[wid], pi)
    return table
