"""Tests for embedding tables, cosine, and the two corpus trainers."""

import itertools
import tracemalloc

import numpy as np
import pytest

from defmod.embeddings import (
    AdagramConfig,
    EmbeddingTable,
    NoiseSampler,
    SenseTable,
    SgnsConfig,
    corpus_to_ids,
    cosine,
    train_adagram,
    train_sgns,
)
from defmod.embeddings.adagram import _train_span, expected_log_pi, expected_pi
from defmod.embeddings import adagram as adagram_mod
from defmod.embeddings import sgns as sgns_mod
from defmod.embeddings.corpus import incidence, linear_lr, window_contexts
from defmod.errors import ConfigError, MissingWordError, ShapeError, ZeroVectorError
from defmod.textprep import Vocabulary, build_vocab


def test_cosine_identity_orthogonal_analytic():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(0.70711, abs=1e-5)


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        a, b = rng.uniform(0.1, 10, size=2)
        assert cosine(u, v) == pytest.approx(cosine(v, u))
        assert cosine(a * u, b * v) == pytest.approx(cosine(u, v))
        assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12


def test_cosine_errors():
    with pytest.raises(ZeroVectorError):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(ShapeError):
        cosine(np.ones(3), np.ones(4))


def test_embedding_table_lookup_and_errors():
    table = EmbeddingTable(2, ["a", "b"], np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(table.vector("b"), [0.0, 2.0])
    assert "a" in table and "zz" not in table
    with pytest.raises(MissingWordError):
        table.vector("zz")
    with pytest.raises(ShapeError):
        EmbeddingTable(3, ["a"], np.ones((1, 2)))


def test_embedding_table_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    table = EmbeddingTable(4, ["cat", "dog", "fish"], rng.normal(size=(3, 4)))
    path = tmp_path / "emb.txt"
    table.save(path)
    again = EmbeddingTable.load(path)
    assert again.words() == table.words()
    np.testing.assert_array_equal(again.matrix, table.matrix)


@pytest.mark.parametrize("header", ["0 -1", "0 0", "-1 3"])
def test_embedding_table_load_rejects_bad_header_counts(tmp_path, header):
    path = tmp_path / "emb.txt"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        EmbeddingTable.load(path)
    assert str(exc.value).startswith(f"{path}:1: expected a count >= 0 and a dim >= 1")


def test_embedding_table_nearest():
    table = EmbeddingTable(
        2,
        ["east", "north", "west"],
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
    )
    assert table.nearest(np.array([0.9, 0.1]), k=2) == ["east", "north"]
    assert table.nearest(np.array([0.9, 0.1]), k=2, exclude={"east"}) == ["north", "west"]


def test_sense_table_retention_and_word_vector():
    table = SenseTable(dim=2, max_prototypes=3, prune_threshold=0.05)
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    table.add("w", vecs, np.array([0.7, 0.299, 0.001]))
    retained = table.senses("w")
    assert [k for k, _, _ in retained] == [0, 1]
    np.testing.assert_array_equal(table.word_vector("w"), vecs[0])


def test_sense_table_tie_breaks_to_lowest_index():
    table = SenseTable(dim=1, max_prototypes=2)
    table.add("w", np.array([[5.0], [7.0]]), np.array([0.5, 0.5]))
    np.testing.assert_array_equal(table.word_vector("w"), [5.0])


def test_sense_table_argmax_always_retained():
    table = SenseTable(dim=1, max_prototypes=3, prune_threshold=0.9)
    table.add("w", np.array([[1.0], [2.0], [3.0]]), np.array([0.4, 0.35, 0.25]))
    retained = table.senses("w")
    assert [k for k, _, _ in retained] == [0]


def test_sense_table_single_prototype():
    table = SenseTable(dim=2, max_prototypes=5)
    table.add("w", np.array([[1.0, 2.0]]), np.array([1.0]))
    assert len(table.senses("w")) == 1
    np.testing.assert_array_equal(table.word_vector("w"), [1.0, 2.0])


def test_sense_table_validates_priors():
    table = SenseTable(dim=1, max_prototypes=2)
    with pytest.raises(ConfigError):
        table.add("w", np.array([[1.0], [2.0]]), np.array([0.8, 0.1]))
    with pytest.raises(ConfigError):  # and no overflow warning from their sum
        table.add("w", np.array([[1.0], [2.0]]), np.array([1e308, 1e308]))
    with pytest.raises(ShapeError):
        table.add("w", np.array([[1.0], [2.0]]), np.array([1.0]))


def test_sense_table_missing_word():
    table = SenseTable(dim=1, max_prototypes=1)
    with pytest.raises(MissingWordError):
        table.senses("nope")


def test_sense_table_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    table = SenseTable(dim=3, max_prototypes=2, prune_threshold=0.01)
    table.add("cat", rng.normal(size=(2, 3)), np.array([0.6, 0.4]))
    table.add("dog", rng.normal(size=(1, 3)), np.array([1.0]))
    path = tmp_path / "senses.txt"
    table.save(path)
    again = SenseTable.load(path, prune_threshold=0.01)
    assert set(again.words()) == {"cat", "dog"}
    for word in ("cat", "dog"):
        v0, p0 = table.prototypes(word)
        v1, p1 = again.prototypes(word)
        np.testing.assert_array_equal(v0, v1)
        np.testing.assert_array_equal(p0, p1)


def test_dominant_table():
    table = SenseTable(dim=2, max_prototypes=2)
    table.add("w", np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.2, 0.8]))
    dom = table.dominant_table()
    np.testing.assert_array_equal(dom.vector("w"), [0.0, 1.0])


def test_expected_pi_hand_cases():
    np.testing.assert_allclose(expected_pi(np.zeros(1), alpha=0.5), [1.0])
    np.testing.assert_allclose(expected_pi(np.zeros(2), alpha=1.0), [0.5, 0.5])
    # counts (2,1,0), alpha 1: sticks Beta(3,2), Beta(2,1) -> 0.6, 0.4*2/3, 0.4/3
    np.testing.assert_allclose(
        expected_pi(np.array([2.0, 1.0, 0.0]), alpha=1.0),
        [0.6, 0.4 * 2 / 3, 0.4 / 3],
        atol=1e-12,
    )


def test_expected_pi_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        counts = rng.uniform(0, 50, size=(4, rng.integers(1, 6)))
        pi = expected_pi(counts, alpha=float(rng.uniform(0.05, 2.0)))
        np.testing.assert_allclose(pi.sum(axis=-1), 1.0, atol=1e-12)
        assert (pi >= 0).all()


def test_expected_log_pi_properties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        counts = rng.uniform(0, 50, size=(3, 5))
        alpha = float(rng.uniform(0.05, 2.0))
        elog = expected_log_pi(counts, alpha)
        pi = expected_pi(counts, alpha)
        # Jensen: E[log pi] <= log E[pi]
        assert (elog <= np.log(pi) + 1e-9).all()
    zero = expected_log_pi(np.zeros(5), alpha=0.1)
    assert (np.diff(zero) < 0).all()
    np.testing.assert_allclose(expected_log_pi(np.zeros(1), alpha=0.3), [0.0], atol=1e-12)


def test_corpus_to_ids_drops_oov():
    vocab = build_vocab(["a", "a", "b"], min_count=2)
    ids = corpus_to_ids(["a", "b", "c", "a"], vocab)
    assert ids.tolist() == [vocab.id("a"), vocab.id("a")]


def test_noise_sampler_follows_power_law():
    vocab = build_vocab(["a"] * 81 + ["b"] * 16 + ["c"], min_count=1)
    sampler = NoiseSampler(vocab)
    rng = np.random.default_rng(5)
    draws = sampler.sample(rng, 200000)
    freq = np.bincount(draws, minlength=len(vocab)).astype(float) / draws.size
    weights = np.array([81.0, 16.0, 1.0]) ** 0.75
    want = weights / weights.sum()
    got = np.array([freq[vocab.id(w)] for w in ("a", "b", "c")])
    np.testing.assert_allclose(got, want, atol=0.005)
    assert freq[:4].sum() == 0.0


class _TopDraw:
    """Stands in for a Generator whose every draw is the largest double
    below 1.0."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


def test_noise_sampler_never_draws_past_the_last_word():
    vocab = Vocabulary({"a": 46, "b": 33, "c": 27, "d": 18, "e": 4})
    weights = np.array([vocab.count(w) for w in vocab.words()], dtype=np.float64) ** 0.75
    # Normalised entry by entry, this distribution's cumulative sum ends
    # below 1.0, where a draw this high would land past the last word.
    assert np.cumsum(weights / weights.sum())[-1] < 1.0
    draws = NoiseSampler(vocab).sample(_TopDraw(), (3, 2))
    np.testing.assert_array_equal(draws, np.full((3, 2), vocab.id("e")))
    assert vocab.id("e") == len(vocab) - 1


def topic_corpus(rng, n_blocks=250, block=40, n_words=20, pseudo=None):
    topic_a = [f"alpha{i}" for i in range(n_words)]
    topic_b = [f"beta{i}" for i in range(n_words)]
    corpus = []
    for blk in range(n_blocks):
        topic = topic_a if blk % 2 == 0 else topic_b
        chunk = [topic[i] for i in rng.integers(0, n_words, block)]
        if pseudo:
            for pos in sorted(rng.integers(3, block - 3, 2), reverse=True):
                chunk.insert(pos, pseudo)
        corpus += chunk
    return corpus, topic_a, topic_b


def test_sgns_zero_epochs_returns_seeded_init():
    corpus = ["a", "b"] * 30
    cfg = SgnsConfig(dim=8, window=2, negatives=2, epochs=0, min_count=1, seed=9)
    t1 = train_sgns(corpus, cfg)
    t2 = train_sgns(corpus, cfg)
    assert set(t1.words()) == {"a", "b"}
    assert t1.matrix.shape == (2, 8)
    np.testing.assert_array_equal(t1.matrix, t2.matrix)
    assert np.all(np.abs(t1.matrix) <= 0.5 / 8)


def test_sgns_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_sgns([], SgnsConfig(dim=4, min_count=1))
    with pytest.raises(ConfigError):
        train_sgns(["rare"], SgnsConfig(dim=4, min_count=2))


def test_sgns_covers_all_retained_words():
    rng = np.random.default_rng(6)
    corpus, ta, tb = topic_corpus(rng, n_blocks=50)
    cfg = SgnsConfig(dim=10, window=2, negatives=2, epochs=1, min_count=5, seed=0)
    table = train_sgns(corpus, cfg)
    for word in ta + tb:
        vec = table.vector(word)
        assert np.all(np.isfinite(vec)) and vec.shape == (10,)


def test_sgns_separates_topics():
    rng = np.random.default_rng(7)
    corpus, topic_a, topic_b = topic_corpus(rng, n_blocks=250)
    cfg = SgnsConfig(dim=20, window=3, negatives=5, epochs=10, initial_lr=0.05, min_count=5, seed=1)
    table = train_sgns(corpus, cfg)

    def mean_cos(ws1, ws2):
        vals = [cosine(table.vector(a), table.vector(b))
                for a, b in itertools.product(ws1, ws2) if a != b]
        return float(np.mean(vals))

    intra = (mean_cos(topic_a, topic_a) + mean_cos(topic_b, topic_b)) / 2
    cross = mean_cos(topic_a, topic_b)
    assert intra > cross


def test_sgns_seed_determinism():
    rng = np.random.default_rng(8)
    corpus, _, _ = topic_corpus(rng, n_blocks=40)
    cfg = SgnsConfig(dim=12, window=2, negatives=3, epochs=2, min_count=5, seed=4)
    a = train_sgns(corpus, cfg)
    b = train_sgns(corpus, cfg)
    np.testing.assert_array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("shape, rows", [
    ((6, 4), [2, 0, 2, 5, 2, 0]),
    ((5, 3, 4), [4, 1, 1, 0, 4]),
    ((5, 3, 4), []),
], ids=["repeated-rows-2d", "table-3d", "no-rows"])
def test_incidence_matches_add_at(shape, rows):
    rng = np.random.default_rng(14)
    rows = np.asarray(rows, dtype=np.int64)
    values = rng.normal(size=(rows.size, *shape[1:]))
    table = rng.normal(size=shape)
    expected = table.copy()
    np.add.at(expected, rows, values)
    distinct, counts, onehot = incidence(np.arange(rows.size), rows.size, rows)
    assert onehot.shape == (rows.size, distinct.size)
    np.testing.assert_array_equal(counts, np.bincount(rows)[distinct])
    flat = table.reshape(shape[0], -1)
    flat[distinct] += onehot.T @ values.reshape(rows.size, flat.shape[1])
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


def test_incidence_leaves_other_rows_unwritten():
    # Adding even 0.0 to a -0.0 entry would clear its sign bit.
    table = np.full((50, 3), -0.0)
    distinct, _, onehot = incidence(np.arange(3), 3, np.array([7, 7, 30]))
    table[distinct] += onehot.T @ np.ones((3, 3))
    untouched = np.delete(np.arange(50), [7, 30])
    assert np.signbit(table[untouched]).all()
    np.testing.assert_array_equal(table[[7, 30]], [[2.0] * 3, [1.0] * 3])


def test_incidence_sums_weights_of_repeated_pairs():
    rows = np.array([[2, 0], [2, 1], [0, 2]])
    ids = np.array([[9, 4], [9, 9], [4, 6]])
    values = np.array([[0.5, 1.0], [2.0, -3.0], [4.0, 8.0]])
    distinct, counts, matrix = incidence(rows, 3, ids, values)
    np.testing.assert_array_equal(distinct, [4, 6, 9])
    np.testing.assert_array_equal(counts, [2, 1, 3])
    want = np.zeros((3, 3))
    for r, i, v in zip(rows.ravel(), ids.ravel(), values.ravel()):
        want[r, list(distinct).index(i)] += v
    np.testing.assert_array_equal(matrix.toarray(), want)
    empty = incidence(np.zeros(0, dtype=np.int64), 4, np.zeros(0, dtype=np.int64))[2]
    assert empty.shape == (4, 0)
    assert (empty @ np.ones((0, 2))).shape == (4, 2)


def _pairs_oracle(ids, start, stop, window, rng):
    """The skip-gram pair sampler SGNS first used, one offset at a time."""
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
    return ids[np.concatenate(centers_list)], ids[np.concatenate(contexts_list)]


def _grouped_oracle(n_positions, start, ids, window, rng):
    """The context matrix sampler AdaGram first used, one slot at a time."""
    widths = rng.integers(1, window + 1, size=n_positions)
    positions = np.arange(start, start + n_positions)
    ctx = np.zeros((n_positions, 2 * window), dtype=np.int64)
    mask = np.zeros((n_positions, 2 * window), dtype=np.float64)
    for offset in range(1, window + 1):
        for sign, col in ((-1, 2 * (offset - 1)), (1, 2 * (offset - 1) + 1)):
            pos = positions + sign * offset
            ok = (widths >= offset) & (pos >= 0) & (pos < len(ids))
            ctx[ok, col] = ids[pos[ok]]
            mask[ok, col] = 1.0
    return ctx, mask


@pytest.mark.parametrize("window", [1, 2, 5])
@pytest.mark.parametrize("start, stop", [(0, 7), (3, 40), (33, 50), (0, 50), (49, 50)],
                         ids=["head", "middle", "tail", "whole", "last"])
def test_window_contexts_match_both_first_samplers(window, start, stop):
    ids = np.random.default_rng(18).integers(0, 30, size=50)
    seed = 100 * window + start
    rng, rng_pairs, rng_grouped = (np.random.default_rng(seed) for _ in range(3))
    ctx, mask = window_contexts(ids, start, stop, window, rng)
    assert mask.dtype == bool and ctx.shape == mask.shape == (stop - start, 2 * window)

    want_ctx, want_mask = _grouped_oracle(stop - start, start, ids, window, rng_grouped)
    np.testing.assert_array_equal(ctx, want_ctx)
    np.testing.assert_array_equal(mask, want_mask.astype(bool))

    centers = np.broadcast_to(ids[start:stop], mask.T.shape)[mask.T]
    want_centers, want_contexts = _pairs_oracle(ids, start, stop, window, rng_pairs)
    np.testing.assert_array_equal(centers, want_centers)
    np.testing.assert_array_equal(ctx.T[mask.T], want_contexts)

    state = rng.bit_generator.state
    assert state == rng_pairs.bit_generator.state == rng_grouped.bit_generator.state


def _reference_adagram_chunk(ids, In, Out, counts, cfg, rng, lr_total):
    """One AdaGram chunk update in its first form (einsum, logaddexp.reduce
    and np.add.at): the reference _train_span must match on one chunk."""
    n = ids.size
    centers = ids
    ctx, mask = window_contexts(ids, 0, n, cfg.window, rng)
    lr = linear_lr(cfg.initial_lr, 0, lr_total)
    uniq, inv = np.unique(centers, return_inverse=True)
    in_u = In[uniq]
    scores_full = np.einsum("ukd,vd->ukv", in_u, Out)
    lse = np.logaddexp.reduce(scores_full, axis=2)
    probs = np.exp(scores_full - lse[:, :, None])
    prior = expected_log_pi(counts[uniq], cfg.concentration_alpha)
    in_n = in_u[inv]
    ctx_vecs = Out[ctx]
    dots = np.einsum("nkd,ncd->nkc", in_n, ctx_vecs)
    loglik = ((dots - lse[inv][:, :, None]) * mask[:, None, :]).sum(axis=2)
    scores = prior[inv] + loglik
    scores -= scores.max(axis=1, keepdims=True)
    resp = np.exp(scores)
    resp /= resp.sum(axis=1, keepdims=True)
    step = lr / n
    n_ctx = mask.sum(axis=1)
    sum_ctx = np.einsum("ncd,nc->nd", ctx_vecs, mask)
    expected_out = np.einsum("ukv,vd->ukd", probs, Out)
    grad_in = step * resp[:, :, None] * (sum_ctx[:, None, :] - n_ctx[:, None, None] * expected_out[inv])
    np.add.at(In, centers, grad_in)
    resp_in = np.einsum("nk,nkd->nd", resp, in_n)
    pos_coef = step * mask
    np.add.at(Out, ctx.reshape(-1), (pos_coef[:, :, None] * resp_in[:, None, :]).reshape(-1, cfg.dim))
    weight = np.zeros((len(uniq), cfg.max_prototypes))
    np.add.at(weight, inv, resp * n_ctx[:, None])
    Out -= step * np.einsum("ukv,ukd->vd", probs * weight[:, :, None], in_u)
    np.add.at(counts, centers, resp)


def test_adagram_chunk_update_matches_reference():
    cfg = AdagramConfig(dim=6, window=2, epochs=1, initial_lr=0.5, min_count=1,
                        max_prototypes=3, concentration_alpha=0.5)
    rng = np.random.default_rng(15)
    V = 12
    ids = rng.integers(0, V, size=300)
    In = rng.normal(scale=0.5, size=(V, cfg.max_prototypes, cfg.dim))
    Out = rng.normal(scale=0.5, size=(V, cfg.dim))
    counts = rng.uniform(0, 5, size=(V, cfg.max_prototypes))
    start = [In.copy(), Out.copy(), counts.copy()]
    ref = [a.copy() for a in start]
    _reference_adagram_chunk(ids, *ref, cfg, np.random.default_rng(16), ids.size)
    _train_span(ids, In, Out, counts, cfg, np.random.default_rng(16), 0, ids.size)
    for got, want, before in zip((In, Out, counts), ref, start):
        assert np.abs(want - before).max() > 1e-3
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def _reference_sgns_chunk(ids, W_in, W_out, sampler, cfg, rng, lr_total):
    """One SGNS chunk update in its first form (per-pair gradients, a division
    per occurrence and np.add.at): the reference _train_span must match on
    one chunk."""
    ctx, mask = window_contexts(ids, 0, ids.size, cfg.window, rng)
    contexts = ctx.T[mask.T]
    centers = np.broadcast_to(ids, mask.T.shape)[mask.T]
    lr = linear_lr(cfg.initial_lr, 0, lr_total)
    negatives = sampler.sample(rng, (centers.size, cfg.negatives))
    out_ids = np.concatenate([contexts[:, None], negatives], axis=1)
    labels = np.zeros(out_ids.shape)
    labels[:, 0] = 1.0
    center_vecs = W_in[centers]
    out_vecs = W_out[out_ids]
    scores = np.einsum("pjd,pd->pj", out_vecs, center_vecs)
    coef = (labels - 1.0 / (1.0 + np.exp(-scores))) * lr
    grad_in = np.einsum("pj,pjd->pd", coef, out_vecs)
    grad_out = np.einsum("pj,pd->pjd", coef, center_vecs).reshape(-1, cfg.dim)
    V = W_in.shape[0]
    center_counts = np.bincount(centers, minlength=V)
    np.add.at(W_in, centers, grad_in / center_counts[centers][:, None])
    flat_out = out_ids.reshape(-1)
    out_counts = np.bincount(flat_out, minlength=V)
    np.add.at(W_out, flat_out, grad_out / out_counts[flat_out][:, None])


def test_sgns_chunk_update_matches_reference():
    cfg = SgnsConfig(dim=6, window=2, negatives=3, epochs=1, initial_lr=0.5, min_count=1)
    rng = np.random.default_rng(20)
    vocab = build_vocab([f"w{i}" for i in rng.integers(0, 12, size=400)], min_count=1)
    sampler = NoiseSampler(vocab)
    V = len(vocab)
    ids = rng.integers(4, V, size=300)
    assert ids.size <= sgns_mod.CHUNK
    W_in = rng.normal(scale=0.5, size=(V, cfg.dim))
    W_out = rng.normal(scale=0.5, size=(V, cfg.dim))
    start = [W_in.copy(), W_out.copy()]
    ref = [a.copy() for a in start]
    _reference_sgns_chunk(ids, *ref, sampler, cfg, np.random.default_rng(21), ids.size)
    sgns_mod._train_span(ids, W_in, W_out, sampler, cfg,
                         np.random.default_rng(21), 0, ids.size)
    for got, want, before in zip((W_in, W_out), ref, start):
        assert np.abs(want - before).max() > 1e-3
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _masked_out(ids, start, stop, window, rng):
    """window_contexts with every slot masked, as if no context were valid."""
    ctx, mask = window_contexts(ids, start, stop, window, rng)
    return ctx, np.zeros_like(mask)


@pytest.mark.parametrize("case", ["one-token", "all-masked"])
def test_adagram_chunk_without_context_moves_only_counts(monkeypatch, case):
    cfg = AdagramConfig(dim=6, window=2, epochs=1, initial_lr=0.5, min_count=1,
                        max_prototypes=3, concentration_alpha=0.5)
    rng = np.random.default_rng(24)
    V = 12
    ids = rng.integers(4, V, size=1 if case == "one-token" else 300)
    if case == "all-masked":
        monkeypatch.setattr(adagram_mod, "window_contexts", _masked_out)
    In = rng.normal(scale=0.5, size=(V, cfg.max_prototypes, cfg.dim))
    Out = rng.normal(scale=0.5, size=(V, cfg.dim))
    counts = rng.uniform(0, 5, size=(V, cfg.max_prototypes))
    start = [In.copy(), Out.copy(), counts.copy()]
    _train_span(ids, In, Out, counts, cfg, np.random.default_rng(25), 0, ids.size)
    np.testing.assert_array_equal(In, start[0])
    np.testing.assert_array_equal(Out, start[1])
    added = counts - start[2]
    assert (added >= 0).all()
    np.testing.assert_allclose(added.sum(axis=1), np.bincount(ids, minlength=V), rtol=1e-12)


@pytest.mark.parametrize("case", ["one-token", "all-masked"])
def test_sgns_chunk_without_context_changes_nothing(monkeypatch, case):
    cfg = SgnsConfig(dim=6, window=2, negatives=3, epochs=1, initial_lr=0.5, min_count=1)
    rng = np.random.default_rng(26)
    vocab = build_vocab([f"w{i}" for i in rng.integers(0, 12, size=400)], min_count=1)
    V = len(vocab)
    ids = rng.integers(4, V, size=1 if case == "one-token" else 300)
    if case == "all-masked":
        monkeypatch.setattr(sgns_mod, "window_contexts", _masked_out)
    W_in = rng.normal(scale=0.5, size=(V, cfg.dim))
    W_out = rng.normal(scale=0.5, size=(V, cfg.dim))
    start = [W_in.copy(), W_out.copy()]
    sgns_mod._train_span(ids, W_in, W_out, NoiseSampler(vocab), cfg,
                         np.random.default_rng(27), 0, ids.size)
    np.testing.assert_array_equal(W_in, start[0])
    np.testing.assert_array_equal(W_out, start[1])


@pytest.mark.parametrize("train, cfg", [
    (train_sgns, SgnsConfig(dim=4, window=2, negatives=2, epochs=2, min_count=1)),
    (train_adagram, AdagramConfig(dim=4, window=2, epochs=2, min_count=1, max_prototypes=2)),
], ids=["sgns", "adagram"])
def test_trainers_run_on_a_one_token_corpus(train, cfg):
    table = train(["solo"], cfg)
    assert table.words() == ["solo"]


def test_adagram_chunk_memory_stays_far_below_one_vocabulary_wide_softmax():
    """One chunk of 1,024 distinct centers at V = 2,000 and K = 5: a single
    (U*K, V) score buffer would take 82 MB."""
    cfg = AdagramConfig(dim=8, window=2, epochs=1, min_count=1, max_prototypes=5)
    rng = np.random.default_rng(28)
    V = 2000
    ids = rng.permutation(V)[:adagram_mod.CHUNK]
    assert np.unique(ids).size == 1024
    In = rng.normal(scale=0.1, size=(V, cfg.max_prototypes, cfg.dim))
    Out = rng.normal(scale=0.1, size=(V, cfg.dim))
    counts = np.zeros((V, cfg.max_prototypes))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _train_span(ids, In, Out, counts, cfg, np.random.default_rng(29), 0, ids.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 8_000_000
    assert np.isfinite(Out).all() and counts.sum() == pytest.approx(ids.size)


def test_adagram_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_adagram([], AdagramConfig(dim=4, min_count=1))


def test_adagram_priors_sum_to_one():
    rng = np.random.default_rng(10)
    corpus, ta, tb = topic_corpus(rng, n_blocks=60)
    cfg = AdagramConfig(dim=10, window=2, epochs=2, initial_lr=0.3, min_count=5,
                        seed=0, max_prototypes=4)
    table = train_adagram(corpus, cfg)
    for word in table.words():
        _, priors = table.prototypes(word)
        assert abs(priors.sum() - 1.0) < 1e-6
        assert (priors >= 0).all()
        assert len(table.senses(word)) >= 1


def test_adagram_seed_determinism():
    rng = np.random.default_rng(11)
    corpus, _, _ = topic_corpus(rng, n_blocks=40)
    cfg = AdagramConfig(dim=10, window=2, epochs=2, initial_lr=0.3, min_count=5,
                        seed=3, max_prototypes=3)
    a = train_adagram(corpus, cfg)
    b = train_adagram(corpus, cfg)
    for word in a.words():
        va, pa = a.prototypes(word)
        vb, pb = b.prototypes(word)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(pa, pb)


def test_adagram_splits_pseudoword_senses():
    """A pseudoword occurring in two disjoint topical contexts gains two
    retained senses whose neighbors come from opposite topics."""
    rng = np.random.default_rng(12)
    corpus, topic_a, topic_b = topic_corpus(rng, n_blocks=600, pseudo="bank")
    cfg = AdagramConfig(dim=30, window=3, epochs=30, initial_lr=0.5, min_count=5,
                        seed=2, max_prototypes=5, concentration_alpha=1.0,
                        prune_threshold=0.05)
    table = train_adagram(corpus, cfg)
    retained = table.senses("bank")
    assert len(retained) >= 2
    nbr = EmbeddingTable(
        cfg.dim,
        [w for w in table.words() if w != "bank"],
        np.array([table.word_vector(w) for w in table.words() if w != "bank"]),
    )
    topics = []
    for _, vec, _ in retained:
        neighbors = nbr.nearest(vec, k=10)
        frac_a = sum(n in topic_a for n in neighbors) / len(neighbors)
        assert frac_a >= 0.7 or frac_a <= 0.3
        topics.append(frac_a >= 0.7)
    assert True in topics and False in topics


def test_adagram_single_topic_words_keep_one_sense():
    """With the default concentration, words seen in one context
    distribution keep exactly one retained sense in >= 80% of cases."""
    rng = np.random.default_rng(13)
    corpus, topic_a, topic_b = topic_corpus(rng, n_blocks=400)
    cfg = AdagramConfig(dim=20, window=3, epochs=10, initial_lr=0.5, min_count=5,
                        seed=1, max_prototypes=5, concentration_alpha=0.1)
    table = train_adagram(corpus, cfg)
    words = topic_a + topic_b
    single = sum(1 for w in words if len(table.senses(w)) == 1)
    assert single / len(words) >= 0.8
