"""Tests for definition embedding and training-pair construction."""

import numpy as np
import pytest

from defmod import matcher
from defmod.embeddings import EmbeddingTable, SenseTable
from defmod.errors import ConfigError, UnrepresentableDefinitionError
from defmod.lexicon import Lexicon, WordEntry
from defmod.matcher import (
    MatchMode,
    SenseDefPair,
    build_base_pairs,
    build_training_pairs,
    embed_definition,
    load_pairs,
    match_entry,
    save_pairs,
)
from defmod.textprep import StopwordSet


def table_of(mapping):
    words = list(mapping)
    return EmbeddingTable(len(next(iter(mapping.values()))), words,
                          np.array([mapping[w] for w in words], dtype=float))


NO_STOPS = StopwordSet.empty()


def test_embed_single_token():
    table = table_of({"cat": (1.0, 2.0)})
    np.testing.assert_allclose(embed_definition(("cat",), table, NO_STOPS), [1.0, 2.0])


def test_embed_two_token_mean():
    table = table_of({"cat": (1.0, 0.0), "dog": (0.0, 1.0)})
    np.testing.assert_allclose(
        embed_definition(("cat", "dog"), table, NO_STOPS), [0.5, 0.5])


def test_embed_stopword_fallback():
    """An all-stopword definition falls back to the in-vocabulary mean."""
    table = table_of({"the": (3.0, 4.0)})
    stops = StopwordSet(frozenset({"the"}))
    np.testing.assert_allclose(embed_definition(("the",), table, stops), [3.0, 4.0])


def test_embed_ignores_oov_tokens():
    table = table_of({"cat": (1.0, 0.0)})
    np.testing.assert_allclose(
        embed_definition(("cat", "zzz"), table, NO_STOPS), [1.0, 0.0])


def test_embed_unrepresentable():
    table = table_of({"cat": (1.0, 0.0)})
    with pytest.raises(UnrepresentableDefinitionError):
        embed_definition(("zzz", "qqq"), table, NO_STOPS)


def test_embed_stopwords_excluded_when_content_remains():
    table = table_of({"the": (10.0, 0.0), "cat": (0.0, 2.0)})
    stops = StopwordSet(frozenset({"the"}))
    np.testing.assert_allclose(
        embed_definition(("the", "cat"), table, stops), [0.0, 2.0])


def matched(entry, senses, table, mode):
    """The pairs `match_entry` builds, without their cosines."""
    return [p for p, _sim in match_entry(entry, senses, table, NO_STOPS, mode)]


def two_by_two():
    table = table_of({"a": (0.9, 0.1), "b": (0.2, 0.8)})
    entry = WordEntry("w", [("a",), ("b",)])
    senses = [(np.array([1.0, 0.0]), 0.6), (np.array([0.0, 1.0]), 0.4)]
    return entry, senses, table


def test_match_d2s_two_by_two():
    entry, senses, table = two_by_two()
    pairs = matched(entry, senses, table, MatchMode.D2S)
    assert [(p.sense_index, p.definition) for p in pairs] == [(0, ("a",)), (1, ("b",))]


def test_match_s2d_two_by_two():
    entry, senses, table = two_by_two()
    pairs = matched(entry, senses, table, MatchMode.S2D)
    assert [(p.sense_index, p.definition) for p in pairs] == [(0, ("a",)), (1, ("b",))]


def test_match_d2s_single_sense_takes_all():
    entry, senses, table = two_by_two()
    pairs = matched(entry, senses[:1], table, MatchMode.D2S)
    assert [p.sense_index for p in pairs] == [0, 0]
    assert len(pairs) == len(entry.definitions)


def test_match_s2d_single_definition_takes_all():
    _, senses, table = two_by_two()
    entry = WordEntry("w", [("a",)])
    pairs = matched(entry, senses, table, MatchMode.S2D)
    assert [(p.sense_index, p.definition) for p in pairs] == [(0, ("a",)), (1, ("a",))]


def test_match_d2s_tie_breaks_low_index():
    table = table_of({"a": (1.0, 1.0)})
    entry = WordEntry("w", [("a",)])
    senses = [(np.array([2.0, 2.0]), 0.5), (np.array([1.0, 1.0]), 0.5)]
    pairs = matched(entry, senses, table, MatchMode.D2S)
    assert pairs[0].sense_index == 0


def test_match_s2d_tie_breaks_first_definition():
    table = table_of({"a": (1.0, 1.0), "b": (2.0, 2.0)})
    entry = WordEntry("w", [("a",), ("b",)])
    senses = [(np.array([3.0, 3.0]), 1.0)]
    pairs = matched(entry, senses, table, MatchMode.S2D)
    assert pairs[0].definition == ("a",)


def test_match_skips_unrepresentable_definitions():
    table = table_of({"a": (1.0, 0.0)})
    entry = WordEntry("w", [("a",), ("zzz",)])
    senses = [(np.array([1.0, 0.0]), 1.0)]
    assert len(matched(entry, senses, table, MatchMode.D2S)) == 1


def test_match_empty_when_nothing_representable():
    table = table_of({"a": (1.0, 0.0)})
    entry = WordEntry("w", [("zzz",)])
    senses = [(np.array([1.0, 0.0]), 1.0)]
    assert matched(entry, senses, table, MatchMode.D2S) == []
    assert matched(entry, senses, table, MatchMode.S2D) == []


def brute_cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def test_match_d2s_matches_exhaustive_oracle():
    """Assignments agree with a brute-force cosine loop over all pairs."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        n_defs = int(rng.integers(1, 6))
        n_senses = int(rng.integers(1, 5))
        words = [f"t{i}" for i in range(12)]
        table = EmbeddingTable(dim, words, rng.normal(size=(12, dim)))
        defs = []
        for _ in range(n_defs):
            size = int(rng.integers(1, 4))
            defs.append(tuple(rng.choice(words, size=size, replace=False)))
        entry = WordEntry("w", [])
        for d in defs:
            entry.add(d)
        senses = [(rng.normal(size=dim), 1.0 / n_senses) for _ in range(n_senses)]
        scored = match_entry(entry, senses, table, NO_STOPS, MatchMode.D2S)
        assert len(scored) == len(entry.definitions)
        for pair, sim in scored:
            emb = np.mean([table.vector(t) for t in pair.definition], axis=0)
            sims = [brute_cosine(emb, vec) for vec, _ in senses]
            assert pair.sense_index == int(np.argmax(sims))
            assert sim == pytest.approx(max(sims), abs=1e-12)


def test_match_s2d_matches_exhaustive_oracle():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 6))
        n_defs = int(rng.integers(1, 6))
        n_senses = int(rng.integers(1, 5))
        words = [f"t{i}" for i in range(12)]
        table = EmbeddingTable(dim, words, rng.normal(size=(12, dim)))
        entry = WordEntry("w", [])
        for _ in range(n_defs):
            size = int(rng.integers(1, 4))
            entry.add(tuple(rng.choice(words, size=size, replace=False)))
        senses = [(rng.normal(size=dim), 1.0 / n_senses) for _ in range(n_senses)]
        scored = match_entry(entry, senses, table, NO_STOPS, MatchMode.S2D)
        assert len(scored) == n_senses
        embs = [np.mean([table.vector(t) for t in d], axis=0)
                for d in entry.definitions]
        for pair, sim in scored:
            sims = [brute_cosine(pair.sense_vector, e) for e in embs]
            assert pair.definition == entry.definitions[int(np.argmax(sims))]
            assert sim == pytest.approx(max(sims), abs=1e-12)


def test_assignment_scale_invariance():
    """Scaling all sense vectors by a positive factor changes nothing."""
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        words = [f"t{i}" for i in range(8)]
        table = EmbeddingTable(3, words, rng.normal(size=(8, 3)))
        entry = WordEntry("w", [])
        for _ in range(4):
            entry.add(tuple(rng.choice(words, size=2, replace=False)))
        senses = [(rng.normal(size=3), 0.5) for _ in range(3)]
        scaled = [(7.25 * vec, p) for vec, p in senses]
        for mode in MatchMode:
            base = [(p.sense_index, p.definition)
                    for p in matched(entry, senses, table, mode)]
            big = [(p.sense_index, p.definition)
                   for p in matched(entry, scaled, table, mode)]
            assert base == big


def cluster_setup():
    """Two pseudowords, two senses each, definitions from opposing topics."""
    rng = np.random.default_rng(7)
    dim = 8
    axis_a = np.zeros(dim)
    axis_a[0] = 1.0
    axis_b = np.zeros(dim)
    axis_b[1] = 1.0
    words, vecs = [], []
    for i in range(10):
        words.append(f"a{i}")
        vecs.append(axis_a + 0.05 * rng.normal(size=dim))
        words.append(f"b{i}")
        vecs.append(axis_b + 0.05 * rng.normal(size=dim))
    table = EmbeddingTable(dim, words, np.array(vecs))
    senses = SenseTable(dim, 2)
    for pw in ("pw1", "pw2"):
        senses.add(pw, np.stack([axis_a, axis_b]), np.array([0.5, 0.5]))
    lex = Lexicon()
    for pw in ("pw1", "pw2"):
        entry = WordEntry(pw, [])
        entry.add(("a0", "a1", "a2"))
        entry.add(("b0", "b1", "b2"))
        lex.entries[pw] = entry
    return lex, senses, table


def test_build_pairs_synthetic_alignment():
    """Known-cluster setup recovers the intended sense for >= 90% of pairs."""
    lex, senses, table = cluster_setup()
    for mode in (MatchMode.D2S, MatchMode.S2D):
        pairs, summary = build_training_pairs(lex, senses, table, NO_STOPS, mode)
        assert summary.pairs_built == len(pairs) == 4
        good = sum(1 for p in pairs
                   if p.definition[0].startswith("ab"[p.sense_index]))
        assert good / len(pairs) >= 0.9


def test_build_pairs_monosemous_d2s():
    """One sense per word means one pair per definition."""
    rng = np.random.default_rng(3)
    words = [f"t{i}" for i in range(6)]
    table = EmbeddingTable(2, words, rng.normal(size=(6, 2)))
    senses = SenseTable(2, 1)
    lex = Lexicon()
    for w in ("alpha", "beta"):
        senses.add(w, rng.normal(size=(1, 2)), np.array([1.0]))
        entry = WordEntry(w, [])
        entry.add(("t0", "t1"))
        entry.add(("t2",))
        lex.entries[w] = entry
    pairs, summary = build_training_pairs(lex, senses, table, NO_STOPS, MatchMode.D2S)
    assert len(pairs) == lex.definition_count() == 4
    assert all(p.sense_index == 0 for p in pairs)
    assert summary.entries_matched == 2


def test_build_pairs_s2d_at_least_one_per_definition():
    """More senses than definitions means at least |definitions| pairs."""
    rng = np.random.default_rng(4)
    words = [f"t{i}" for i in range(6)]
    table = EmbeddingTable(2, words, rng.normal(size=(6, 2)))
    senses = SenseTable(2, 3)
    lex = Lexicon()
    for w in ("alpha", "beta"):
        senses.add(w, rng.normal(size=(3, 2)), np.array([0.4, 0.3, 0.3]))
        entry = WordEntry(w, [])
        entry.add(("t0", "t1"))
        lex.entries[w] = entry
    pairs, _ = build_training_pairs(lex, senses, table, NO_STOPS, MatchMode.S2D)
    assert len(pairs) >= lex.definition_count()


def test_build_pairs_skips_words_without_senses():
    lex, senses, table = cluster_setup()
    extra = WordEntry("orphan", [])
    extra.add(("a0",))
    lex.entries["orphan"] = extra
    pairs, summary = build_training_pairs(lex, senses, table, NO_STOPS, MatchMode.D2S)
    assert summary.entries_skipped == 1
    assert all(p.headword != "orphan" for p in pairs)


def test_build_pairs_sorted_output():
    lex, senses, table = cluster_setup()
    pairs, _ = build_training_pairs(lex, senses, table, NO_STOPS, MatchMode.D2S)
    keys = [(p.headword, p.sense_index) for p in pairs]
    assert keys == sorted(keys)


def test_build_pairs_dominant_fallback_table():
    """With no single-sense table, dominant sense vectors embed the tokens."""
    lex, senses, table = cluster_setup()
    full = SenseTable(table.dim, 2)
    for w in table.words():
        full.add(w, table.vector(w)[None, :], np.array([1.0]))
    for pw in ("pw1", "pw2"):
        full.add(pw, *senses.prototypes(pw))
    pairs, summary = build_training_pairs(lex, full, None, NO_STOPS, MatchMode.D2S)
    assert summary.pairs_built == 4
    good = sum(1 for p in pairs
               if p.definition[0].startswith("ab"[p.sense_index]))
    assert good == 4


def test_build_pairs_min_similarity_filters():
    lex, senses, table = cluster_setup()
    pairs, summary = build_training_pairs(
        lex, senses, table, NO_STOPS, MatchMode.D2S, min_similarity=0.999)
    assert summary.pairs_filtered > 0
    assert len(pairs) < 4


def test_build_pairs_min_similarity_filters_s2d():
    """S2D keeps exactly the pairs whose winning cosine reaches the threshold."""
    lex, senses, table = cluster_setup()
    full, _ = build_training_pairs(lex, senses, table, NO_STOPS, MatchMode.S2D)
    sims = [brute_cosine(embed_definition(p.definition, table, NO_STOPS), p.sense_vector)
            for p in full]
    threshold = sorted(sims)[len(sims) // 2]
    pairs, summary = build_training_pairs(
        lex, senses, table, NO_STOPS, MatchMode.S2D, min_similarity=threshold)
    expected = [(p.headword, p.sense_index, p.definition)
                for p, sim in zip(full, sims) if sim >= threshold]
    assert [(p.headword, p.sense_index, p.definition) for p in pairs] == expected
    assert 0 < summary.pairs_filtered == len(full) - len(pairs)


@pytest.mark.parametrize("mode", list(MatchMode))
def test_build_pairs_embeds_each_definition_once(monkeypatch, mode):
    """Filtering on the winning cosine embeds no definition a second time."""
    lex, senses, table = cluster_setup()
    calls = []

    def counting(definition, *args):
        calls.append(definition)
        return embed_definition(definition, *args)

    monkeypatch.setattr(matcher, "embed_definition", counting)
    build_training_pairs(lex, senses, table, NO_STOPS, mode, min_similarity=0.0)
    assert len(calls) == lex.definition_count()


def test_build_base_pairs():
    rng = np.random.default_rng(5)
    table = EmbeddingTable(2, ["alpha", "t0"], rng.normal(size=(2, 2)))
    lex = Lexicon()
    for w in ("alpha", "missing"):
        entry = WordEntry(w, [])
        entry.add(("t0",))
        entry.add(("t0", "t0x"))
        lex.entries[w] = entry
    pairs, summary = build_base_pairs(lex, table)
    assert summary.entries_skipped == 1
    assert [p.headword for p in pairs] == ["alpha", "alpha"]
    assert all(p.sense_index == 0 for p in pairs)
    np.testing.assert_allclose(pairs[0].sense_vector, table.vector("alpha"))


def test_pair_validation():
    with pytest.raises(ValueError):
        SenseDefPair("w", -1, np.zeros(2), ("a",))
    with pytest.raises(ValueError):
        SenseDefPair("w", 0, np.zeros(2), ())


def test_pairs_roundtrip_sense_table(tmp_path):
    lex, senses, table = cluster_setup()
    pairs, _ = build_training_pairs(lex, senses, table, NO_STOPS, MatchMode.D2S)
    path = tmp_path / "pairs.tsv"
    save_pairs(pairs, path)
    again = load_pairs(path, senses)
    assert len(again) == len(pairs)
    for p, q in zip(pairs, again):
        assert (p.headword, p.sense_index, p.definition) == (
            q.headword, q.sense_index, q.definition)
        np.testing.assert_allclose(p.sense_vector, q.sense_vector)


def test_pairs_roundtrip_embedding_table(tmp_path):
    rng = np.random.default_rng(6)
    table = EmbeddingTable(2, ["alpha"], rng.normal(size=(1, 2)))
    lex = Lexicon()
    entry = WordEntry("alpha", [])
    entry.add(("alpha",))
    lex.entries["alpha"] = entry
    pairs, _ = build_base_pairs(lex, table)
    path = tmp_path / "pairs.tsv"
    save_pairs(pairs, path)
    again = load_pairs(path, table)
    assert len(again) == 1
    np.testing.assert_allclose(again[0].sense_vector, table.vector("alpha"))


def test_load_pairs_rejects_malformed(tmp_path):
    table = EmbeddingTable(2, ["alpha"], np.ones((1, 2)))
    bad_lines = [
        "alpha\t0",  # missing column
        "alpha\tx\tthe def",  # non-integer index
        "alpha\t1\tthe def",  # nonzero index for single-sense source
        "\t0\tthe def",  # empty headword
        "alpha\t0\t",  # empty definition
    ]
    for i, bad in enumerate(bad_lines):
        path = tmp_path / f"bad{i}.tsv"
        path.write_text("#pairs v1\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_pairs(path, table)


def test_load_pairs_rejects_out_of_range_sense(tmp_path):
    senses = SenseTable(2, 2)
    senses.add("alpha", np.ones((2, 2)), np.array([0.9995, 0.0005]))
    path = tmp_path / "pairs.tsv"
    path.write_text("#pairs v1\nalpha\t1\tthe def\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_pairs(path, senses)  # prototype 1 pruned, only 1 retained sense
    assert str(exc.value).startswith(f"{path}:2: sense index 1 out of range")


@pytest.mark.parametrize("text", ["alpha\t0\tthe def\n", "# comment\n#pairs v1\n", ""],
                         ids=["no-header", "comment-first", "empty"])
def test_load_pairs_requires_its_header_on_line_1(tmp_path, text):
    """A headerless three-column file, such as generated definitions, is not
    read as pairs."""
    table = EmbeddingTable(2, ["alpha"], np.ones((1, 2)))
    path = tmp_path / "pairs.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_pairs(path, table)
    assert str(exc.value).startswith(f"{path}:1: not a pairs file")


def test_load_pairs_skips_comments_after_the_header(tmp_path):
    table = EmbeddingTable(2, ["alpha"], np.ones((1, 2)))
    path = tmp_path / "pairs.tsv"
    path.write_text("#pairs v1\n# built by hand\nalpha\t0\tthe def\n", encoding="utf-8")
    [pair] = load_pairs(path, table)
    assert (pair.headword, pair.sense_index, pair.definition) == ("alpha", 0, ("the", "def"))
