"""Tests for tokenization, vocabulary, and stopword lists."""

import numpy as np
import pytest

from defmod.errors import ConfigError
from defmod.textprep import (
    BOS,
    EOS,
    PAD,
    SPECIALS,
    UNK,
    StopwordSet,
    TokenizerProfile,
    Vocabulary,
    build_vocab,
    count_tokens,
    tokenize,
)

DEFAULT = TokenizerProfile()
DROP = TokenizerProfile(punctuation_policy="drop")


def test_tokenize_empty():
    assert tokenize("", DEFAULT) == []
    assert tokenize("   \t\n ", DEFAULT) == []


def test_tokenize_split_off():
    assert tokenize("The cat sat.", DEFAULT) == ["the", "cat", "sat", "."]


def test_tokenize_drop():
    assert tokenize("Hello,  world", DROP) == ["hello", "world"]


def test_tokenize_multichar_punct_splits_each_char():
    assert tokenize("wait...", DEFAULT) == ["wait", ".", ".", "."]
    assert tokenize("wait...", DROP) == ["wait"]


def test_tokenize_underscore_is_punctuation():
    assert tokenize("a_b", DEFAULT) == ["a", "_", "b"]
    assert tokenize("a_b", DROP) == ["a", "b"]


def test_tokenize_no_lowercase():
    profile = TokenizerProfile(lowercase=False)
    assert tokenize("The CAT", profile) == ["The", "CAT"]


def test_tokenize_unicode():
    assert tokenize("Größe, naïve", DEFAULT) == ["größe", ",", "naïve"]


def test_tokenize_outputs_no_whitespace():
    rng = np.random.default_rng(0)
    alphabet = list("ab c.,!?-\t\néÜ_09")
    for _ in range(200):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
        for profile in (DEFAULT, DROP):
            toks = tokenize(text, profile)
            assert all(t and not any(ch.isspace() for ch in t) for t in toks)


def test_tokenize_deterministic_and_idempotent():
    rng = np.random.default_rng(1)
    alphabet = list("abc d. e,!x-_ 7é")
    for _ in range(200):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 50)))
        for profile in (DEFAULT, DROP):
            once = tokenize(text, profile)
            assert tokenize(text, profile) == once
            assert tokenize(" ".join(once), profile) == once


def test_profile_rejects_bad_policy():
    with pytest.raises(ConfigError):
        TokenizerProfile(punctuation_policy="keep")


def test_build_vocab_counts():
    v = build_vocab(["a", "b", "a"], min_count=1)
    assert v.count("a") == 2 and v.count("b") == 1
    assert set(v.words()) == {UNK, BOS, EOS, PAD, "a", "b"}


def test_build_vocab_min_count_filters():
    v = build_vocab(["a", "b", "a"], min_count=2)
    assert "b" not in v
    assert v.id("b") == v.id(UNK) == 0


def test_build_vocab_empty_stream():
    v = build_vocab([], min_count=1)
    assert v.words() == list(SPECIALS)
    assert len(v) == 4


def test_build_vocab_rejects_bad_min_count():
    with pytest.raises(ConfigError):
        build_vocab(["a"], min_count=0)


def test_specials_have_reserved_ids():
    v = build_vocab(["z", "z", "a"], min_count=1)
    assert v.id(UNK) == 0 and v.id(BOS) == 1 and v.id(EOS) == 2 and v.id(PAD) == 3


def test_vocab_ordering_count_desc_then_token_asc():
    v = build_vocab(["b", "b", "c", "a", "c", "d"], min_count=1)
    assert v.words()[4:] == ["b", "c", "a", "d"]


def test_vocab_id_bijectivity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        tokens = [f"w{rng.integers(0, 30)}" for _ in range(n)]
        v = build_vocab(tokens, min_count=1)
        for tok in v.words():
            assert v.token(v.id(tok)) == tok
        ids = [v.id(t) for t in v.words()]
        assert sorted(ids) == list(range(len(v)))


def test_vocab_ids_method():
    v = build_vocab(["a", "b"], min_count=1)
    assert v.ids(["a", "zzz", "b"]) == [v.id("a"), 0, v.id("b")]


def test_count_tokens_ignores_specials():
    counts = count_tokens(["a", UNK, BOS, "a", EOS, PAD])
    assert dict(counts) == {"a": 2}


def test_vocab_roundtrip(tmp_path):
    v = build_vocab(["cat", "sat", "cat", "on"], min_count=1)
    path = tmp_path / "vocab.tsv"
    v.save(path)
    w = Vocabulary.load(path)
    assert w.words() == v.words()
    assert all(w.id(t) == v.id(t) and w.count(t) == v.count(t) for t in v.words())
    assert w.digest() == v.digest()


def test_vocab_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("nonsense\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        Vocabulary.load(path)


def test_vocab_load_rejects_a_token_listed_twice(tmp_path):
    path = tmp_path / "vocab.tsv"
    build_vocab(["x", "x", "y"], min_count=1).save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[5] == "x\t4\t2"
    lines[6] = "x\t5\t1"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        Vocabulary.load(path)
    assert str(exc.value) == f"{path}:7: token 'x' already listed at line 6"


def test_vocab_digest_changes_with_content():
    a = build_vocab(["a"], min_count=1)
    b = build_vocab(["b"], min_count=1)
    assert a.digest() != b.digest()
    assert len(a.digest()) == 64


def test_stopword_file_roundtrip(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# comment\nthe\na\n\nan\n", encoding="utf-8")
    stops = StopwordSet.from_file(path)
    assert stops.tokens == frozenset({"the", "a", "an"})


def test_default_stopwords_ship_for_english():
    stops = StopwordSet.default("en")
    assert "the" in stops.tokens and "of" in stops.tokens


def test_default_stopwords_unknown_language_empty():
    assert StopwordSet.default("xx").tokens == frozenset()
