"""Tests for lexicon ingestion, word-disjoint splits, and dataset stats."""

import numpy as np
import pytest

from defmod.errors import ConfigError, LexiconFormatError
from defmod.lexicon import (
    Lexicon,
    WordEntry,
    largest_remainder_sizes,
    lexicon_stats,
    load_lexicon,
    split_lexicon,
)
from defmod.textprep import TokenizerProfile

PROFILE = TokenizerProfile()


def write_lexicon(tmp_path, lines, name="lex.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_groups_by_headword(tmp_path):
    path = write_lexicon(tmp_path, ["cat\ta small animal", "cat\ta whip"])
    lex = load_lexicon(path, PROFILE)
    assert len(lex) == 1
    assert len(lex.entries["cat"].definitions) == 2


def test_load_dedups_identical_lines(tmp_path):
    path = write_lexicon(tmp_path, ["cat\ta small animal", "cat\ta small animal"])
    lex = load_lexicon(path, PROFILE)
    assert len(lex.entries["cat"].definitions) == 1


def test_load_dedups_after_tokenization(tmp_path):
    path = write_lexicon(tmp_path, ["cat\tA small animal.", "cat\ta  small animal ."])
    lex = load_lexicon(path, PROFILE)
    assert len(lex.entries["cat"].definitions) == 1


def test_load_rejects_line_without_tab(tmp_path):
    path = write_lexicon(tmp_path, ["cat\ta small animal", "dog a loyal animal"])
    with pytest.raises(LexiconFormatError, match=":2"):
        load_lexicon(path, PROFILE)


def test_load_skips_comments_and_blanks(tmp_path):
    path = write_lexicon(tmp_path, ["# header", "", "cat\tan animal"])
    lex = load_lexicon(path, PROFILE)
    assert lex.headwords() == ["cat"]


def test_load_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with caplog.at_level("WARNING"):
        lex = load_lexicon(path, PROFILE)
    assert len(lex) == 0
    assert any("empty" in r.message for r in caplog.records)


def test_load_truncates_long_definitions(tmp_path):
    words = " ".join(f"w{i}" for i in range(80))
    path = write_lexicon(tmp_path, [f"cat\t{words}"])
    lex = load_lexicon(path, PROFILE, max_def_tokens=60)
    assert len(lex.entries["cat"].definitions[0]) == 60


def test_load_tokenizes_definitions(tmp_path):
    path = write_lexicon(tmp_path, ["cat\tA small animal."])
    lex = load_lexicon(path, PROFILE)
    assert lex.entries["cat"].definitions[0] == ("a", "small", "animal", ".")


def test_lexicon_save_roundtrip(tmp_path):
    path = write_lexicon(tmp_path, ["cat\ta pet", "ant\tan insect", "cat\ta whip"])
    lex = load_lexicon(path, PROFILE)
    out = tmp_path / "out.tsv"
    lex.save(out)
    again = load_lexicon(out, PROFILE)
    assert again.headwords() == lex.headwords()
    for w in lex.headwords():
        assert again.entries[w].definitions == lex.entries[w].definitions


def test_word_entry_rejects_empty_and_duplicate():
    entry = WordEntry("cat")
    assert entry.add(("a", "pet"))
    assert not entry.add(("a", "pet"))
    assert not entry.add(())
    assert len(entry.definitions) == 1


def make_lexicon(n_words, seed=0, max_defs=3):
    rng = np.random.default_rng(seed)
    lex = Lexicon()
    for i in range(n_words):
        word = f"word{i}"
        entry = WordEntry(word)
        for j in range(int(rng.integers(1, max_defs + 1))):
            entry.add((f"sense{j}", "of", word))
        lex.entries[word] = entry
    return lex


def test_largest_remainder_exact():
    assert largest_remainder_sizes(10, (0.8, 0.1, 0.1)) == [8, 1, 1]
    assert largest_remainder_sizes(0, (0.8, 0.1, 0.1)) == [0, 0, 0]
    assert largest_remainder_sizes(5, (0.8, 0.1, 0.1)) == [4, 1, 0]
    assert largest_remainder_sizes(7, (1 / 3, 1 / 3, 1 / 3)) == [3, 2, 2]


def test_largest_remainder_sums():
    rng = np.random.default_rng(4)
    for _ in range(200):
        total = int(rng.integers(0, 500))
        raw = rng.random(3) + 1e-3
        ratios = tuple(raw / raw.sum())
        sizes = largest_remainder_sizes(total, ratios)
        assert sum(sizes) == total
        assert all(abs(s - total * r) < 1.0 for s, r in zip(sizes, ratios))


def test_split_sizes_10_words():
    split = split_lexicon(make_lexicon(10), seed=0)
    assert (len(split.train), len(split.dev), len(split.test)) == (8, 1, 1)


def test_split_deterministic():
    lex = make_lexicon(37)
    a = split_lexicon(lex, seed=5)
    b = split_lexicon(lex, seed=5)
    assert a.train.headwords() == b.train.headwords()
    assert a.dev.headwords() == b.dev.headwords()
    assert a.test.headwords() == b.test.headwords()


def test_split_seed_changes_assignment():
    lex = make_lexicon(50)
    a = split_lexicon(lex, seed=0)
    b = split_lexicon(lex, seed=1)
    assert a.train.headwords() != b.train.headwords()


def test_split_disjoint_and_complete_property():
    rng = np.random.default_rng(6)
    for _ in range(100):
        lex = make_lexicon(int(rng.integers(1, 120)), seed=int(rng.integers(1 << 30)))
        seed = int(rng.integers(1 << 30))
        split = split_lexicon(lex, seed=seed)
        train = set(split.train.headwords())
        dev = set(split.dev.headwords())
        test = set(split.test.headwords())
        assert not (train & dev) and not (train & test) and not (dev & test)
        assert train | dev | test == set(lex.headwords())
        for part in (split.train, split.dev, split.test):
            for w in part.headwords():
                assert part.entries[w].definitions == lex.entries[w].definitions


def test_split_rejects_bad_ratios():
    with pytest.raises(ConfigError):
        split_lexicon(make_lexicon(10), ratios=(0.5, 0.4, 0.2))


def test_stats_ppw():
    lex = Lexicon()
    for word, n in [("a", 2), ("b", 3), ("c", 1), ("d", 1)]:
        entry = WordEntry(word)
        for j in range(n):
            entry.add((f"def{j}",))
        lex.entries[word] = entry
    stats = lexicon_stats(lex)
    assert stats.word_count == 4
    assert stats.ppw == 0.5
    assert stats.definition_count == 7
    assert stats.mean_defs_per_word == 7 / 4


def test_stats_all_monosemous():
    lex = Lexicon()
    for word in ("a", "b"):
        entry = WordEntry(word)
        entry.add(("x",))
        lex.entries[word] = entry
    assert lexicon_stats(lex).ppw == 0.0


def test_stats_empty_lexicon():
    stats = lexicon_stats(Lexicon())
    assert stats.word_count == 0 and stats.ppw == 0.0 and stats.mean_defs_per_word == 0.0


def test_stats_stable_under_line_reordering(tmp_path):
    lines = ["cat\ta pet", "dog\ta friend", "cat\ta whip", "ant\tan insect"]
    a = lexicon_stats(load_lexicon(write_lexicon(tmp_path, lines, "a.tsv"), PROFILE))
    b = lexicon_stats(load_lexicon(write_lexicon(tmp_path, lines[::-1], "b.tsv"), PROFILE))
    assert a == b


def test_stats_json_fields():
    import json

    stats = lexicon_stats(make_lexicon(10))
    record = json.loads(stats.to_json())
    assert set(record) == {"word_count", "ppw", "definition_count", "mean_defs_per_word"}
