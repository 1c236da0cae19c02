"""Every output file is written atomically: whole or not at all. Text input
is split into lines as text-mode `open` splits it, and every text loader
either loads its input or raises ConfigError naming the file."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from defmod.cli import Run, main
from defmod.defgen import save_generated
from defmod.embeddings import EmbeddingTable, SenseTable
from defmod.errors import ConfigError
from defmod.fileio import atomic_write, read_lines
from defmod.lexicon import Lexicon, WordEntry, load_lexicon
from defmod.matcher import SenseDefPair, load_pairs, save_pairs
from defmod.metrics import EvalReport
from defmod.textprep import SPECIALS, StopwordSet, TokenizerProfile, Vocabulary


def _senses():
    table = SenseTable(dim=2, max_prototypes=2)
    table.add("cat", np.array([[0.5, -0.5], [1.0, 0.0]]), np.array([0.7, 0.3]))
    return table


def _report():
    return EvalReport(1, 0, (1.0,), (2.0,), (3.0,), 1, 0, {}, (("cat", 1.0, 2.0, 3.0),))


def _run(path, *argv):
    # main turns the failure into exit code 1.
    if main([*argv, "--output", str(path)]) != 0:
        raise OSError(f"{argv[0]} failed")


def _manifest(path):
    run = Run("stats", {"seed": 0})
    run.manifest_path = path
    run.manifest()


def _tokenize(path):
    src = path.with_name("corpus.txt")
    src.write_text("A cat.\n", encoding="utf-8")
    _run(path, "tokenize", "--input", str(src))


def _stats(path):
    lexicon = path.with_name("lexicon.tsv")
    lexicon.write_text("cat\ta pet\n", encoding="utf-8")
    _run(path, "stats", "--lexicon", str(lexicon))


WRITERS = {
    "vocabulary": lambda path: Vocabulary({"cat": 2}).save(path),
    "word table": lambda path: EmbeddingTable(2, ["cat"], np.ones((1, 2))).save(path),
    "sense table": lambda path: _senses().save(path),
    "lexicon split": lambda path: Lexicon({"cat": WordEntry("cat", [("a", "pet")])}).save(path),
    "pairs": lambda path: save_pairs([SenseDefPair("cat", 0, np.ones(2), ("a", "pet"))], path),
    "generated": lambda path: save_generated([("cat", 0, ("a", "pet"))], path),
    "report": lambda path: _report().save(path),
    "word scores": lambda path: _report().save_word_scores(path),
    "manifest": _manifest,
    "tokenized corpus": _tokenize,
    "stats": _stats,
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.txt"
    WRITERS[writer](path)
    fresh = path.read_bytes()
    path.write_text("old\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        WRITERS[writer](path)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    monkeypatch.undo()
    WRITERS[writer](path)
    assert path.read_bytes() == fresh


def test_atomic_write_failing_body_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path, binary=True) as f:
            f.write(b"partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("data", [b"", b"a", b"a\n", b"a\n\n", b"a\r\nb\rc", b"a\r", b"\r\n\r\n",
                                  "x\x85y\u2028z\x0cw\n".encode("utf-8")])
def test_read_lines_splits_as_text_mode_open(tmp_path, data):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as f:
        expected = [line.removesuffix("\n") for line in f]
    assert read_lines(path) == expected


# Each file is drawn valid, then has up to two of its fields replaced by any
# value of that field's kind, so that generated files often get past the
# header and the per-row checks into the per-word ones: index gaps, priors,
# repeated words and ids, misplaced special tokens.
_WORD = st.sampled_from(["cat", "dog", "a", "", "x y", "#c", *SPECIALS, "é"])
_NUMBER = st.sampled_from(["0", "1", "2", "-1", "0.5", "0.25", "1.0", "-0.5", "1.5", "1e308",
                           "1e400", "nan", "-inf", "x", "", "1 "])
_INDEX = st.sampled_from(["0", "1", "2", "3", "-1", "1.0", "x", ""])
_FIELD = {"word": _WORD, "number": _NUMBER, "index": _INDEX,
          "vector": st.lists(_NUMBER, max_size=3).map(" ".join),
          "text": st.sampled_from(["a pet", "", "!!"]) | st.text(max_size=8)}
_PRIORS = {1: [["1.0"]], 2: [["0.5", "0.5"], ["0.75", "0.25"]], 3: [["0.5", "0.25", "0.25"]]}


@st.composite
def _mutated(draw, rows, kinds, sep):
    """`rows` joined by `sep`, after up to two edits: a row dropped, or a
    field replaced by any value of its kind (`kinds[i]` names field i's)."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        if not rows:
            break
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(-1, len(row) - 1))
        if i < 0:
            rows.remove(row)
        else:
            row[i] = draw(_FIELD[kinds[min(i, len(kinds) - 1)]])
    return [sep.join(row) for row in rows]


def _header(valid, *invalid):
    return st.sampled_from([valid] * 2 * len(invalid) + list(invalid))


@st.composite
def _word_table(draw):
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(st.sampled_from(["cat", "dog", "a", "é"]), max_size=4))
    vector = st.lists(st.sampled_from(["0.5", "-1", "0.25", "2"]), min_size=dim, max_size=dim)
    rows = draw(_mutated([[w, *draw(vector)] for w in words], ["word", "number"], " "))
    return [draw(_header(f"{len(rows)} {dim}", f"{len(rows) + 1} {dim}", f"{len(rows)} 0",
                         "-1 2", "1", "x 2")), *rows]


@st.composite
def _sense_table(draw):
    dim, max_prototypes = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rows = []
    for word in draw(st.lists(st.sampled_from(["cat", "dog", "eel"]), max_size=3, unique=True)):
        priors = draw(st.sampled_from(_PRIORS[draw(st.integers(1, max_prototypes))]))
        rows += [[word, str(k), prior, " ".join(["0.5"] * dim)] for k, prior in enumerate(priors)]
    rows = draw(_mutated(draw(st.permutations(rows)), ["word", "index", "number", "vector"], "\t"))
    return [draw(_header(f"#senses v1 {dim} {max_prototypes}", f"#senses v1 0 {max_prototypes}",
                         f"#senses v1 {dim} 0", "#senses v1 2", "#senses v2 1 1")), *rows]


@st.composite
def _vocabulary(draw):
    tokens = [*SPECIALS, *draw(st.lists(st.sampled_from(["cat", "dog", "a"]), max_size=3))]
    rows = draw(st.permutations([[token, str(i), "3"] for i, token in enumerate(tokens)]))
    return [draw(_header("#vocab v1", "#vocab")),
            *draw(_mutated(rows, ["word", "index", "index"], "\t"))]


_PAIRS = st.lists(st.sampled_from([["cat", "0", "a pet"], ["cat", "1", "a unix command"],
                                   ["dog", "0", "a pet"]]), max_size=4).flatmap(
    lambda rows: _mutated(rows, ["word", "index", "text"], "\t")).map(
    lambda rows: ["#pairs v1", *rows])
_LEXICON = st.lists(st.sampled_from([["cat", "a pet"], ["cat", "a unix command"], ["dog", "!!"],
                                     ["# comment"]]), max_size=4).flatmap(
    lambda rows: _mutated(rows, ["word", "text"], "\t"))


def _pairs_sources():
    senses = SenseTable(dim=2, max_prototypes=2)
    senses.add("cat", np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.6, 0.4]))
    senses.add("dog", np.array([[1.0, 1.0]]), np.array([1.0]))
    return senses, EmbeddingTable(2, ["cat", "dog"], np.eye(2))


_SENSE_SOURCE, _WORD_SOURCE = _pairs_sources()
# name -> (loader, lines in that format)
_LOADERS = {
    "word table": (EmbeddingTable.load, _word_table()),
    "sense table": (SenseTable.load, _sense_table()),
    "vocabulary": (Vocabulary.load, _vocabulary()),
    "pairs, sense table": (lambda path: load_pairs(path, _SENSE_SOURCE), _PAIRS),
    "pairs, word table": (lambda path: load_pairs(path, _WORD_SOURCE), _PAIRS),
    "lexicon": (lambda path: load_lexicon(path, TokenizerProfile()), _LEXICON),
    "stopwords": (StopwordSet.from_file, st.lists(_WORD | st.text(max_size=6))),
}


@st.composite
def _loader_input(draw):
    """(loader name, file bytes): its lines, now and then with a line of any
    text inserted or an undecodable byte."""
    name = draw(st.sampled_from(list(_LOADERS)))
    lines = draw(_LOADERS[name][1])
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    data = "\n".join(lines).encode("utf-8") + draw(st.sampled_from([b"\n", b"\r\n", b""]))
    if draw(st.sampled_from([False] * 19 + [True])):
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + b"\xff" + data[pos:]
    return name, data


@pytest.mark.parametrize("load, text", [
    (Vocabulary.load, "#vocab\n"), (Vocabulary.load, ""),
    (EmbeddingTable.load, "3\n"), (EmbeddingTable.load, ""),
    (SenseTable.load, "#senses v2 1 1\n"), (SenseTable.load, ""),
], ids=["vocabulary", "empty vocabulary", "word table", "empty word table", "sense table",
        "empty sense table"])
def test_table_header_errors_name_line_1(tmp_path, load, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:1: ")


@settings(max_examples=700, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_loader_input())
@example(case=("vocabulary", b"#vocab v1\n"))  # header only: no line to name
def test_text_loader_loads_or_raises_its_format_error_naming_the_file(tmp_path, case):
    """Each loader either loads its file or raises ConfigError (never another
    exception), and the message starts with the path."""
    name, data = case
    load, _ = _LOADERS[name]
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    try:
        load(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}:")
