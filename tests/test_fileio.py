"""Every output file is written atomically: whole or not at all. Text input
is split into lines as text-mode `open` splits it."""

import os

import numpy as np
import pytest

from defmod.cli import _write_manifest, main
from defmod.defgen import save_generated
from defmod.embeddings import EmbeddingTable, SenseTable
from defmod.errors import ConfigError
from defmod.fileio import atomic_write, read_lines
from defmod.lexicon import Lexicon, WordEntry
from defmod.matcher import SenseDefPair, save_pairs
from defmod.metrics import EvalReport
from defmod.textprep import Vocabulary


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
    "lexicon split": lambda path: Lexicon("src", "en", {"cat": WordEntry("cat", [("a", "pet")])}).save(path),
    "pairs": lambda path: save_pairs([SenseDefPair("cat", 0, np.ones(2), ("a", "pet"))], path),
    "generated": lambda path: save_generated([("cat", 0, ("a", "pet"))], path),
    "report": lambda path: _report().save(path),
    "word scores": lambda path: _report().save_word_scores(path),
    "manifest": lambda path: _write_manifest(path, "stats", {"seed": 0}, [], []),
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
    assert read_lines(path, ConfigError) == expected
