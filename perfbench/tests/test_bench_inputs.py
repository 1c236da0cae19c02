"""Seeded input generators are deterministic; the BLEU oracle is exact."""

import numpy as np
import pytest

import _paths  # noqa: F401

from defbench.inputs import PaperShape, generate, write_desk, write_paper, write_zipf
from defbench.oracle import max_oracle_error
from defmod.metrics import word_scores

SMALL_PAPER = PaperShape(vocab=60, hidden=6, embedding=5, condition=4, train_pairs=4,
                         dev_pairs=2, train_words=3)


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("writer", [write_desk, write_zipf])
def test_text_generators_repeat_for_a_seed(tmp_path, writer):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    writer(tmp_path / "a", 5)
    writer(tmp_path / "b", 5)
    writer(tmp_path / "c", 6)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_paper_generator_repeats_for_a_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_paper(tmp_path / "a", 3, SMALL_PAPER)
    write_paper(tmp_path / "b", 3, SMALL_PAPER)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert "model.bin" in _files(tmp_path / "a")


def test_desk_layout_plants_every_word_in_both_topics(tmp_path):
    layout = generate("desk", 2, tmp_path)
    corpus = (tmp_path / "corpus.txt").read_text(encoding="utf-8").lower().splitlines()
    for word in layout["planted"]:
        lines = [i for i, line in enumerate(corpus) if f" {word} " in f" {line} "]
        assert {i % 2 for i in lines} == {0, 1}
    lexicon = (tmp_path / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lexicon) == 2 * len(layout["planted"])


def test_oracle_matches_defmod_on_random_sets():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(8)]

    def sentence():
        return tuple(vocab[i] for i in rng.integers(0, 8, rng.integers(1, 10)))

    sets = [([sentence() for _ in range(rng.integers(1, 4))],
             [sentence() for _ in range(rng.integers(1, 4))]) for _ in range(60)]
    worst, n = max_oracle_error(sets, word_scores)
    assert n == 60 and worst <= 1e-9
