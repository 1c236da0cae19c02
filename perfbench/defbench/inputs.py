"""Seeded input generators for the three workloads, cached on disk by seed.

Each generator writes plain files in the formats the defmod pipeline reads
(raw text, lexicon TSV, token files, vocabularies, sense tables, pairs and
a model checkpoint). The same seed always gives byte-identical files, and
the amount of work they imply (token counts, sense counts, definition
lengths) does not depend on the seed, so timings compare across seeds.

Generation is never timed: `ensure_inputs` runs the generator in a child
process the first time a (workload, seed) pair is seen, so neither its time
nor its memory shows in the measured run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 4

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


def pseudo_words(rng: np.random.Generator, n: int, syllables: int = 3) -> list[str]:
    """n distinct lowercase pseudo-words of `syllables` consonant-vowel pairs.

    The length is fixed so that per-character work (the char-CNN over
    headwords) does not change with the seed.
    """
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        word = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                       + _VOWELS[rng.integers(len(_VOWELS))] for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


# --- desk: two-topic corpus with planted ambiguous words -------------------

@dataclass(frozen=True)
class DeskShape:
    topic_words: int = 50      # per topic
    planted: int = 8           # ambiguous headwords, one sense per topic
    lines: int = 1500          # corpus lines, alternating topics
    line_len: int = 16         # topic tokens per line
    inserts: int = 2           # planted-word occurrences per line
    gloss_len: int = 3         # content words in each topic's definition


def write_desk(out: Path, seed: int, shape: DeskShape = DeskShape()) -> dict:
    """corpus.txt (raw text) and lexicon.tsv; returns the planted layout."""
    rng = np.random.default_rng([seed, 1])
    pool = pseudo_words(rng, 2 * shape.topic_words + shape.planted)
    topics = [pool[:shape.topic_words], pool[shape.topic_words:2 * shape.topic_words]]
    planted = pool[2 * shape.topic_words:]
    glosses = [[str(w) for w in rng.choice(t, size=shape.gloss_len, replace=False)]
               for t in topics]
    lines = []
    for li in range(shape.lines):
        topic = topics[li % 2]
        words = [topic[i] for i in rng.integers(0, len(topic), shape.line_len)]
        for pos in sorted(rng.integers(1, shape.line_len - 1, shape.inserts), reverse=True):
            words.insert(int(pos), planted[rng.integers(len(planted))])
        comma = int(rng.integers(3, len(words) - 3))
        words[comma] += ","
        words[0] = words[0].capitalize()
        lines.append(" ".join(words) + ".")
    (out / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lex_lines = []
    for word in planted:
        for gloss in glosses:
            lex_lines.append(f"{word}\tA {' '.join(gloss)}")
    (out / "lexicon.tsv").write_text("\n".join(lex_lines) + "\n", encoding="utf-8")
    return {"topics": topics, "planted": planted, "glosses": glosses}


# --- zipf-vocab: a Zipf-distributed token stream ---------------------------

@dataclass(frozen=True)
class ZipfShape:
    types: int = 5000          # candidate types; about 2,050 are realized
    tokens: int = 3072         # three AdaGram chunks of 1,024 centers
    exponent: float = 0.5


def write_zipf(out: Path, seed: int, shape: ZipfShape = ZipfShape()) -> dict:
    """tokens.txt: one line of whitespace-separated tokens per 20 tokens."""
    rng = np.random.default_rng([seed, 2])
    words = pseudo_words(rng, shape.types)
    ranks = np.arange(1, shape.types + 1, dtype=np.float64)
    probs = ranks ** -shape.exponent
    probs /= probs.sum()
    ids = rng.choice(shape.types, size=shape.tokens, p=probs)
    tokens = [words[i] for i in ids]
    lines = [" ".join(tokens[i:i + 20]) for i in range(0, len(tokens), 20)]
    (out / "tokens.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"realized_types": int(len(set(ids.tolist())))}


# --- paper: paper-dimension checkpoint, sense table and pairs --------------

@dataclass(frozen=True)
class PaperShape:
    vocab: int = 20_000        # model vocabulary, specials included
    hidden: int = 300
    embedding: int = 300
    condition: int = 300
    layers: int = 2
    train_pairs: int = 32      # two batch-16 steps
    dev_pairs: int = 8
    def_lens: tuple = (8, 9, 10, 11, 12, 12, 10, 9)  # cycled; batch max is 12
    gen_senses: tuple = (1, 2, 3, 2)                 # retained senses per word
    test_senses: tuple = (2, 3, 1)
    train_words: int = 12
    max_prototypes: int = 5


def _paper_vocab_counts(rng: np.random.Generator, n_words: int) -> dict[str, int]:
    words = pseudo_words(rng, n_words)
    ranks = np.arange(1, n_words + 1, dtype=np.float64)
    counts = np.maximum(1, (1e6 * ranks ** -1.0).astype(np.int64))
    return dict(zip(words, counts.tolist()))


def write_paper(out: Path, seed: int, shape: PaperShape = PaperShape()) -> dict:
    """model.bin (+ .vocab, .chars), senses.tsv, train/dev pairs, test.tsv."""
    from defmod.defgen import DefModelConfig, build_char_vocab, init_model, save_checkpoint
    from defmod.embeddings import SenseTable
    from defmod.textprep import Vocabulary

    rng = np.random.default_rng([seed, 3])
    vocab = Vocabulary(_paper_vocab_counts(rng, shape.vocab - 4))
    content = vocab.words()[4:]
    zipf = np.arange(1, len(content) + 1, dtype=np.float64) ** -1.0
    zipf /= zipf.sum()

    n_head = shape.train_words + len(shape.gen_senses) + len(shape.test_senses)
    headwords = pseudo_words(np.random.default_rng([seed, 4]), n_head, syllables=4)
    train_words = headwords[:shape.train_words]
    gen_words = headwords[shape.train_words:shape.train_words + len(shape.gen_senses)]
    test_words = headwords[shape.train_words + len(shape.gen_senses):]

    sense_counts = {w: int(rng.integers(1, shape.max_prototypes + 1)) for w in train_words}
    sense_counts.update(zip(gen_words, rng.permutation(shape.gen_senses).tolist()))
    sense_counts.update(zip(test_words, rng.permutation(shape.test_senses).tolist()))
    table = SenseTable(shape.condition, shape.max_prototypes, prune_threshold=0.05)
    for word in headwords:
        k = sense_counts[word]
        vectors = rng.normal(size=(shape.max_prototypes, shape.condition))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        priors = np.zeros(shape.max_prototypes)
        priors[:k] = 1.0 / k
        table.add(word, vectors, priors)
    table.save(out / "senses.tsv")

    def definition(i: int) -> str:
        length = shape.def_lens[i % len(shape.def_lens)]
        return " ".join(content[j] for j in rng.choice(len(content), size=length, p=zipf))

    def write_pairs(path: Path, n: int) -> None:
        lines = ["#pairs v1"]
        for i in range(n):
            word = train_words[int(rng.integers(len(train_words)))]
            lines.append(f"{word}\t{int(rng.integers(sense_counts[word]))}\t{definition(i)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write_pairs(out / "train_pairs.tsv", shape.train_pairs)
    write_pairs(out / "dev_pairs.tsv", shape.dev_pairs)
    test_lines = [f"{w}\t{definition(i)}" for w in test_words for i in range(2)]
    (out / "test.tsv").write_text("\n".join(test_lines) + "\n", encoding="utf-8")
    (out / "gen_words.txt").write_text("\n".join(gen_words) + "\n", encoding="utf-8")

    chars = build_char_vocab(headwords)
    cfg = DefModelConfig(vocab=vocab, char_vocab=chars, condition_dim=shape.condition,
                         hidden=shape.hidden, layers=shape.layers,
                         token_embedding_dim=shape.embedding, max_def_len=max(shape.def_lens),
                         batch_size=16, max_epochs=1, patience=1, seed=seed)
    model = init_model(cfg)
    save_checkpoint(model, out / "model.bin")
    vocab.save(out / "model.bin.vocab")
    chars.save(out / "model.bin.chars")
    n_params = int(sum(p.data.size for p in model.params.values()))
    return {"params": n_params, "gen_words": gen_words, "test_words": test_words}


GENERATORS = {"desk": write_desk, "paper": write_paper, "zipf-vocab": write_zipf}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into `out` (created) and a layout.json."""
    out.mkdir(parents=True, exist_ok=True)
    layout = GENERATORS[workload](out, seed)
    layout = {"workload": workload, "seed": seed, "version": GENERATOR_VERSION, **layout}
    (out / "layout.json").write_text(json.dumps(layout, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return layout


def ensure_inputs(cache_root: Path, workload: str, seed: int, keep: int = 3) -> Path:
    """Return the cached input directory for (workload, seed), generating it
    in a child process when absent.

    Only the `keep` most recently used seeds per workload stay on disk; the
    paper checkpoint alone is about 110 MB.
    """
    root = cache_root / workload
    final = root / f"seed-{seed}-v{GENERATOR_VERSION}"
    if not (final / "layout.json").is_file():
        tmp = root / f".tmp-seed-{seed}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parents[1] / "run.py"),
             "--generate", workload, "--seed", str(seed), "--out", str(tmp)],
            check=True, stdout=subprocess.DEVNULL)
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    final.touch()
    others = sorted((d for d in root.iterdir() if d.is_dir() and d != final
                     and not d.name.startswith(".")),
                    key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in others[max(keep - 1, 0):]:
        shutil.rmtree(stale, ignore_errors=True)
    return final
