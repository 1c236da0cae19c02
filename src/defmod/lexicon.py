"""Word-definition dataset ingestion, word-disjoint splits, and statistics."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

from pathlib import Path

from .errors import ConfigError, LexiconFormatError
from .fileio import atomic_write, read_lines
from .textprep import TokenizerProfile, tokenize

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_RATIOS = (0.8, 0.1, 0.1)
DEFAULT_MAX_DEF_TOKENS = 60


@dataclass
class WordEntry:
    """A headword with its deduplicated, tokenized reference definitions."""

    headword: str
    definitions: list[tuple[str, ...]] = field(default_factory=list)

    def add(self, definition: tuple[str, ...]) -> bool:
        """Append a definition unless it is empty or a duplicate."""
        if not definition or definition in self.definitions:
            return False
        self.definitions.append(definition)
        return True


@dataclass
class Lexicon:
    """Headwords mapped to their definitions."""

    entries: dict[str, WordEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, headword: str) -> bool:
        return headword in self.entries

    def headwords(self) -> list[str]:
        return sorted(self.entries)

    def definition_count(self) -> int:
        return sum(len(e.definitions) for e in self.entries.values())

    def subset(self, headwords) -> "Lexicon":
        return Lexicon({w: self.entries[w] for w in sorted(headwords)})

    def save(self, path: str | Path) -> None:
        """Write as the lexicon TSV format, sorted by headword."""
        with atomic_write(path) as f:
            for word in self.headwords():
                for definition in self.entries[word].definitions:
                    f.write(f"{word}\t{' '.join(definition)}\n")


@dataclass
class SplitLexicon:
    train: Lexicon
    dev: Lexicon
    test: Lexicon


@dataclass
class DatasetStats:
    word_count: int
    ppw: float
    definition_count: int
    mean_defs_per_word: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "word_count": self.word_count,
                "ppw": round(self.ppw, 6),
                "definition_count": self.definition_count,
                "mean_defs_per_word": round(self.mean_defs_per_word, 6),
            }
        )


def load_lexicon(
    path: str | Path,
    profile: TokenizerProfile,
    max_def_tokens: int = DEFAULT_MAX_DEF_TOKENS,
) -> Lexicon:
    """Read a `headword<TAB>definition` TSV into a Lexicon.

    Lines are grouped by headword, definitions tokenized with `profile`
    and deduplicated. `#` comment lines and blank lines are skipped; a
    line without a TAB raises LexiconFormatError naming the line number.
    Definitions longer than `max_def_tokens`, which must be at least 1, are
    truncated with a warning.
    """
    if max_def_tokens < 1:
        raise ConfigError(f"max_def_tokens must be at least 1, got {max_def_tokens}")
    lex = Lexicon()
    truncated = 0
    for lineno, line in enumerate(read_lines(path, LexiconFormatError), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        headword, sep, text = line.partition("\t")
        if not sep:
            raise LexiconFormatError(f"{path}:{lineno}: no TAB separator")
        headword = headword.strip()
        if not headword:
            raise LexiconFormatError(f"{path}:{lineno}: empty headword")
        definition = tuple(tokenize(text, profile))
        if not definition:
            log.warning("%s:%d: definition empty after tokenization, dropped", path, lineno)
            continue
        if len(definition) > max_def_tokens:
            definition = definition[:max_def_tokens]
            truncated += 1
        entry = lex.entries.get(headword)
        if entry is None:
            entry = lex.entries[headword] = WordEntry(headword)
        entry.add(definition)
    if truncated:
        log.warning("%s: truncated %d definitions to %d tokens", path, truncated, max_def_tokens)
    if not lex.entries:
        log.warning("%s: empty lexicon", path)
    return lex


def largest_remainder_sizes(total: int, ratios: tuple[float, ...]) -> list[int]:
    """Integer partition of `total` proportional to `ratios`.

    Floors first, then hands out the remaining units by largest fractional
    remainder; remainder ties go to the earlier ratio position.
    """
    exact = [total * r for r in ratios]
    sizes = [int(x) for x in exact]
    leftovers = total - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in order[:leftovers]:
        sizes[i] += 1
    return sizes


def split_lexicon(
    lex: Lexicon,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitLexicon:
    """Partition headwords into train/dev/test, never splitting a word.

    Deterministic for a given seed; sizes follow largest-remainder
    rounding of the ratios, which must be three finite, nonnegative numbers
    that sum to 1.
    """
    if (len(ratios) != 3 or not all(math.isfinite(r) and r >= 0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ConfigError("split ratios must be three finite, nonnegative numbers "
                          f"that sum to 1, got {ratios}")
    words = lex.headwords()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(words))
    n_train, n_dev, n_test = largest_remainder_sizes(len(words), ratios)
    shuffled = [words[i] for i in order]
    return SplitLexicon(
        train=lex.subset(shuffled[:n_train]),
        dev=lex.subset(shuffled[n_train:n_train + n_dev]),
        test=lex.subset(shuffled[n_train + n_dev:]),
    )


def lexicon_stats(lex: Lexicon) -> DatasetStats:
    """Word count, proportion of polysemous words, and definition counts."""
    n_words = len(lex.entries)
    n_defs = lex.definition_count()
    n_poly = sum(1 for e in lex.entries.values() if len(e.definitions) >= 2)
    return DatasetStats(
        word_count=n_words,
        ppw=n_poly / n_words if n_words else 0.0,
        definition_count=n_defs,
        mean_defs_per_word=n_defs / n_words if n_words else 0.0,
    )
