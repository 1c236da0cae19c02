"""Definition embedding and sense-definition training-pair construction.

Definitions are embedded as the mean of their word vectors; pairs are then
built either definition-to-sense (each definition joins its nearest sense)
or sense-to-definition (each sense joins its nearest definition).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable, SenseTable, cosine
from .errors import ConfigError, UnrepresentableDefinitionError
from .fileio import atomic_write, numbers, read_lines
from .lexicon import Lexicon, WordEntry
from .textprep import StopwordSet

log = logging.getLogger(__name__)

PAIRS_HEADER = "#pairs v1"


class MatchMode(enum.Enum):
    """Direction of the sense-definition assignment."""

    D2S = "d2s"
    S2D = "s2d"


@dataclass(frozen=True, eq=False)
class SenseDefPair:
    """A training example: one sense vector paired with one definition."""

    headword: str
    sense_index: int
    sense_vector: np.ndarray
    definition: tuple[str, ...]

    def __post_init__(self):
        if self.sense_index < 0:
            raise ValueError("sense_index must be nonnegative")
        if not self.definition:
            raise ValueError("definition must be nonempty")


@dataclass(frozen=True)
class MatchSummary:
    """Counts reported by a pair-construction run."""

    entries_matched: int
    entries_skipped: int
    entries_empty: int
    pairs_built: int
    pairs_filtered: int = 0


def embed_definition(
    definition: tuple[str, ...] | list[str],
    table: EmbeddingTable,
    stops: StopwordSet,
) -> np.ndarray:
    """Mean vector of the definition's in-vocabulary, non-stopword tokens.

    Falls back to the mean over all in-vocabulary tokens when every covered
    token is a stopword. Raises UnrepresentableDefinitionError when no token
    is covered at all.
    """
    covered = [t for t in definition if t in table]
    if not covered:
        raise UnrepresentableDefinitionError(
            f"no token of {list(definition)!r} is in the embedding vocabulary")
    content = [t for t in covered if t not in stops]
    chosen = content if content else covered
    return np.mean([table.vector(t) for t in chosen], axis=0)


def match_entry(
    entry: WordEntry,
    senses: list[tuple[np.ndarray, float]],
    table: EmbeddingTable,
    stops: StopwordSet,
    mode: MatchMode,
) -> list[tuple[SenseDefPair, float]]:
    """Pairs of one entry, each with its winning cosine.

    Each representable definition is embedded once, and one (definitions x
    senses) cosine matrix is filled. D2S joins every definition to its row's
    nearest sense; S2D joins every sense to its column's nearest definition.
    `np.argmax` takes the first maximum, so ties go to the lowest sense index
    (D2S) or the first definition in entry order (S2D). Definitions with no
    covered token are skipped with a warning; zero representable definitions
    yield an empty list.
    """
    embs, kept = [], []
    for definition in entry.definitions:
        try:
            embs.append(embed_definition(definition, table, stops))
            kept.append(definition)
        except UnrepresentableDefinitionError:
            log.warning("%s: definition %r not representable, skipped",
                        entry.headword, " ".join(definition))
    if not kept:
        log.warning("%s: no representable definitions", entry.headword)
        return []
    sims = np.array([[cosine(emb, vec) for vec, _prior in senses] for emb in embs])
    if mode is MatchMode.D2S:
        best = sims.argmax(axis=1)
        return [(SenseDefPair(entry.headword, int(k), senses[k][0], definition), sims[d, k])
                for d, (k, definition) in enumerate(zip(best, kept))]
    best = sims.argmax(axis=0)
    return [(SenseDefPair(entry.headword, k, vec, kept[d]), sims[d, k])
            for k, (d, (vec, _prior)) in enumerate(zip(best, senses))]


def build_training_pairs(
    split: Lexicon,
    senses: SenseTable,
    table: EmbeddingTable | None,
    stops: StopwordSet,
    mode: MatchMode,
    min_similarity: float | None = None,
) -> tuple[list[SenseDefPair], MatchSummary]:
    """Match every entry of `split` against its retained senses.

    Definition embeddings use `table` when given, else each word's dominant
    sense vector. Entries whose headword has no sense vector are skipped and
    counted. `min_similarity`, when set, drops pairs whose winning cosine
    falls below it (off by default). Pairs come back sorted by headword,
    sense index, then definition order.
    """
    if table is None:
        table = senses.dominant_table()
    pairs: list[SenseDefPair] = []
    matched = skipped = empty = filtered = 0
    for headword in split.headwords():
        if headword not in senses:
            skipped += 1
            continue
        retained = [(vec, prior) for _k, vec, prior in senses.senses(headword)]
        scored = match_entry(split.entries[headword], retained, table, stops, mode)
        entry_pairs = [p for p, sim in scored
                       if min_similarity is None or sim >= min_similarity]
        filtered += len(scored) - len(entry_pairs)
        if not entry_pairs:
            empty += 1
            continue
        matched += 1
        # Stable sort: D2S pairs arrive in definition order, so equal sense
        # indices keep that order.
        entry_pairs.sort(key=lambda p: p.sense_index)
        pairs.extend(entry_pairs)
    if skipped:
        log.warning("%d entries had no sense vector and were skipped", skipped)
    summary = MatchSummary(matched, skipped, empty, len(pairs), filtered)
    return pairs, summary


def build_base_pairs(
    split: Lexicon,
    table: EmbeddingTable,
) -> tuple[list[SenseDefPair], MatchSummary]:
    """Single-sense pairs: every definition conditioned on its headword vector.

    Entries whose headword lacks a vector are skipped and counted. Pairs come
    back sorted by headword, then definition order, with sense_index 0.
    """
    pairs: list[SenseDefPair] = []
    matched = skipped = 0
    for headword in split.headwords():
        if headword not in table:
            skipped += 1
            continue
        vec = table.vector(headword)
        for definition in split.entries[headword].definitions:
            pairs.append(SenseDefPair(headword, 0, vec, definition))
        matched += 1
    if skipped:
        log.warning("%d entries had no word vector and were skipped", skipped)
    summary = MatchSummary(matched, skipped, 0, len(pairs))
    return pairs, summary


def save_pairs(pairs: list[SenseDefPair], path: str | Path) -> None:
    """Write pairs as TSV: headword, sense index, space-joined definition."""
    with atomic_write(path) as f:
        f.write(PAIRS_HEADER + "\n")
        for p in pairs:
            f.write(f"{p.headword}\t{p.sense_index}\t{' '.join(p.definition)}\n")


def load_pairs(
    path: str | Path,
    source: SenseTable | EmbeddingTable,
) -> list[SenseDefPair]:
    """Read a pairs TSV, resolving condition vectors from `source`.

    Line 1 must be the `#pairs v1` header; later `#` lines are comments.
    The sense index selects one of the headword's retained senses; a word
    table holds one, index 0, the headword's own vector. A missing header,
    malformed lines, headwords `source` does not hold, and indices outside
    the retained senses raise ConfigError with their number.
    """
    lines = read_lines(path) or [""]
    if lines[0] != PAIRS_HEADER:
        raise ConfigError(f"{path}:1: not a pairs file (header {lines[0]!r}, "
                          f"expected {PAIRS_HEADER!r})")
    pairs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 tab-separated fields")
        headword, index_text, def_text = parts
        (sense_index,) = numbers([index_text], int, path, lineno)
        definition = tuple(def_text.split())
        if not headword or not definition:
            raise ConfigError(f"{path}:{lineno}: empty field")
        if headword not in source:
            raise ConfigError(
                f"{path}:{lineno}: headword {headword!r} has no condition vector")
        retained = source.senses(headword)
        if not 0 <= sense_index < len(retained):
            raise ConfigError(
                f"{path}:{lineno}: sense index {sense_index} out of range "
                f"({len(retained)} retained senses for {headword!r})")
        pairs.append(SenseDefPair(headword, sense_index, retained[sense_index][1], definition))
    return pairs
