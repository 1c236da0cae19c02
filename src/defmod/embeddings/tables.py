"""Embedding containers, cosine similarity, and their text file formats."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ConfigError, MissingWordError, ShapeError, ZeroVectorError
from ..fileio import atomic_write, numbers, read_lines

DEFAULT_PRUNE_THRESHOLD = 1e-3


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity u.v / (|u||v|), defined only for nonzero vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"cosine needs equal dims, got {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


class EmbeddingTable:
    """One dense vector per word, all of the same dimension."""

    def __init__(self, dim: int, words: list[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(words), dim):
            raise ShapeError(f"matrix shape {matrix.shape} does not match {len(words)} x {dim}")
        if not np.all(np.isfinite(matrix)):
            raise ConfigError("embedding vectors must be finite")
        self.dim = dim
        self._words = list(words)
        self._index = {w: i for i, w in enumerate(self._words)}
        if len(self._index) != len(self._words):
            raise ConfigError("duplicate words in embedding table")
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def words(self) -> list[str]:
        return list(self._words)

    def vector(self, word: str) -> np.ndarray:
        try:
            return self.matrix[self._index[word]]
        except KeyError:
            raise MissingWordError(word) from None

    def senses(self, word: str) -> list[tuple[int, np.ndarray, float]]:
        """The word's one sense, as a sense table's `senses` reports it."""
        return [(0, self.vector(word), 1.0)]

    def nearest(self, vector: np.ndarray, k: int = 10, exclude: set[str] = frozenset()) -> list[str]:
        """Words of the k most cosine-similar rows; zero rows never qualify."""
        norms = np.linalg.norm(self.matrix, axis=1)
        qn = np.linalg.norm(vector)
        if qn == 0.0:
            raise ZeroVectorError("cannot rank neighbors of a zero vector")
        safe = np.where(norms == 0.0, np.inf, norms)
        sims = (self.matrix @ vector) / (safe * qn)
        order = np.argsort(-sims)
        out = []
        for i in order:
            word = self._words[i]
            if word in exclude or norms[i] == 0.0:
                continue
            out.append(word)
            if len(out) == k:
                break
        return out

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write(f"{len(self._words)} {self.dim}\n")
            for word, row in zip(self._words, self.matrix):
                f.write(word + " " + " ".join(repr(float(x)) for x in row) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        lines = read_lines(path, ConfigError) or [""]
        header = lines[0].split()
        if len(header) != 2:
            raise ConfigError(f"{path}: expected '<vocab_size> <dim>' header")
        count, dim = numbers(header, int, path, 1, ConfigError)
        if count < 0 or dim < 1:
            raise ConfigError(f"{path}:1: expected a count >= 0 and a dim >= 1, "
                              f"found {count} {dim}")
        words, rows = [], []
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise ConfigError(f"{path}:{lineno}: bad row for {parts[0]!r}")
            if parts[0] in first_line:
                raise ConfigError(f"{path}:{lineno}: word {parts[0]!r} repeats line "
                                  f"{first_line[parts[0]]}")
            first_line[parts[0]] = lineno
            words.append(parts[0])
            rows.append(numbers(parts[1:], float, path, lineno, ConfigError))
        if len(words) != count:
            raise ConfigError(f"{path}: header promises {count} rows, found {len(words)}")
        return cls(dim, words, np.array(rows, dtype=np.float64).reshape(len(words), dim))


class SenseTable:
    """Up to max_prototypes sense vectors per word with stick-breaking priors.

    All prototypes are stored; `senses` exposes the retained view (prior at
    or above prune_threshold, and always the most probable prototype).
    """

    def __init__(self, dim: int, max_prototypes: int,
                 prune_threshold: float = DEFAULT_PRUNE_THRESHOLD):
        if dim < 1 or max_prototypes < 1:
            raise ConfigError("dim and max_prototypes must be positive")
        self.dim = dim
        self.max_prototypes = max_prototypes
        self.prune_threshold = prune_threshold
        self._entries: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def words(self) -> list[str]:
        return list(self._entries)

    def add(self, word: str, vectors: np.ndarray, priors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        priors = np.asarray(priors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim or vectors.shape[0] > self.max_prototypes:
            raise ShapeError(f"bad sense vectors shape {vectors.shape} for {word!r}")
        if priors.shape != (vectors.shape[0],):
            raise ShapeError(f"priors shape {priors.shape} does not match {vectors.shape[0]} prototypes")
        if not (np.isfinite(vectors).all() and np.isfinite(priors).all()):
            raise ConfigError(f"sense vectors and priors for {word!r} must be finite")
        # Bounding each prior first keeps their sum from overflowing.
        if np.any((priors < 0) | (priors > 1)) or abs(priors.sum() - 1.0) > 1e-6:
            raise ConfigError(f"priors for {word!r} must be nonnegative and sum to 1")
        self._entries[word] = (vectors, priors)

    def prototypes(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """All stored (vectors, priors) for a word, pruned or not."""
        try:
            return self._entries[word]
        except KeyError:
            raise MissingWordError(word) from None

    def senses(self, word: str) -> list[tuple[int, np.ndarray, float]]:
        """Retained (index, vector, prior) triples; never empty."""
        vectors, priors = self.prototypes(word)
        best = int(np.argmax(priors))
        return [
            (k, vectors[k], float(priors[k]))
            for k in range(len(priors))
            if priors[k] >= self.prune_threshold or k == best
        ]

    def word_vector(self, word: str) -> np.ndarray:
        """Vector of the most probable prototype; ties go to the lowest index."""
        vectors, priors = self.prototypes(word)
        return vectors[int(np.argmax(priors))]

    def dominant_table(self) -> EmbeddingTable:
        """One vector per word: its most probable prototype."""
        words = self.words()
        matrix = np.array([self.word_vector(w) for w in words]).reshape(len(words), self.dim)
        return EmbeddingTable(self.dim, words, matrix)

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write(f"#senses v1 {self.dim} {self.max_prototypes}\n")
            for word, (vectors, priors) in self._entries.items():
                for k, (vec, prior) in enumerate(zip(vectors, priors)):
                    f.write(f"{word}\t{k}\t{repr(float(prior))}\t"
                            + " ".join(repr(float(x)) for x in vec) + "\n")

    @classmethod
    def load(cls, path: str | Path,
             prune_threshold: float = DEFAULT_PRUNE_THRESHOLD) -> "SenseTable":
        """Rows may come in any order. A bad row is rejected at its own line;
        a word whose indices skip one, or whose priors `add` rejects, at its first."""
        lines = read_lines(path, ConfigError) or [""]
        header = lines[0].split()
        if header[:2] != ["#senses", "v1"] or len(header) != 4:
            raise ConfigError(f"{path}: expected '#senses v1 <dim> <max_prototypes>' header")
        dim, max_prototypes = numbers(header[2:], int, path, 1, ConfigError)
        if dim < 1 or max_prototypes < 1:
            raise ConfigError(f"{path}:1: expected a dim and a max_prototypes >= 1, "
                              f"found {dim} {max_prototypes}")
        table = cls(dim, max_prototypes, prune_threshold)
        # word -> index -> (line, prior, vector), words in order of first line
        rows: dict[str, dict[int, tuple[int, float, list[float]]]] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 tab-separated fields")
            word, k, prior, vec = parts
            (k,) = numbers([k], int, path, lineno, ConfigError)
            if not 0 <= k < max_prototypes:
                raise ConfigError(f"{path}:{lineno}: prototype index {k} of {word!r} is "
                                  f"outside 0..{max_prototypes - 1}")
            prototypes = rows.setdefault(word, {})
            if k in prototypes:
                raise ConfigError(f"{path}:{lineno}: prototype {k} of {word!r} repeats line "
                                  f"{prototypes[k][0]}")
            prior, *vec = numbers([prior, *vec.split(" ")], float, path, lineno, ConfigError)
            if len(vec) != dim:
                raise ConfigError(f"{path}:{lineno}: expected {dim} vector components, "
                                  f"found {len(vec)}")
            prototypes[k] = (lineno, prior, vec)
        for word, prototypes in rows.items():
            first, n = next(iter(prototypes.values()))[0], len(prototypes)
            if max(prototypes) != n - 1:  # n distinct indices >= 0 fill 0..n-1 exactly
                missing = next(k for k in range(n) if k not in prototypes)
                raise ConfigError(f"{path}:{first}: prototype indices of {word!r} skip {missing}")
            try:
                table.add(word, np.array([prototypes[k][2] for k in range(n)]),
                          np.array([prototypes[k][1] for k in range(n)]))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{first}: {exc}") from None
        return table
