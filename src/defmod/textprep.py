"""Tokenization, vocabulary construction, and stopword lists.

Shared by corpus training, lexicon ingestion, and metric computation, so
everything here is deterministic and pure.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .fileio import atomic_write, read_lines

UNK = "<unk>"
BOS = "<bos>"
EOS = "<eos>"
PAD = "<pad>"
SPECIALS = (UNK, BOS, EOS, PAD)

UNK_ID, BOS_ID, EOS_ID, PAD_ID = 0, 1, 2, 3

# Anything that is neither a word character nor whitespace counts as
# punctuation; underscore is included explicitly because \w covers it.
_PUNCT_RE = re.compile(r"[^\w\s]|_", re.UNICODE)


@dataclass(frozen=True)
class TokenizerProfile:
    """Deterministic tokenization rules for one language."""

    language_tag: str = "en"
    lowercase: bool = True
    punctuation_policy: str = "split_off"  # or "drop"

    def __post_init__(self):
        if self.punctuation_policy not in ("split_off", "drop"):
            raise ConfigError(
                f"unknown punctuation_policy: {self.punctuation_policy!r}"
            )


def tokenize(text: str, profile: TokenizerProfile) -> list[str]:
    """Split `text` into tokens according to `profile`.

    Idempotent on its own space-joined output; empty input gives [].
    """
    if profile.lowercase:
        text = text.lower()
    if profile.punctuation_policy == "split_off":
        text = _PUNCT_RE.sub(lambda m: f" {m.group(0)} ", text)
    else:
        text = _PUNCT_RE.sub(" ", text)
    return text.split()


class Vocabulary:
    """Token <-> id table with counts and reserved special tokens.

    Ids 0-3 are fixed to UNK/BOS/EOS/PAD; real tokens start at 4 and are
    assigned in (count desc, token asc) order so builds are deterministic.
    Unknown lookups resolve to UNK.
    """

    def __init__(self, counts: dict[str, int]):
        self._id_to_token = list(SPECIALS)
        self._token_to_id = {t: i for i, t in enumerate(SPECIALS)}
        self._counts = {t: 0 for t in SPECIALS}
        for token, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
            self._counts[token] = count

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def count(self, token: str) -> int:
        return self._counts.get(token, 0)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        get = self._token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def words(self) -> list[str]:
        """All tokens in id order; specials occupy ids 0-3."""
        return list(self._id_to_token)

    def digest(self) -> str:
        """Content hash; stable across save/load round-trips."""
        h = hashlib.sha256()
        for i, token in enumerate(self._id_to_token):
            h.update(f"{token}\t{i}\t{self._counts[token]}\n".encode("utf-8"))
        return h.hexdigest()

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write("#vocab v1\n")
            for i, token in enumerate(self._id_to_token):
                f.write(f"{token}\t{i}\t{self._counts[token]}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = read_lines(path, ConfigError) or [""]
        header = lines[0]
        if header != "#vocab v1":
            raise ConfigError(f"{path}: not a vocabulary file (header {header!r})")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                rows.append((parts[0], int(parts[1]), int(parts[2]), lineno))
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: expected integer id and count, found {parts[1:]!r}"
                ) from None
        rows.sort(key=lambda r: r[1])
        if [r[1] for r in rows] != list(range(len(rows))):
            i = next(i for i, r in enumerate(rows) if r[1] != i)
            raise ConfigError(f"{path}:{rows[i][3]}: vocabulary ids are not contiguous from 0 "
                              f"(found id {rows[i][1]} where id {i} belongs)")
        if tuple(r[0] for r in rows[:4]) != SPECIALS:  # a header-only file has no line to name
            wrong = next((r for r, special in zip(rows, SPECIALS) if r[0] != special), None)
            where = f"{path}:{wrong[3]}" if wrong else path
            raise ConfigError(f"{where}: ids 0-3 must be the special tokens {SPECIALS}")
        vocab = cls.__new__(cls)
        vocab._id_to_token = [r[0] for r in rows]
        vocab._token_to_id = {r[0]: r[1] for r in rows}
        if len(vocab._token_to_id) < len(rows):  # a token is listed twice; find where
            first_line = {}
            for lineno, line in enumerate(lines[1:], start=2):
                token = line.split("\t")[0]
                if line and token in first_line:
                    raise ConfigError(f"{path}:{lineno}: token {token!r} already listed "
                                      f"at line {first_line[token]}")
                first_line[token] = lineno
        vocab._counts = {r[0]: r[2] for r in rows}
        return vocab


def count_tokens(tokens: Iterable[str]) -> Counter:
    """Count occurrences; shard counts merge associatively with `+`."""
    counts = Counter(tokens)
    for special in SPECIALS:
        counts.pop(special, None)
    return counts


def build_vocab(tokens: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Build a Vocabulary from a token stream.

    Tokens with count >= min_count are kept, most frequent first, ties
    broken lexicographically.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    return Vocabulary({t: c for t, c in count_tokens(tokens).items() if c >= min_count})


@dataclass(frozen=True)
class StopwordSet:
    """Exact-membership stopword list."""

    tokens: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token in self.tokens

    @classmethod
    def empty(cls) -> "StopwordSet":
        return cls(frozenset())

    @classmethod
    def from_file(cls, path: str | Path) -> "StopwordSet":
        """One token per line; `#` starts a comment line."""
        return cls._parse(read_lines(path, ConfigError))

    @classmethod
    def default(cls, language_tag: str) -> "StopwordSet":
        """Small shipped list for `language_tag`; empty set if none exists."""
        candidate = resources.files("defmod.data.stopwords") / f"{language_tag}.txt"
        if not candidate.is_file():
            return cls.empty()
        return cls._parse(candidate.read_text(encoding="utf-8").splitlines())

    @classmethod
    def _parse(cls, lines: Iterable[str]) -> "StopwordSet":
        tokens = (line.strip() for line in lines)
        return cls(frozenset(t for t in tokens if t and not t.startswith("#")))
