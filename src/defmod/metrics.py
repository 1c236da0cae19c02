"""Sentence BLEU, its recall variant, their harmonic mean, and eval reports.

Scores live on a 0-100 scale. A word's BLEU averages each generated
definition against the reference set; rBLEU swaps the roles and averages
each reference against the generated set; fBLEU is their harmonic mean.
Dataset scores average the per-word values, and evaluation repeats the
whole procedure over seeded runs, reporting mean and spread.
"""

from __future__ import annotations

import enum
import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable, SenseTable
from .errors import ConfigError, ScoringError
from .fileio import atomic_write
from .lexicon import Lexicon
from .defgen import (
    DefModel,
    GenConfig,
    generate_for_word,  # not called here; kept because perfbench's tracer wraps metrics.generate_for_word
    generate_seeded,
)

log = logging.getLogger(__name__)

EPSILON = 1e-9


class Smoothing(enum.Enum):
    """Zero-count handling for higher-order n-gram precisions."""

    NONE = "none"
    EPSILON = "epsilon"
    ADD_ONE_FOR_N_GE_2 = "add_one_for_n_ge_2"


@dataclass(frozen=True)
class BleuConfig:
    max_n: int = 4
    smoothing: Smoothing = Smoothing.EPSILON

    def __post_init__(self):
        if self.max_n < 1:
            raise ConfigError("max_n must be at least 1")


DEFAULT_BLEU = BleuConfig()


@dataclass(frozen=True)
class WordScore:
    headword: str
    bleu: float
    rbleu: float
    fbleu: float
    n_generated: int
    n_references: int


def _ngrams(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypothesis, references, cfg: BleuConfig = DEFAULT_BLEU) -> float:
    """Sentence BLEU of one hypothesis against one or more references.

    Modified n-gram precisions are clipped against the per-n-gram maximum
    reference count and combined by a geometric mean over orders up to
    min(max_n, |hypothesis|). The brevity penalty uses the reference length
    closest to the hypothesis length, ties going to the shorter reference.
    An empty hypothesis scores 0 with a warning.
    """
    hyp = tuple(hypothesis)
    refs = [tuple(r) for r in references]
    if not refs:
        raise ScoringError("references must be nonempty")
    if not hyp:
        log.warning("empty hypothesis scored as 0")
        return 0.0
    c = len(hyp)
    orders = min(cfg.max_n, c)
    log_sum = 0.0
    for n in range(1, orders + 1):
        best = Counter()  # per n-gram, its largest count in any one reference
        for ref in refs:
            best |= _ngrams(ref, n)
        total = c - n + 1
        clipped = sum(min(count, best[gram]) for gram, count in _ngrams(hyp, n).items())
        if cfg.smoothing is Smoothing.ADD_ONE_FOR_N_GE_2 and n >= 2:
            precision = (clipped + 1) / (total + 1)
        else:
            precision = clipped / total
        if precision == 0.0:
            if cfg.smoothing is Smoothing.EPSILON:
                precision = EPSILON
            else:
                return 0.0
        log_sum += np.log(precision)
    closest = min((len(ref) for ref in refs), key=lambda length: (abs(length - c), length))
    brevity = 1.0 if c >= closest else float(np.exp(1.0 - closest / c))
    return 100.0 * brevity * float(np.exp(log_sum / orders))


def fbleu(b: float, r: float) -> float:
    """Harmonic mean on the 0-100 scale; 0 whenever both inputs are 0."""
    if b + r == 0.0:
        return 0.0
    return 2.0 * b * r / (b + r)


def word_scores(generated, references, cfg: BleuConfig = DEFAULT_BLEU,
                headword: str = "") -> WordScore:
    """Precision and recall BLEU for one word.

    bleu averages each generated definition against the references; rbleu
    averages each reference against the generated set.
    """
    generated = [tuple(g) for g in generated]
    references = [tuple(r) for r in references]
    if not generated or not references:
        raise ScoringError(f"{headword or 'word'}: nothing to score")
    b = float(np.mean([bleu(g, references, cfg) for g in generated]))
    r = float(np.mean([bleu(ref, generated, cfg) for ref in references]))
    return WordScore(headword, b, r, fbleu(b, r), len(generated), len(references))


@dataclass(frozen=True)
class EvalReport:
    """Per-run dataset scores with cross-run aggregates.

    Dataset scores are means of per-word scores; the spread is the
    population standard deviation over runs.
    """

    runs: int
    base_seed: int
    bleu_runs: tuple[float, ...]
    rbleu_runs: tuple[float, ...]
    fbleu_runs: tuple[float, ...]
    scored_words: int
    skipped_words: int
    config: dict
    word_rows: tuple[tuple[str, float, float, float], ...]

    @property
    def bleu_mean(self) -> float:
        return float(np.mean(self.bleu_runs))

    @property
    def rbleu_mean(self) -> float:
        return float(np.mean(self.rbleu_runs))

    @property
    def fbleu_mean(self) -> float:
        return float(np.mean(self.fbleu_runs))

    def to_json(self) -> str:
        def stats(values):
            return {"mean": round(float(np.mean(values)), 6),
                    "std": round(float(np.std(values)), 6),
                    "per_run": [round(v, 6) for v in values]}

        payload = {
            "config": self.config,
            "runs": self.runs,
            "base_seed": self.base_seed,
            "bleu": stats(self.bleu_runs),
            "rbleu": stats(self.rbleu_runs),
            "fbleu": stats(self.fbleu_runs),
            "scored_words": self.scored_words,
            "skipped_words": self.skipped_words,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write(self.to_json() + "\n")

    def save_word_scores(self, path: str | Path) -> None:
        """Per-word TSV of cross-run mean scores."""
        with atomic_write(path) as f:
            for headword, b, r, h in self.word_rows:
                f.write(f"{headword}\t{b:.4f}\t{r:.4f}\t{h:.4f}\n")


def evaluate(
    model: DefModel,
    test: Lexicon,
    source: SenseTable | EmbeddingTable,
    gen_cfg: GenConfig,
    runs: int = 10,
    base_seed: int = 0,
    bleu_cfg: BleuConfig = DEFAULT_BLEU,
) -> EvalReport:
    """Generate and score definitions for every test headword, `runs` times.

    Run r samples with seed base_seed + r: sense k of the word at index i
    draws from its own stream `default_rng([base_seed + r, i, k])`. Every
    (run, word, sense) row is sampled in one `generate_seeded` call, whose
    blocks of rows are fixed by the inputs, so reruns are bit-identical.
    Words absent from the condition source are skipped and counted once.
    """
    if runs < 1:
        raise ConfigError("runs must be positive")
    words = [w for w in test.headwords() if w in source]
    skipped = len(test.headwords()) - len(words)
    if skipped:
        log.warning("%d test words have no condition vector and were skipped", skipped)
    if not words:
        raise ScoringError("no scorable test words")
    bleu_runs, rbleu_runs, fbleu_runs = [], [], []
    per_word = np.zeros((len(words), 3))
    generated = generate_seeded(model, words, source, gen_cfg,
                                [base_seed + run for run in range(runs)])
    for run_generated in generated:
        scores = [word_scores(definitions, test.entries[word].definitions,
                              bleu_cfg, headword=word)
                  for word, definitions in zip(words, run_generated)]
        bleu_runs.append(float(np.mean([s.bleu for s in scores])))
        rbleu_runs.append(float(np.mean([s.rbleu for s in scores])))
        fbleu_runs.append(float(np.mean([s.fbleu for s in scores])))
        per_word += np.array([[s.bleu, s.rbleu, s.fbleu] for s in scores])
    per_word /= runs
    config = {**asdict(gen_cfg), **asdict(bleu_cfg), "smoothing": bleu_cfg.smoothing.value}
    rows = tuple((w, float(b), float(r), float(h))
                 for w, (b, r, h) in zip(words, per_word))
    return EvalReport(runs, base_seed, tuple(bleu_runs), tuple(rbleu_runs),
                      tuple(fbleu_runs), len(words), skipped, config, rows)
