"""Brute-force BLEU and rBLEU, kept apart from defmod.metrics on purpose.

Positional n-gram loops, no Counter, epsilon smoothing, brevity penalty
against the closest reference length with ties to the shorter one. The
benchmark compares defmod's scores with these to 1e-9.
"""

from __future__ import annotations

import math

EPSILON = 1e-9


def oracle_bleu(hyp, refs, max_n: int = 4) -> float:
    hyp = tuple(hyp)
    c = len(hyp)
    if c == 0:
        return 0.0
    orders = min(max_n, c)
    log_sum = 0.0
    for n in range(1, orders + 1):
        spans = [hyp[i:i + n] for i in range(c - n + 1)]
        clipped = 0
        for gram in set(spans):
            own = sum(1 for s in spans if s == gram)
            best = 0
            for ref in refs:
                ref = tuple(ref)
                best = max(best, sum(1 for i in range(len(ref) - n + 1)
                                     if ref[i:i + n] == gram))
            clipped += min(own, best)
        precision = clipped / len(spans)
        log_sum += math.log(precision if precision > 0.0 else EPSILON)
    closest = min((len(r) for r in refs), key=lambda length: (abs(length - c), length))
    brevity = 1.0 if c >= closest else math.exp(1.0 - closest / c)
    return 100.0 * brevity * math.exp(log_sum / orders)


def oracle_word_scores(generated, references) -> tuple[float, float]:
    """(BLEU, rBLEU) of one word: generated vs references, and the reverse."""
    b = sum(oracle_bleu(g, references) for g in generated) / len(generated)
    r = sum(oracle_bleu(ref, generated) for ref in references) / len(references)
    return b, r


def max_oracle_error(sets, word_scores) -> tuple[float, int]:
    """Largest |defmod - oracle| over (generated, references) sets, and the
    number of sets compared. `word_scores` is defmod.metrics.word_scores."""
    worst, n = 0.0, 0
    for generated, references in sets:
        generated = [tuple(g) for g in generated if g]
        if not generated:
            continue
        got = word_scores(generated, references)
        want_b, want_r = oracle_word_scores(generated, references)
        worst = max(worst, abs(got.bleu - want_b), abs(got.rbleu - want_r))
        n += 1
    return worst, n
