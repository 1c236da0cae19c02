"""Tests for BLEU, rBLEU, fBLEU, and evaluation reports."""

import json
import math

import numpy as np
import pytest

import defmod.defgen as defgen
from defmod.defgen import DefModelConfig, GenConfig, build_char_vocab, init_model, train_defmodel
from defmod.embeddings import EmbeddingTable, SenseTable
from defmod.errors import ScoringError
from defmod.lexicon import Lexicon, WordEntry
from defmod.matcher import SenseDefPair
from defmod.metrics import (
    BleuConfig,
    Smoothing,
    bleu,
    evaluate,
    fbleu,
    word_scores,
)
from defmod.textprep import Vocabulary

EPS_CFG = BleuConfig(max_n=4, smoothing=Smoothing.EPSILON)


def oracle_bleu(hyp, refs, max_n=4, smoothing="epsilon"):
    """Independent positional n-gram counter used to cross-check scores."""
    hyp = list(hyp)
    refs = [list(r) for r in refs]
    if not hyp:
        return 0.0
    orders = min(max_n, len(hyp))
    log_sum = 0.0
    for n in range(1, orders + 1):
        hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        clipped = 0
        for gram in set(hyp_grams):
            in_hyp = sum(1 for g in hyp_grams if g == gram)
            best = 0
            for ref in refs:
                ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
                best = max(best, sum(1 for g in ref_grams if g == gram))
            clipped += min(in_hyp, best)
        if smoothing == "add_one" and n >= 2:
            p = (clipped + 1) / (len(hyp_grams) + 1)
        else:
            p = clipped / len(hyp_grams)
        if p == 0.0:
            if smoothing == "epsilon":
                p = 1e-9
            else:
                return 0.0
        log_sum += math.log(p)
    c = len(hyp)
    best_len = None
    for ref in refs:
        if best_len is None or abs(len(ref) - c) < abs(best_len - c) or (
                abs(len(ref) - c) == abs(best_len - c) and len(ref) < best_len):
            best_len = len(ref)
    bp = 1.0 if c >= best_len else math.exp(1.0 - best_len / c)
    return 100.0 * bp * math.exp(log_sum / orders)


def random_instance(rng):
    vocab = [f"w{i}" for i in range(10)]
    hyp = tuple(rng.choice(vocab, size=rng.integers(1, 13)))
    refs = [tuple(rng.choice(vocab, size=rng.integers(1, 13)))
            for _ in range(rng.integers(1, 4))]
    return hyp, refs


def test_identical_hypothesis_scores_100():
    for cfg in (EPS_CFG, BleuConfig(smoothing=Smoothing.NONE)):
        assert bleu(("a", "small", "cat", "sits"), [("a", "small", "cat", "sits")], cfg) == 100.0


def test_no_overlap_scores_near_zero():
    score = bleu(("x", "y"), [("a", "b", "c")], EPS_CFG)
    assert 0.0 < score < 1e-6


def test_spec_sentence_matches_oracle():
    hyp = ("a", "small", "cat")
    refs = [("a", "small", "dog")]
    np.testing.assert_allclose(bleu(hyp, refs, EPS_CFG), oracle_bleu(hyp, refs), atol=1e-9)


def test_bleu_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(80):
        hyp, refs = random_instance(rng)
        np.testing.assert_allclose(
            bleu(hyp, refs, EPS_CFG), oracle_bleu(hyp, refs), atol=1e-9)


def test_bleu_add_one_matches_oracle():
    rng = np.random.default_rng(7)
    cfg = BleuConfig(max_n=4, smoothing=Smoothing.ADD_ONE_FOR_N_GE_2)
    for _ in range(40):
        hyp, refs = random_instance(rng)
        np.testing.assert_allclose(
            bleu(hyp, refs, cfg), oracle_bleu(hyp, refs, smoothing="add_one"), atol=1e-9)


def test_bleu_smoothing_none_zeroes_on_missing_order():
    cfg = BleuConfig(max_n=2, smoothing=Smoothing.NONE)
    assert bleu(("a", "b"), [("a", "c", "b")], cfg) == 0.0


def test_brevity_tie_prefers_shorter_reference():
    """Lengths 1 and 3 tie around a 2-token hypothesis; shorter wins, BP=1."""
    hyp = ("a", "b")
    refs = [("a",), ("a", "b", "c")]
    assert bleu(hyp, refs, BleuConfig(max_n=2, smoothing=Smoothing.EPSILON)) == 100.0


def test_brevity_penalty_applies_when_short():
    hyp = ("a",)
    refs = [("a", "b", "c")]
    expected = 100.0 * math.exp(1.0 - 3.0) * 1.0  # p1 = 1, c=1, r=3
    np.testing.assert_allclose(bleu(hyp, refs, EPS_CFG), expected, atol=1e-9)


def test_empty_hypothesis_scores_zero():
    assert bleu((), [("a",)], EPS_CFG) == 0.0


def test_empty_references_rejected():
    with pytest.raises(ScoringError):
        bleu(("a",), [], EPS_CFG)


def test_reference_order_invariance():
    rng = np.random.default_rng(3)
    for _ in range(25):
        hyp, refs = random_instance(rng)
        forward = bleu(hyp, refs, EPS_CFG)
        np.testing.assert_allclose(bleu(hyp, refs[::-1], EPS_CFG), forward, atol=1e-12)


def test_exact_match_iff_100_on_random_single_reference():
    rng = np.random.default_rng(9)
    for _ in range(60):
        hyp, refs = random_instance(rng)
        ref = refs[0]
        score = bleu(hyp, [ref], EPS_CFG)
        assert (abs(score - 100.0) < 1e-9) == (hyp == ref)


def test_fbleu_identities():
    np.testing.assert_allclose(fbleu(12.12, 11.55), 11.83, atol=0.005)
    for x in (0.0, 1.0, 37.5, 100.0):
        np.testing.assert_allclose(fbleu(x, x), x, atol=1e-12)
    assert fbleu(0.0, 50.0) == 0.0
    assert fbleu(0.0, 0.0) == 0.0


def test_fbleu_bounds_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        b, r = rng.uniform(0, 100, size=2)
        f = fbleu(b, r)
        assert f == fbleu(r, b)
        assert f <= 2 * min(b, r) + 1e-12
        assert f <= max(b, r) + 1e-12


def test_rbleu_monotone_in_coverage():
    """Adding a generated copy of an unmatched reference never hurts rbleu."""
    rng = np.random.default_rng(13)
    for _ in range(40):
        vocab = [f"w{i}" for i in range(6)]
        generated = [tuple(rng.choice(vocab, size=rng.integers(1, 6)))
                     for _ in range(rng.integers(1, 4))]
        refs = [tuple(rng.choice(vocab, size=rng.integers(1, 6)))
                for _ in range(rng.integers(2, 5))]
        unmatched = [r for r in refs if r not in generated]
        if not unmatched:
            continue
        target = unmatched[0]
        before = np.mean([bleu(r, generated, EPS_CFG) for r in refs])
        after = np.mean([bleu(r, generated + [target], EPS_CFG) for r in refs])
        assert after >= before - 1e-12


def test_word_scores_perfect_match():
    score = word_scores([("a", "pet")], [("a", "pet")], EPS_CFG, headword="cat")
    assert (score.bleu, score.rbleu, score.fbleu) == (100.0, 100.0, 100.0)


def test_word_scores_both_references_covered():
    refs = [("a", "furry", "pet"), ("a", "hunting", "animal")]
    score = word_scores(list(refs), refs, EPS_CFG)
    assert score.bleu == 100.0 and score.rbleu == 100.0


def test_word_scores_half_coverage():
    """One output matching ref A: precision perfect, recall near half."""
    ref_a = ("a", "furry", "pet")
    ref_b = ("x", "y", "z", "q")
    score = word_scores([ref_a], [ref_a, ref_b], EPS_CFG)
    assert score.bleu == 100.0
    np.testing.assert_allclose(score.rbleu, 50.0, atol=0.01)
    expected_r = np.mean([oracle_bleu(ref_a, [ref_a]), oracle_bleu(ref_b, [ref_a])])
    np.testing.assert_allclose(score.rbleu, expected_r, atol=1e-9)
    np.testing.assert_allclose(score.fbleu, fbleu(score.bleu, score.rbleu), atol=1e-12)


def test_word_scores_empty_rejected():
    with pytest.raises(ScoringError):
        word_scores([], [("a",)], EPS_CFG)
    with pytest.raises(ScoringError):
        word_scores([("a",)], [], EPS_CFG)


@pytest.fixture(scope="module")
def memorizing_setup():
    """A model overfit to one-word lexicon plus its condition table."""
    vocab = Vocabulary({"a": 5, "furry": 4, "pet": 3})
    char_vocab = build_char_vocab(["cat"])
    cfg = DefModelConfig(vocab, char_vocab, condition_dim=3, hidden=16, layers=2,
                         token_embedding_dim=8, batch_size=1, max_epochs=300,
                         patience=300, lr=0.01, seed=2)
    definition = ("a", "furry", "pet")
    condition = np.array([1.0, -0.5, 0.25])
    pairs = [SenseDefPair("cat", 0, condition, definition)]
    model, _ = train_defmodel(init_model(cfg), pairs)
    table = EmbeddingTable(3, ["cat"], condition[None, :])
    lex = Lexicon()
    entry = WordEntry("cat", [])
    entry.add(definition)
    lex.entries["cat"] = entry
    return model, lex, table


def test_evaluate_perfect_model(memorizing_setup):
    model, lex, table = memorizing_setup
    report = evaluate(model, lex, table, GenConfig(), runs=2, base_seed=0)
    assert report.fbleu_runs == (100.0, 100.0)
    assert report.scored_words == 1 and report.skipped_words == 0


def test_evaluate_deterministic(memorizing_setup):
    model, lex, table = memorizing_setup
    first = evaluate(model, lex, table, GenConfig(), runs=2, base_seed=5)
    second = evaluate(model, lex, table, GenConfig(), runs=2, base_seed=5)
    assert first == second


def test_evaluate_skips_words_without_conditions(memorizing_setup):
    model, lex, table = memorizing_setup
    bigger = Lexicon()
    bigger.entries = dict(lex.entries)
    extra = WordEntry("orphan", [])
    extra.add(("a", "pet"))
    bigger.entries["orphan"] = extra
    report = evaluate(model, bigger, table, GenConfig(), runs=1)
    assert report.skipped_words == 1
    assert report.scored_words == 1


def test_evaluate_report_serialization(memorizing_setup, tmp_path):
    model, lex, table = memorizing_setup
    report = evaluate(model, lex, table, GenConfig(), runs=2, base_seed=0)
    payload = json.loads(report.to_json())
    assert payload["runs"] == 2
    assert payload["bleu"]["mean"] == pytest.approx(report.bleu_mean)
    assert payload["config"]["temperature"] == 0.1
    assert payload["config"]["smoothing"] == "epsilon"

    tsv = tmp_path / "words.tsv"
    report.save_word_scores(tsv)
    line = tsv.read_text(encoding="utf-8").strip()
    assert line.startswith("cat\t")
    json_path = tmp_path / "report.json"
    report.save(json_path)
    assert json.loads(json_path.read_text(encoding="utf-8")) == payload


def test_evaluate_multisense_source(memorizing_setup):
    """A sense table source yields one generated definition per sense."""
    model, lex, _table = memorizing_setup
    senses = SenseTable(3, 2)
    senses.add("cat", np.array([[1.0, -0.5, 0.25], [0.0, 1.0, 0.0]]),
               np.array([0.6, 0.4]))
    report = evaluate(model, lex, senses, GenConfig(), runs=1)
    assert report.scored_words == 1
    # The matching sense reproduces the sole reference, so recall is perfect.
    assert report.rbleu_runs[0] == 100.0


def test_evaluate_report_spanning_two_blocks_is_byte_identical(memorizing_setup, tmp_path,
                                                               monkeypatch):
    """Two runs over 35 words are 70 rows, so the sampler steps two blocks."""
    trained, _lex, _table = memorizing_setup
    model = init_model(trained.config)  # untrained, so runs differ
    words = [f"cat{i}" for i in range(35)]
    rng = np.random.default_rng(6)
    table = EmbeddingTable(3, words, rng.normal(size=(35, 3)))
    big = Lexicon()
    for word in words:
        big.entries[word] = WordEntry(word, [])
        big.entries[word].add(("a", "furry", "pet"))
    blocks = []
    sample_block = defgen._sample_block

    def counting_block(model, conditions, *rest):
        blocks.append(len(conditions))
        return sample_block(model, conditions, *rest)

    monkeypatch.setattr(defgen, "_sample_block", counting_block)
    cfg = GenConfig(temperature=1.0, max_len=6)
    files = []
    for name in ("first", "second"):
        report = evaluate(model, big, table, cfg, runs=2, base_seed=3)
        report.save(tmp_path / f"{name}.json")
        report.save_word_scores(tmp_path / f"{name}.tsv")
        files.append(((tmp_path / f"{name}.json").read_bytes(),
                      (tmp_path / f"{name}.tsv").read_bytes()))
    assert blocks == [64, 6, 64, 6]
    assert files[0] == files[1]
    assert report.scored_words == 35 and len(set(report.bleu_runs)) == 2
