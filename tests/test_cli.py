"""End-to-end tests for the command-line pipeline driver."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defmod.cli as cli
from defmod import errors
from defmod.cli import main
from defmod.defgen import (DefModelConfig, GenConfig, build_char_vocab, load_checkpoint,
                           save_checkpoint)
from defmod.embeddings import AdagramConfig, EmbeddingTable, SenseTable, SgnsConfig
from defmod.lexicon import load_lexicon
from defmod.matcher import load_pairs
from defmod.metrics import BleuConfig, Smoothing
from defmod.textprep import TokenizerProfile, Vocabulary, build_vocab

WORDS = ["bird", "cat", "dog", "fish", "mat", "rock", "sky", "sun", "tree", "pond"]

LEXICON = """\
bird\ta flying animal
cat\ta small feline pet
cat\ta unix command
dog\ta loyal animal
fish\tan aquatic animal
mat\ta floor covering
rock\ta solid mineral mass
sky\tthe space above earth
sun\tthe star nearest earth
tree\ta tall plant
pond\ta small body of water
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifact directory: lexicon, vector tables, splits, pairs."""
    root = tmp_path_factory.mktemp("cli")
    (root / "lex.tsv").write_text(LEXICON, encoding="utf-8")

    # The word table must cover definition tokens too, so that matching can
    # embed every definition.
    def_tokens = sorted({tok for line in LEXICON.splitlines()
                         for tok in line.split("\t")[1].split()})
    all_words = WORDS + [t for t in def_tokens if t not in WORDS]
    rng = np.random.default_rng(42)
    matrix = rng.normal(size=(len(all_words), 6))
    vectors = {w: matrix[i] for i, w in enumerate(all_words)}
    table = EmbeddingTable(6, all_words, matrix)
    table.save(root / "words.tsv")

    senses = SenseTable(dim=6, max_prototypes=3, prune_threshold=0.05)
    for w in WORDS:
        if w == "cat":
            senses.add(w, rng.normal(size=(2, 6)), np.array([0.6, 0.4]))
        else:
            senses.add(w, vectors[w][None, :], np.array([1.0]))
    senses.save(root / "senses.tsv")

    assert main(["split", "--lexicon", str(root / "lex.tsv"),
                 "--output-dir", str(root / "splits"),
                 "--ratios", "0.8,0.1,0.1", "--seed", "7"]) == 0
    assert main(["build-pairs", "--mode", "base",
                 "--lexicon", str(root / "splits" / "train.tsv"),
                 "--embeddings", str(root / "words.tsv"),
                 "--output", str(root / "base_pairs.tsv")]) == 0
    assert main(["build-pairs", "--mode", "d2s",
                 "--lexicon", str(root / "splits" / "train.tsv"),
                 "--senses", str(root / "senses.tsv"),
                 "--embeddings", str(root / "words.tsv"),
                 "--prune-threshold", "0.05",
                 "--output", str(root / "d2s_pairs.tsv")]) == 0
    return root


@pytest.fixture(scope="module")
def trained(work):
    """A tiny trained checkpoint plus its vocabulary files."""
    out = work / "model.bin"
    assert main(["train", "--model", "multisense",
                 "--pairs", str(work / "d2s_pairs.tsv"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--output", str(out),
                 "--hidden", "8", "--token-embedding-dim", "6",
                 "--max-epochs", "2", "--batch-size", "4"]) == 0
    return out


def test_tokenize_writes_tokens_and_manifest(tmp_path):
    src = tmp_path / "corpus.txt"
    src.write_text("The cat sat.\nA dog, a cat!\n", encoding="utf-8")
    out = tmp_path / "tokens.txt"
    assert main(["tokenize", "--input", str(src), "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "the cat sat .\na dog , a cat !\n")
    manifest = json.loads(
        (tmp_path / "tokens.txt.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "tokenize"
    assert str(src) in manifest["inputs"]
    assert manifest["inputs"][str(src)].startswith("sha256:")
    assert str(out) in manifest["outputs"]
    assert manifest["config"]["language"] == "en"


def test_tokenize_punctuation_drop(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("Stop, now!\n", encoding="utf-8")
    out = tmp_path / "t.txt"
    assert main(["tokenize", "--input", str(src), "--output", str(out),
                 "--punctuation", "drop"]) == 0
    assert out.read_text(encoding="utf-8") == "stop now\n"


def test_stats_prints_dataset_json(work, capsys):
    assert main(["stats", "--lexicon", str(work / "lex.tsv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["word_count"] == 10
    assert payload["definition_count"] == 11
    # One of ten headwords has more than one definition.
    assert payload["ppw"] == pytest.approx(0.1)
    assert payload["mean_defs_per_word"] == pytest.approx(1.1)


def test_stats_output_file_matches_stdout(work, tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert main(["stats", "--lexicon", str(work / "lex.tsv"),
                 "--output", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert out.read_text(encoding="utf-8").strip() == printed
    assert (tmp_path / "stats.json.manifest.json").is_file()


def test_split_reruns_are_byte_identical(work, tmp_path):
    for d in ("a", "b"):
        assert main(["split", "--lexicon", str(work / "lex.tsv"),
                     "--output-dir", str(tmp_path / d),
                     "--ratios", "0.8,0.1,0.1", "--seed", "7"]) == 0
    for name in ("train.tsv", "dev.tsv", "test.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("max_def_tokens", ["0", "-2"])
def test_split_token_limit_below_one_exits_2_writing_nothing(work, tmp_path, capsys,
                                                             max_def_tokens):
    out_dir = tmp_path / "s"
    assert main(["split", "--lexicon", str(work / "lex.tsv"), "--output-dir", str(out_dir),
                 "--max-def-tokens", max_def_tokens]) == 2
    assert f"error: max_def_tokens must be at least 1, got {max_def_tokens}" in \
        capsys.readouterr().err
    assert not out_dir.exists()


def test_split_is_headword_disjoint(work):
    profile = TokenizerProfile()
    parts = [load_lexicon(work / "splits" / name, profile)
             for name in ("train.tsv", "dev.tsv", "test.tsv")]
    sets = [set(p.headwords()) for p in parts]
    assert sets[0] & sets[1] == set()
    assert sets[0] & sets[2] == set()
    assert sets[1] & sets[2] == set()
    assert len(sets[0] | sets[1] | sets[2]) == 10


def test_split_seed_changes_assignment(work, tmp_path):
    assert main(["split", "--lexicon", str(work / "lex.tsv"),
                 "--output-dir", str(tmp_path / "other"),
                 "--ratios", "0.8,0.1,0.1", "--seed", "8"]) == 0
    ours = (work / "splits" / "train.tsv").read_bytes()
    theirs = (tmp_path / "other" / "train.tsv").read_bytes()
    assert ours != theirs


def test_base_pairs_cover_every_definition(work):
    table = EmbeddingTable.load(work / "words.tsv")
    pairs = load_pairs(work / "base_pairs.tsv", table)
    train = load_lexicon(work / "splits" / "train.tsv", TokenizerProfile())
    assert len(pairs) == train.definition_count()
    assert all(p.sense_index == 0 for p in pairs)


def test_d2s_pairs_resolve_against_sense_table(work):
    senses = SenseTable.load(work / "senses.tsv", prune_threshold=0.05)
    pairs = load_pairs(work / "d2s_pairs.tsv", senses)
    train = load_lexicon(work / "splits" / "train.tsv", TokenizerProfile())
    assert len(pairs) == train.definition_count()
    for p in pairs:
        retained = senses.senses(p.headword)
        np.testing.assert_allclose(p.sense_vector,
                                   retained[p.sense_index][1])


def test_build_pairs_min_similarity_filters(work, tmp_path):
    out = tmp_path / "filtered.tsv"
    assert main(["build-pairs", "--mode", "d2s",
                 "--lexicon", str(work / "splits" / "train.tsv"),
                 "--senses", str(work / "senses.tsv"),
                 "--embeddings", str(work / "words.tsv"),
                 "--prune-threshold", "0.05",
                 "--min-similarity", "1.1",
                 "--output", str(out)]) == 0
    senses = SenseTable.load(work / "senses.tsv", prune_threshold=0.05)
    assert load_pairs(out, senses) == []


def test_build_pairs_summary_counts_empty_entries_and_filtered_pairs(work, tmp_path, capsys):
    """A --min-similarity above every cosine drops every pair, which leaves
    every entry without pairs; the summary line counts both."""
    train = work / "splits" / "train.tsv"
    out = tmp_path / "filtered.tsv"
    assert main(["build-pairs", "--mode", "d2s", "--lexicon", str(train),
                 "--senses", str(work / "senses.tsv"), "--embeddings", str(work / "words.tsv"),
                 "--prune-threshold", "0.05", "--min-similarity", "1.1",
                 "--output", str(out)]) == 0
    senses = SenseTable.load(work / "senses.tsv", prune_threshold=0.05)
    n_pairs = len(load_pairs(work / "d2s_pairs.tsv", senses))
    n_words = len(load_lexicon(train, TokenizerProfile()).headwords())
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"matched 0 entries (0 skipped, {n_words} empty), "
        f"wrote 0 pairs ({n_pairs} filtered) to {out}")


def test_train_writes_checkpoint_vocabs_manifest(work, trained):
    assert trained.is_file()
    vocab = Vocabulary.load(work / "model.bin.vocab")
    chars = Vocabulary.load(work / "model.bin.chars")
    assert "animal" in vocab
    assert "c" in chars
    manifest = json.loads(
        (work / "model.bin.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["outputs"]) == {
        str(trained), str(work / "model.bin.vocab"),
        str(work / "model.bin.chars")}


def test_generate_writes_one_row_per_retained_sense(work, trained, tmp_path):
    out = tmp_path / "gen.tsv"
    assert main(["generate", "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--words", "cat", "dog",
                 "--output", str(out)]) == 0
    rows = [line.split("\t")
            for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r[0], r[1]) for r in rows] == [
        ("cat", "0"), ("cat", "1"), ("dog", "0")]


@pytest.mark.parametrize("flag, kind", [("--pairs", "training"), ("--dev-pairs", "dev")])
def test_train_with_an_empty_pairs_file_exits_2(work, tmp_path, capsys, flag, kind):
    empty = tmp_path / "empty.tsv"
    empty.write_text("#pairs v1\n", encoding="utf-8")
    files = {"--pairs": work / "base_pairs.tsv", "--dev-pairs": work / "base_pairs.tsv", flag: empty}
    assert main(["train", "--model", "base", *(str(a) for item in files.items() for a in item),
                 "--embeddings", str(work / "words.tsv"), "--output", str(tmp_path / "m.bin"),
                 "--hidden", "8", "--token-embedding-dim", "6", "--max-epochs", "1"]) == 2
    assert f"error: {empty}: no {kind} pairs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [empty]


def test_train_refuses_generated_definitions_as_pairs(work, trained, tmp_path, capsys):
    """generate writes the pairs' three columns without their header."""
    gen = tmp_path / "gen.tsv"
    model = ["--checkpoint", str(trained), "--vocab", str(work / "model.bin.vocab"),
             "--chars", str(work / "model.bin.chars")]
    assert main(["generate", *model, "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05", "--words", "cat", "dog",
                 "--output", str(gen)]) == 0
    out = tmp_path / "m.bin"
    assert main(["train", "--model", "multisense", "--pairs", str(gen),
                 "--senses", str(work / "senses.tsv"), "--prune-threshold", "0.05",
                 "--output", str(out), "--max-epochs", "1"]) == 2
    assert f"error: {gen}:1: not a pairs file" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_name("m.bin.manifest.json").exists()


def test_generate_is_seed_deterministic(work, trained, tmp_path):
    outs = []
    for name in ("g1.tsv", "g2.tsv"):
        out = tmp_path / name
        assert main(["generate", "--checkpoint", str(trained),
                     "--vocab", str(work / "model.bin.vocab"),
                     "--chars", str(work / "model.bin.chars"),
                     "--senses", str(work / "senses.tsv"),
                     "--prune-threshold", "0.05",
                     "--words", "cat", "--seed", "3",
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_generate_lexicon_twice_with_one_seed_writes_identical_files(work, trained, tmp_path):
    outs = []
    for name in ("g1.tsv", "g2.tsv"):
        out = tmp_path / name
        assert main(["generate", "--checkpoint", str(trained),
                     "--vocab", str(work / "model.bin.vocab"),
                     "--chars", str(work / "model.bin.chars"),
                     "--senses", str(work / "senses.tsv"),
                     "--prune-threshold", "0.05",
                     "--lexicon", str(work / "lex.tsv"), "--seed", "5",
                     "--temperature", "1.0",
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = [line.split("\t") for line in outs[0].decode("utf-8").splitlines()]
    assert [(r[0], r[1]) for r in rows][:3] == [("bird", "0"), ("cat", "0"), ("cat", "1")]
    assert len(rows) == len(WORDS) + 1


def test_evaluate_writes_report(work, trained, tmp_path):
    out = tmp_path / "report.json"
    ws = tmp_path / "word_scores.tsv"
    assert main(["evaluate", "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--test", str(work / "splits" / "test.tsv"),
                 "--runs", "2",
                 "--output", str(out), "--word-scores", str(ws)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["runs"] == 2
    assert len(report["bleu"]["per_run"]) == 2
    assert report["scored_words"] >= 1
    rows = [line.split("\t")
            for line in ws.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == report["scored_words"]
    assert all(len(r) == 4 for r in rows)


def _manifest_case(case, work, trained, tmp):
    """(argv, inputs, outputs, manifest path) for one command, every optional input given."""
    model = [("--checkpoint", trained), ("--vocab", work / "model.bin.vocab"),
             ("--chars", work / "model.bin.chars"), ("--senses", work / "senses.tsv")]
    prune = ["--prune-threshold", "0.05"]
    if case == "tokenize":
        (tmp / "corpus.txt").write_text("A cat.\n", encoding="utf-8")
        inputs, options = [("--input", tmp / "corpus.txt")], []
        outputs = [tmp / "tokens.txt"]
    elif case == "train-embeddings":
        (tmp / "tokens.txt").write_text("a b c a b c a b\n", encoding="utf-8")
        inputs = [("--tokens", tmp / "tokens.txt")]
        options = ["--mode", "sgns", "--dim", "4", "--epochs", "1", "--min-count", "1"]
        outputs = [tmp / "vectors.tsv"]
    elif case == "stats":
        inputs, options = [("--lexicon", work / "lex.tsv")], []
        outputs = [tmp / "stats.json"]
    elif case == "split":
        inputs, options = [("--lexicon", work / "lex.tsv")], ["--output-dir", str(tmp / "s")]
        outputs = [tmp / "s" / f"{name}.tsv" for name in ("train", "dev", "test")]
    elif case == "build-pairs":
        (tmp / "stop.txt").write_text("a\nthe\n", encoding="utf-8")
        inputs = [("--lexicon", work / "splits" / "train.tsv"), ("--senses", work / "senses.tsv"),
                  ("--embeddings", work / "words.tsv"), ("--stopwords", tmp / "stop.txt")]
        options = ["--mode", "d2s", *prune]
        outputs = [tmp / "pairs.tsv"]
    elif case == "train":
        shutil.copy(work / "base_pairs.tsv", tmp / "dev_pairs.tsv")
        inputs = [("--pairs", work / "base_pairs.tsv"), ("--dev-pairs", tmp / "dev_pairs.tsv"),
                  ("--embeddings", work / "words.tsv")]
        options = ["--model", "base", "--hidden", "8", "--token-embedding-dim", "6",
                   "--max-epochs", "1"]
        outputs = [tmp / "m.bin", tmp / "m.bin.vocab", tmp / "m.bin.chars"]
    elif case == "generate":
        inputs, options = [*model, ("--lexicon", work / "lex.tsv")], prune
        outputs = [tmp / "gen.tsv"]
    else:
        inputs = [*model, ("--test", work / "splits" / "test.tsv")]
        options = [*prune, "--runs", "1", "--word-scores", str(tmp / "scores.tsv")]
        outputs = [tmp / "report.json", tmp / "scores.tsv"]
    argv = [case, *options, *(str(arg) for pair in inputs for arg in pair)]
    if case == "split":
        return argv, inputs, outputs, tmp / "s" / "split.manifest.json"
    argv += ["--output", str(outputs[0])]
    return argv, inputs, outputs, outputs[0].with_name(outputs[0].name + ".manifest.json")


@pytest.mark.parametrize("case", list(cli.OPTIONS))
def test_manifest_lists_exactly_what_its_command_read_and_wrote(work, trained, tmp_path, case):
    argv, inputs, outputs, manifest_path = _manifest_case(case, work, trained, tmp_path)
    assert main(argv) == 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["command"] == case
    assert set(manifest["inputs"]) == {str(path) for _, path in inputs}
    assert set(manifest["outputs"]) == {str(p) for p in outputs}
    for digest in (*manifest["inputs"].values(), *manifest["outputs"].values()):
        assert digest.startswith("sha256:")


def _capture(monkeypatch, name):
    """Record the arguments of every call to `cli.<name>`, then make the call."""
    calls = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def _field_values(config):
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


def _assert_no_default(config):
    """Every field that has a default was set to something else."""
    for f in dataclasses.fields(config):
        assert getattr(config, f.name) != f.default, f.name


@pytest.mark.parametrize("mode", ["sgns", "adagram"])
def test_train_embeddings_settings_reach_the_library_config(tmp_path, monkeypatch, mode):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("a b c a b c a b\n" * 3, encoding="utf-8")
    calls = _capture(monkeypatch, f"train_{mode}")
    assert main(["train-embeddings", "--mode", mode, "--tokens", str(tokens),
                 "--output", str(tmp_path / "v.tsv"), "--dim", "3", "--window", "2",
                 "--negatives", "3", "--epochs", "2", "--lr", "0.05", "--min-count", "2",
                 "--seed", "9", "--max-prototypes", "3",
                 "--alpha", "0.2", "--prune-threshold", "0.2"]) == 0
    if mode == "sgns":
        expected = SgnsConfig(dim=3, window=2, negatives=3, epochs=2, initial_lr=0.05,
                              min_count=2, seed=9)
    else:
        expected = AdagramConfig(dim=3, window=2, epochs=2, initial_lr=0.05, min_count=2,
                                 seed=9, max_prototypes=3, concentration_alpha=0.2,
                                 prune_threshold=0.2)
    _assert_no_default(expected)
    [(args, _)] = calls
    assert args[1] == expected


def test_train_settings_reach_the_model_config(work, tmp_path, monkeypatch):
    calls = _capture(monkeypatch, "init_model")
    assert main(["train", "--model", "base", "--pairs", str(work / "base_pairs.tsv"),
                 "--embeddings", str(work / "words.tsv"), "--output", str(tmp_path / "m.bin"),
                 "--hidden", "7", "--layers", "1", "--token-embedding-dim", "5",
                 "--max-def-len", "9", "--lr", "0.002", "--batch-size", "3",
                 "--max-epochs", "1", "--patience", "2", "--seed", "4",
                 "--min-count", "2"]) == 0
    [((config,), _)] = calls
    pairs = load_pairs(work / "base_pairs.tsv", EmbeddingTable.load(work / "words.tsv"))
    assert config.vocab.digest() == build_vocab(
        (tok for p in pairs for tok in p.definition), min_count=2).digest()
    assert config.char_vocab.digest() == build_char_vocab(p.headword for p in pairs).digest()
    expected = DefModelConfig(config.vocab, config.char_vocab, condition_dim=6, hidden=7,
                              layers=1, token_embedding_dim=5, max_def_len=9, lr=0.002,
                              batch_size=3, max_epochs=1, patience=2, seed=4)
    _assert_no_default(expected)
    # DefModelConfig compares by identity, so compare its fields.
    assert _field_values(config) == _field_values(expected)


_SAMPLING_FLAGS = ["--temperature", "0.5", "--max-len", "7", "--allow-unk", "--seed", "5"]
_SAMPLING_CONFIG = GenConfig(temperature=0.5, max_len=7, mask_unk=False)


def test_generate_settings_reach_the_sampling_config(work, trained, tmp_path, monkeypatch):
    calls = _capture(monkeypatch, "generate_seeded")
    assert main(["generate", "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"), "--prune-threshold", "0.05",
                 "--words", "cat", "--output", str(tmp_path / "g.tsv"),
                 *_SAMPLING_FLAGS]) == 0
    _assert_no_default(_SAMPLING_CONFIG)
    [((_, words, _, config, seeds), _)] = calls
    assert (words, config, seeds) == (["cat"], _SAMPLING_CONFIG, [5])


def test_evaluate_settings_reach_the_sampling_and_bleu_configs(work, trained, tmp_path,
                                                               monkeypatch):
    calls = _capture(monkeypatch, "evaluate")
    assert main(["evaluate", "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"), "--prune-threshold", "0.05",
                 "--test", str(work / "splits" / "test.tsv"),
                 "--output", str(tmp_path / "r.json"), "--runs", "2", "--max-n", "3",
                 "--smoothing", "none", *_SAMPLING_FLAGS]) == 0
    expected_bleu = BleuConfig(max_n=3, smoothing=Smoothing.NONE)
    _assert_no_default(expected_bleu)
    [((_, _, _, config), kwargs)] = calls
    assert config == _SAMPLING_CONFIG
    assert kwargs == {"runs": 2, "base_seed": 5, "bleu_cfg": expected_bleu}


def test_missing_input_exits_2_naming_path(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    assert main(["stats", "--lexicon", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path):
    src = tmp_path / "t.txt"
    src.write_text("a b c\n", encoding="utf-8")
    assert main(["train-embeddings", "--mode", "sgns",
                 "--tokens", str(src),
                 "--output", str(tmp_path / "v.tsv"),
                 "--dim", "0"]) == 2


def test_unknown_config_key_exits_2(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1, "source": "wordnet", "threads": 2, "deterministic": true}',
                   encoding="utf-8")
    assert main(["stats", "--config", str(cfg),
                 "--lexicon", str(work / "lex.tsv")]) == 2
    assert "unknown config keys: bogus, deterministic, source, threads" in capsys.readouterr().err


def test_config_file_type_check(work, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": "seven"}', encoding="utf-8")
    assert main(["stats", "--config", str(cfg),
                 "--lexicon", str(work / "lex.tsv")]) == 2


def test_config_non_numeric_float_exits_2(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"min_similarity": "high"}', encoding="utf-8")
    assert main(["build-pairs", "--mode", "d2s", "--config", str(cfg),
                 "--lexicon", str(work / "splits" / "train.tsv"),
                 "--senses", str(work / "senses.tsv"),
                 "--embeddings", str(work / "words.tsv"),
                 "--prune-threshold", "0.05",
                 "--output", str(tmp_path / "pairs.tsv")]) == 2
    assert "config key min_similarity must be a number" in capsys.readouterr().err


def test_config_string_for_word_list_exits_2(work, trained, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"words": "cat"}', encoding="utf-8")
    assert main(["generate", "--config", str(cfg), "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--output", str(tmp_path / "g.tsv")]) == 2
    assert "config key words must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_declared_defaults_pass_their_own_type_check(command, tmp_path):
    defaults = {key: default for key, (default, _, _) in cli._DECLARED[command].items()}
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(defaults), encoding="utf-8")
    parser = cli.build_parser()
    plain = cli._resolve(parser.parse_args([command]), command)
    assert plain == defaults
    assert cli._resolve(parser.parse_args([command, "--config", str(cfg)]), command) == plain


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--deterministic"]],
                         ids=["threads", "deterministic"])
def test_train_embeddings_has_no_thread_flags(tmp_path, capsys, flag):
    src = tmp_path / "t.txt"
    src.write_text("a b c a b c a b\n", encoding="utf-8")
    out = tmp_path / "v.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["train-embeddings", "--mode", "sgns", "--tokens", str(src),
              "--output", str(out), "--min-count", "1", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, flags", [("sgns", ["--negatives", "2"]),
                                         ("adagram", ["--max-prototypes", "2", "--lr", "0.5"])])
def test_train_embeddings_is_bit_reproducible(tmp_path, mode, flags):
    src = tmp_path / "t.txt"
    src.write_text("the bank by the river the bank of the loan\n" * 30, encoding="utf-8")
    tables = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.tsv"
        assert main(["train-embeddings", "--mode", mode, "--tokens", str(src),
                     "--output", str(out), "--dim", "6", "--window", "2", "--epochs", "2",
                     "--min-count", "1", "--seed", "5", *flags]) == 0
        tables.append(out.read_bytes())
        manifest = json.loads(out.with_name(f"{run}.tsv.manifest.json").read_text(encoding="utf-8"))
        assert not {"threads", "deterministic"} & set(manifest["config"])
    assert tables[0] == tables[1]


def test_shared_config_with_negatives_serves_stats(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"negatives": 2, "seed": 3}', encoding="utf-8")
    assert main(["stats", "--config", str(cfg), "--lexicon", str(work / "lex.tsv")]) == 0
    assert json.loads(capsys.readouterr().out)["word_count"] == 10


@pytest.mark.parametrize("payload, key", [({"negatives": "two", "mode": "bogus"}, "negatives"),
                                          ({"mode": "bogus"}, "mode"),
                                          ({"smoothing": "x", "seed": 3}, "smoothing")])
def test_shared_config_bad_value_for_another_stage_exits_2(work, tmp_path, capsys, payload, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "stats.json"
    assert main(["stats", "--config", str(cfg), "--lexicon", str(work / "lex.tsv"),
                 "--output", str(out)]) == 2
    assert f"{cfg}: config key {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_shared_config_with_another_stages_choice_serves_stats(work, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": "adagram", "negatives": 2}', encoding="utf-8")
    assert main(["stats", "--config", str(cfg), "--lexicon", str(work / "lex.tsv")]) == 0
    assert json.loads(capsys.readouterr().out)["word_count"] == 10


def test_library_owned_defaults_are_read_off_the_library():
    import inspect

    from defmod.metrics import evaluate

    assert cli._DECLARED["evaluate"]["runs"][0] == \
        inspect.signature(evaluate).parameters["runs"].default
    assert cli._DECLARED["train"]["min_count"][0] == \
        inspect.signature(build_vocab).parameters["min_count"].default


@pytest.mark.parametrize("command, key", [("train-embeddings", "mode"), ("build-pairs", "mode"),
                                          ("train", "model"), ("evaluate", "smoothing"),
                                          ("tokenize", "punctuation")])
def test_config_value_outside_choices_exits_2(command, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "x"}), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{key} must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("ratios", ["1.2,-0.1,-0.1", "0.5,0.5", "nan,0.5,0.5"])
def test_split_bad_ratios_exit_2(work, tmp_path, capsys, ratios):
    out = tmp_path / "s"
    assert main(["split", "--lexicon", str(work / "lex.tsv"), "--output-dir", str(out),
                 "--ratios", ratios]) == 2
    assert "split ratios" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--max-n", "0"]])
def test_evaluate_nonpositive_counts_exit_2(work, trained, tmp_path, capsys, flags):
    assert main(["evaluate", "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--test", str(work / "splits" / "test.tsv"),
                 "--output", str(tmp_path / "report.json"), *flags]) == 2
    assert "must be" in capsys.readouterr().err


def test_config_precedence_defaults_file_flags(work, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 7, "ratios": "0.6,0.2,0.2"}', encoding="utf-8")
    assert main(["split", "--config", str(cfg),
                 "--lexicon", str(work / "lex.tsv"),
                 "--output-dir", str(tmp_path / "s1")]) == 0
    m1 = json.loads(
        (tmp_path / "s1" / "split.manifest.json").read_text(encoding="utf-8"))
    assert m1["config"]["seed"] == 7
    assert m1["config"]["ratios"] == "0.6,0.2,0.2"
    assert m1["config"]["language"] == "en"

    assert main(["split", "--config", str(cfg), "--seed", "9",
                 "--lexicon", str(work / "lex.tsv"),
                 "--output-dir", str(tmp_path / "s2")]) == 0
    m2 = json.loads(
        (tmp_path / "s2" / "split.manifest.json").read_text(encoding="utf-8"))
    assert m2["config"]["seed"] == 9


def test_missing_required_flag_exits_2(capsys):
    assert main(["split"]) == 2
    assert "--lexicon" in capsys.readouterr().err


def test_vocabulary_digest_mismatch_exits_2(work, trained, tmp_path, capsys):
    other = tmp_path / "other.vocab"
    build_vocab(["totally", "unrelated", "tokens"]).save(other)
    assert main(["evaluate", "--checkpoint", str(trained),
                 "--vocab", str(other),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--test", str(work / "splits" / "test.tsv"),
                 "--output", str(tmp_path / "r.json")]) == 2
    assert "digest mismatch" in capsys.readouterr().err


def test_generate_unknown_word_exits_2(work, trained, tmp_path, capsys):
    assert main(["generate", "--checkpoint", str(trained),
                 "--vocab", str(work / "model.bin.vocab"),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--words", "zebra",
                 "--output", str(tmp_path / "g.tsv")]) == 2
    assert "zebra" in capsys.readouterr().err


def _corrupt_line(src, dst, lineno, edit):
    """Copy a table with line `lineno` (1-based, no newline) passed through `edit`."""
    lines = src.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


def _with_field(line, sep, index, value):
    parts = line.split(sep)
    parts[index] = value
    return sep.join(parts)


def _d2s_pairs(work, tmp_path, senses):
    return main(["build-pairs", "--mode", "d2s",
                 "--lexicon", str(work / "splits" / "train.tsv"),
                 "--senses", str(senses),
                 "--embeddings", str(work / "words.tsv"),
                 "--output", str(tmp_path / "pairs.tsv")])


def test_nan_in_sense_vector_exits_2_naming_line(work, tmp_path, capsys):
    def nan_first_component(line):
        vector = line.split("\t")[3].split(" ")
        return _with_field(line, "\t", 3, " ".join(["nan"] + vector[1:]))

    bad = _corrupt_line(work / "senses.tsv", tmp_path / "senses.tsv", 3, nan_first_component)
    assert _d2s_pairs(work, tmp_path, bad) == 2
    assert f"{bad}:3:" in capsys.readouterr().err


def test_non_integer_sense_index_exits_2_naming_line(work, tmp_path, capsys):
    bad = _corrupt_line(work / "senses.tsv", tmp_path / "senses.tsv", 4,
                        lambda line: _with_field(line, "\t", 1, "one"))
    assert _d2s_pairs(work, tmp_path, bad) == 2
    assert f"{bad}:4:" in capsys.readouterr().err


def test_nan_in_embedding_row_exits_2_naming_line(work, tmp_path, capsys):
    bad = _corrupt_line(work / "words.tsv", tmp_path / "words.tsv", 5,
                        lambda line: _with_field(line, " ", 2, "nan"))
    assert main(["build-pairs", "--mode", "base",
                 "--lexicon", str(work / "splits" / "train.tsv"),
                 "--embeddings", str(bad),
                 "--output", str(tmp_path / "pairs.tsv")]) == 2
    assert f"{bad}:5:" in capsys.readouterr().err


def test_repeated_embedding_word_exits_2_naming_line(work, tmp_path, capsys):
    repeated = (work / "words.tsv").read_text(encoding="utf-8").splitlines()[4]
    bad = _corrupt_line(work / "words.tsv", tmp_path / "words.tsv", 6, lambda line: repeated)
    assert main(["build-pairs", "--mode", "base",
                 "--lexicon", str(work / "splits" / "train.tsv"),
                 "--embeddings", str(bad),
                 "--output", str(tmp_path / "pairs.tsv")]) == 2
    assert f"{bad}:6: word {repeated.split()[0]!r} repeats line 5" in capsys.readouterr().err


def test_repeated_sense_prototype_exits_2_naming_line(work, tmp_path, capsys):
    repeated = (work / "senses.tsv").read_text(encoding="utf-8").splitlines()[2]
    bad = _corrupt_line(work / "senses.tsv", tmp_path / "senses.tsv", 4, lambda line: repeated)
    assert _d2s_pairs(work, tmp_path, bad) == 2
    word, k = repeated.split("\t")[:2]
    assert f"{bad}:4: prototype {k} of {word!r} repeats line 3" in capsys.readouterr().err


# The fixture's sense table: line 1 "#senses v1 6 3", line 2 bird 0, lines 3
# and 4 cat 0 and cat 1 (priors 0.6 and 0.4), then one row per other word.
_BAD_SENSE_TABLES = {
    "index gap": ({4: lambda line: _with_field(line, "\t", 1, "2")},
                  3, "prototype indices of 'cat' skip 1"),
    "priors sum": ({4: lambda line: _with_field(line, "\t", 2, "0.3")},
                   3, "priors for 'cat' must be nonnegative and sum to 1"),
    "negative prior": ({3: lambda line: _with_field(line, "\t", 2, "1.4"),
                        4: lambda line: _with_field(line, "\t", 2, "-0.4")},
                       3, "priors for 'cat' must be nonnegative and sum to 1"),
    "index >= max_prototypes": ({1: lambda line: "#senses v1 6 1"},
                                4, "prototype index 1 of 'cat' is outside 0..0"),
    "header dim 0": ({1: lambda line: "#senses v1 0 3"},
                     1, "expected a dim and a max_prototypes >= 1, found 0 3"),
}


@pytest.mark.parametrize("case", list(_BAD_SENSE_TABLES))
def test_malformed_sense_table_exits_2_naming_line(work, tmp_path, capsys, case):
    edits, lineno, message = _BAD_SENSE_TABLES[case]
    bad = work / "senses.tsv"
    for edit_line, edit in edits.items():
        bad = _corrupt_line(bad, tmp_path / "senses.tsv", edit_line, edit)
    assert _d2s_pairs(work, tmp_path, bad) == 2
    assert f"error: {bad}:{lineno}: {message}" in capsys.readouterr().err


# The trained vocabulary: line 1 "#vocab v1", then ids 0, 1, ... on lines 2, 3, ...
_BAD_VOCABULARIES = {
    "id gap": (6, lambda line: _with_field(line, "\t", 1, "5"),
               "vocabulary ids are not contiguous from 0 (found id 5 where id 4 belongs)"),
    "special out of place": (3, lambda line: _with_field(line, "\t", 0, "<eos>"),
                             "ids 0-3 must be the special tokens ('<unk>', '<bos>', "),
}


@pytest.mark.parametrize("case", list(_BAD_VOCABULARIES))
def test_malformed_vocabulary_exits_2_naming_line(work, trained, tmp_path, capsys, case):
    lineno, edit, message = _BAD_VOCABULARIES[case]
    bad = _corrupt_line(work / "model.bin.vocab", tmp_path / "model.vocab", lineno, edit)
    assert main(["generate", "--checkpoint", str(trained),
                 "--vocab", str(bad),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--words", "cat",
                 "--output", str(tmp_path / "g.tsv")]) == 2
    assert f"error: {bad}:{lineno}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("model, pairs, source", [
    ("multisense", "d2s_pairs.tsv", ["--senses", "senses.tsv", "--prune-threshold", "0.05"]),
    ("base", "base_pairs.tsv", ["--embeddings", "words.tsv"]),
])
def test_unknown_headword_in_pairs_exits_2_naming_line(work, tmp_path, capsys, model, pairs, source):
    lines = (work / pairs).read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if not line.startswith("#"))
    bad = _corrupt_line(work / pairs, tmp_path / pairs, lineno,
                        lambda line: _with_field(line, "\t", 0, "zebra"))
    source = [str(work / arg) if arg.endswith(".tsv") else arg for arg in source]
    assert main(["train", "--model", model, "--pairs", str(bad), *source,
                 "--output", str(tmp_path / "model.bin"),
                 "--hidden", "8", "--token-embedding-dim", "6", "--max-epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:{lineno}:" in err and "zebra" in err


@pytest.mark.parametrize("field", [1, 2])
def test_non_integer_vocabulary_field_exits_2_naming_line(work, trained, tmp_path,
                                                          capsys, field):
    bad = _corrupt_line(work / "model.bin.vocab", tmp_path / "model.vocab", 6,
                        lambda line: _with_field(line, "\t", field, "7.5"))
    assert main(["generate", "--checkpoint", str(trained),
                 "--vocab", str(bad),
                 "--chars", str(work / "model.bin.chars"),
                 "--senses", str(work / "senses.tsv"),
                 "--prune-threshold", "0.05",
                 "--words", "cat",
                 "--output", str(tmp_path / "g.tsv")]) == 2
    assert f"{bad}:6:" in capsys.readouterr().err


def _bad_utf8(text, dst, lineno):
    """Write `text` to `dst` with one 0xff byte opening line `lineno`."""
    lines = text.encode("utf-8").split(b"\n")
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    dst.write_bytes(b"\n".join(lines))
    return dst


def _undecodable_input(name, work, tmp):
    """(argv, bad file, line of the bad byte) for one input of one command."""
    d2s = ["build-pairs", "--mode", "d2s", "--lexicon", str(work / "splits" / "train.tsv"),
           "--senses", str(work / "senses.tsv"), "--prune-threshold", "0.05",
           "--output", str(tmp / "pairs.tsv")]
    if name == "stats --lexicon":
        bad = _bad_utf8((work / "lex.tsv").read_text(encoding="utf-8"), tmp / "lex.tsv", 3)
        return ["stats", "--lexicon", str(bad)], bad, 3
    if name == "build-pairs --embeddings":
        bad = _bad_utf8((work / "words.tsv").read_text(encoding="utf-8"), tmp / "words.tsv", 2)
        return [*d2s, "--embeddings", str(bad)], bad, 2
    if name == "build-pairs --stopwords":
        bad = _bad_utf8("a\nthe\nof\n", tmp / "stop.txt", 2)
        return [*d2s, "--stopwords", str(bad)], bad, 2
    if name == "train --pairs":
        pairs = (work / "d2s_pairs.tsv").read_text(encoding="utf-8")
        bad = _bad_utf8(pairs, tmp / "pairs.tsv", 2)
        return ["train", "--model", "multisense", "--pairs", str(bad),
                "--senses", str(work / "senses.tsv"), "--prune-threshold", "0.05",
                "--output", str(tmp / "m.bin")], bad, 2
    if name == "tokenize --input":
        bad = tmp / "corpus.txt"  # universal newlines: "\r\n" and "\r" end lines 1 and 2
        bad.write_bytes(b"One line.\r\nTwo.\r\xffThree.\n")
        return ["tokenize", "--input", str(bad), "--output", str(tmp / "t.txt")], bad, 3
    if name == "train-embeddings --tokens":
        bad = _bad_utf8("a b c\na b\n", tmp / "tokens.txt", 1)
        return ["train-embeddings", "--mode", "sgns", "--tokens", str(bad),
                "--output", str(tmp / "v.tsv")], bad, 1
    bad = _bad_utf8('{\n  "seed": 1\n}\n', tmp / "cfg.json", 2)
    return ["stats", "--config", str(bad), "--lexicon", str(work / "lex.tsv")], bad, 2


@pytest.mark.parametrize("name", [
    "stats --lexicon", "build-pairs --embeddings", "build-pairs --stopwords", "train --pairs",
    "tokenize --input", "train-embeddings --tokens", "--config"])
def test_undecodable_input_exits_2_naming_line(work, tmp_path, capsys, name):
    argv, bad, lineno = _undecodable_input(name, work, tmp_path)
    assert main(argv) == 2
    assert f"error: {bad}:{lineno}: not valid UTF-8" in capsys.readouterr().err


_FLOAT_OPTIONS = [(command, flag) for command, options in cli.OPTIONS.items()
                  for flag, _, kwargs in options if kwargs.get("type") is float]


@pytest.mark.parametrize("command, flag", _FLOAT_OPTIONS)
def test_non_finite_float_option_exits_2(tmp_path, capsys, command, flag):
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "cfg.json"
    for value in (float("nan"), float("inf"), float("-inf")):
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        for argv in ([command, f"{flag}={value}"], [command, "--config", str(cfg)]):
            assert main(argv) == 2
            assert f"config key {key} must be finite" in capsys.readouterr().err


def test_diverging_training_exits_2_naming_epoch_and_step(work, tmp_path, capsys):
    """The first step moves every weight by about the learning rate, so the
    second step's forward pass overflows; no numpy warning is printed (tier-1
    turns one into an error, which would exit 1) and nothing is written."""
    assert main(["train", "--model", "multisense", "--pairs", str(work / "d2s_pairs.tsv"),
                 "--senses", str(work / "senses.tsv"), "--prune-threshold", "0.05",
                 "--output", str(tmp_path / "m.bin"), "--hidden", "8",
                 "--token-embedding-dim", "6", "--batch-size", "4", "--lr", "1e300"]) == 2
    assert ("error: training diverged at epoch 1, step 2: tensor data must be finite"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode, chunk", [("sgns", "tokens 1024-1535"),
                                         ("adagram", "tokens 2048-3071")])
def test_diverging_embedding_training_exits_2_naming_epoch_and_chunk(tmp_path, capsys, mode,
                                                                       chunk):
    """At --lr 1e200 the first chunks' updates throw the vectors out of the
    finite range, and the trainer stops at the first chunk whose update is
    not finite: no numpy warning is printed (tier-1 turns one into an error,
    which would exit 1), and neither table nor manifest is written."""
    words = "the bank by the river the bank of the loan".split()
    rng = np.random.default_rng(0)
    src = tmp_path / "t.txt"
    src.write_text("\n".join(" ".join(rng.choice(words, size=10)) for _ in range(400)) + "\n",
                   encoding="utf-8")
    assert main(["train-embeddings", "--mode", mode, "--tokens", str(src),
                 "--output", str(tmp_path / "v.tsv"), "--dim", "10", "--epochs", "1",
                 "--min-count", "1", "--lr", "1e200"]) == 2
    assert (f"error: {mode} training diverged at epoch 1/1, {chunk}: the update is not finite"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("wo, bo, cause", [
    (0.0, 1.7e308, "the logits overflow when divided by the temperature 0.1"),
    (1.7e308, 1.7e308, ""),
])
def test_overflowing_checkpoint_generate_exits_2(work, trained, tmp_path, capsys, wo, bo, cause):
    """Finite weights load, but sampling with them overflows."""
    vocab, chars = work / "model.bin.vocab", work / "model.bin.chars"
    model = load_checkpoint(trained, Vocabulary.load(vocab), Vocabulary.load(chars))
    model.params["Wo"].data[...] = wo
    model.params["bo"].data[...] = bo
    save_checkpoint(model, tmp_path / "huge.bin")
    out = tmp_path / "g.tsv"
    assert main(["generate", "--checkpoint", str(tmp_path / "huge.bin"), "--vocab", str(vocab),
                 "--chars", str(chars), "--senses", str(work / "senses.tsv"),
                 "--words", "cat", "--output", str(out)]) == 2
    assert (f"error: sampling probabilities are not finite: {cause}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.bin"]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_overflowing_lstm_checkpoint_exits_2_naming_sampling_and_layer(work, trained, tmp_path,
                                                                       capsys, command):
    """Finite LSTM weights load, but the first layer's gates overflow."""
    vocab, chars = work / "model.bin.vocab", work / "model.bin.chars"
    model = load_checkpoint(trained, Vocabulary.load(vocab), Vocabulary.load(chars))
    model.params["Wx0"].data[...] = 1.7e308
    model.params["b0"].data[...] = 1.7e308
    save_checkpoint(model, tmp_path / "huge.bin")
    inputs = (["--words", "cat"] if command == "generate"
              else ["--test", str(work / "splits" / "test.tsv")])
    assert main([command, "--checkpoint", str(tmp_path / "huge.bin"), "--vocab", str(vocab),
                 "--chars", str(chars), "--senses", str(work / "senses.tsv"), *inputs,
                 "--output", str(tmp_path / "out")]) == 2
    assert ("error: sampling overflowed in LSTM layer 0: tensor data must be finite"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.bin"]


def _unwritable_output(case, work, tmp):
    """(argv, the output path it names) for a command whose output cannot be created."""
    (tmp / "file").write_text("", encoding="utf-8")
    corpus = tmp / "corpus.txt"
    corpus.write_text("The cat sat.\n", encoding="utf-8")
    if case == "tokenize, no such directory":
        out = tmp / "missing" / "out.txt"
        return ["tokenize", "--input", str(corpus), "--output", str(out)], out
    if case == "tokenize, a directory":
        return ["tokenize", "--input", str(corpus), "--output", str(tmp)], tmp
    if case == "split, under a regular file":
        out = tmp / "file" / "sub"
        return ["split", "--lexicon", str(work / "lex.tsv"), "--output-dir", str(out)], out
    out = tmp / "missing" / "m.bin" if case == "train, no such directory" else tmp
    return ["train", "--model", "base", "--pairs", str(work / "base_pairs.tsv"),
            "--embeddings", str(work / "words.tsv"), "--output", str(out),
            "--hidden", "8", "--token-embedding-dim", "6", "--max-epochs", "1"], out


@pytest.mark.parametrize("case", ["tokenize, no such directory", "tokenize, a directory",
                                  "split, under a regular file", "train, no such directory",
                                  "train, a directory"])
def test_unwritable_output_exits_2_naming_it(work, tmp_path, capsys, monkeypatch, case):
    """The output path is checked before any work: training never starts."""
    def no_training(*args):
        raise AssertionError("train_defmodel ran although its output cannot be written")

    monkeypatch.setattr(cli, "train_defmodel", no_training)
    argv, out = _unwritable_output(case, work, tmp_path)
    assert main(argv) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "file"]


@pytest.mark.parametrize("command", ["tokenize", "split", "train"])
def test_unwritable_manifest_exits_2_before_any_work(work, tmp_path, capsys, monkeypatch,
                                                     command):
    """The manifest path is checked where the command first names it, so a
    manifest that cannot be written stops the command before it writes an
    output or trains."""
    def no_training(*args):
        raise AssertionError("train_defmodel ran although its manifest cannot be written")

    monkeypatch.setattr(cli, "train_defmodel", no_training)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The cat sat.\n", encoding="utf-8")
    out = tmp_path / ("out.txt" if command == "tokenize" else "m.bin")
    manifest = out.with_name(out.name + ".manifest.json")
    argv = ["tokenize", "--input", str(corpus), "--output", str(out)]
    if command == "split":
        out = tmp_path / "splits"
        manifest = out / "split.manifest.json"
        argv = ["split", "--lexicon", str(work / "lex.tsv"), "--output-dir", str(out)]
    elif command == "train":
        argv = ["train", "--model", "base", "--pairs", str(work / "base_pairs.tsv"),
                "--embeddings", str(work / "words.tsv"), "--output", str(out),
                "--hidden", "8", "--token-embedding-dim", "6", "--max-epochs", "1"]
    manifest.mkdir(parents=True)
    assert main(argv) == 2
    assert f"error: cannot write {manifest}: " in capsys.readouterr().err
    written = {p.relative_to(tmp_path) for p in tmp_path.rglob("*")}
    assert written == {Path("corpus.txt"), manifest.relative_to(tmp_path),
                       *manifest.relative_to(tmp_path).parents} - {Path(".")}


def test_only_train_embeddings_loads_scipy(work):
    """scipy is imported where the embedding trainers use it, so neither
    importing the CLI nor running another command loads any of it."""
    script = (
        "import sys\n"
        "import defmod.cli\n"
        "def scipy(): return sum(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "on_import = scipy()\n"
        f"code = defmod.cli.main(['stats', '--lexicon', {str(work / 'lex.tsv')!r}])\n"
        "print(code, on_import, scipy())\n")
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=False)
    assert result.stdout.splitlines()[-1] == "0 0 0", result.stderr


def test_train_is_bit_reproducible_at_two_blas_threads(work, tmp_path):
    """Two `train` runs at OPENBLAS_NUM_THREADS=2 write the same checkpoint.
    One batch of 360 pairs gives the weight gradient products an inner
    dimension of about 1,800 target rows, wide enough for OpenBLAS to
    thread them (at one thread the same runs train other last bits)."""
    lines = (work / "d2s_pairs.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(lines[0] + "".join(lines[1:]) * 40, encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    checkpoints = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.bin"
        result = subprocess.run(
            [sys.executable, "-m", "defmod.cli", "train", "--model", "multisense",
             "--pairs", str(pairs), "--senses", str(work / "senses.tsv"),
             "--prune-threshold", "0.05", "--output", str(out), "--hidden", "32",
             "--token-embedding-dim", "32", "--max-epochs", "1", "--batch-size", "400"],
            capture_output=True, text=True, timeout=120, check=False,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"})
        assert result.returncode == 0, result.stderr
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_internal_failure_exits_1(work, monkeypatch):
    import defmod.cli as cli

    def boom(args, command):
        raise RuntimeError("unexpected")

    # Every command resolves its config first; a blowup there stands in for
    # any unclassified failure and must hit the exit-1 barrier.
    monkeypatch.setattr(cli, "_resolve", boom)
    assert cli.main(["stats", "--lexicon", str(work / "lex.tsv")]) == 1


_ERROR_TYPES = [obj for obj in vars(errors).values()
                if isinstance(obj, type) and obj.__module__ == errors.__name__]


def test_every_error_type_is_a_defmod_error():
    assert errors.DefmodError in _ERROR_TYPES and len(_ERROR_TYPES) > 1
    assert all(issubclass(cls, errors.DefmodError) for cls in _ERROR_TYPES)


@pytest.mark.parametrize("error", _ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_each_defmod_error_exits_2_with_its_message(work, monkeypatch, capsys, error):
    def fail(run):
        raise error("bad input at f.txt:3")

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert cli.main(["stats", "--lexicon", str(work / "lex.tsv")]) == 2
    prefix = ("error: word has no condition vector: " if error is errors.MissingWordError
              else "error: ")
    assert capsys.readouterr().err == prefix + "bad input at f.txt:3\n"


def test_plain_value_error_from_a_command_exits_1(work, monkeypatch):
    def fail(run):
        raise ValueError("a fault in the code")

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert cli.main(["stats", "--lexicon", str(work / "lex.tsv")]) == 1


@pytest.mark.skipif(shutil.which("defmod") is None,
                    reason="no defmod console script on PATH; "
                           "install it with `pip install -e . --no-build-isolation`")
def test_console_entry_point_runs(work):
    result = subprocess.run(
        ["defmod", "stats", "--lexicon", str(work / "lex.tsv")],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert json.loads(result.stdout)["word_count"] == 10


def test_no_command_mutates_inputs(work, tmp_path):
    lex = work / "lex.tsv"
    before = lex.read_bytes()
    assert main(["stats", "--lexicon", str(lex)]) == 0
    assert main(["split", "--lexicon", str(lex),
                 "--output-dir", str(tmp_path / "s")]) == 0
    assert lex.read_bytes() == before
