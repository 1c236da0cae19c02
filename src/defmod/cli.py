"""Command-line pipeline driver.

One subcommand per pipeline stage; stages communicate only through
documented file formats. Every command that writes files also writes a
JSON manifest (inputs, merged config, sha256 content digests) next to its
primary output. Identical inputs, config, and seed give byte-identical
primary outputs; only the manifest carries wall-clock fields.

Exit codes: 0 success, 1 internal failure, 2 missing input or invalid
config.
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .defgen import (
    DefModelConfig,
    GenConfig,
    build_char_vocab,
    generate_for_word,
    init_model,
    load_checkpoint,
    save_checkpoint,
    save_generated,
    train_defmodel,
)
from .embeddings import (
    AdagramConfig,
    EmbeddingTable,
    SenseTable,
    SgnsConfig,
    train_adagram,
    train_sgns,
)
from .errors import (
    CheckpointError,
    ConfigError,
    LexiconFormatError,
    MissingWordError,
    PairsFormatError,
    ScoringError,
    ShapeError,
    UnrepresentableDefinitionError,
    ZeroVectorError,
)
from .lexicon import lexicon_stats, load_lexicon, split_lexicon
from .matcher import (
    MatchMode,
    build_base_pairs,
    build_training_pairs,
    load_pairs,
    save_pairs,
)
from .metrics import BleuConfig, Smoothing, evaluate
from .textprep import (
    StopwordSet,
    TokenizerProfile,
    Vocabulary,
    build_vocab,
    tokenize,
)

log = logging.getLogger(__name__)

# Documented defaults per command; the config file and flags override these
# in that order. Embedding defaults mirror the trainer dataclasses so the
# CLI never drifts from the library.
_SGNS_DEFAULTS = dataclasses.asdict(SgnsConfig())
_ADAGRAM_DEFAULTS = dataclasses.asdict(AdagramConfig())

GLOBAL_DEFAULTS = {"seed": 0, "threads": 1, "deterministic": False}

COMMAND_DEFAULTS = {
    "tokenize": {
        "input": None,
        "output": None,
        "language": "en",
        "lowercase": True,
        "punctuation": "split_off",
    },
    "train-embeddings": {
        "mode": None,
        "tokens": None,
        "output": None,
        "dim": _SGNS_DEFAULTS["dim"],
        "window": _SGNS_DEFAULTS["window"],
        "negatives": _SGNS_DEFAULTS["negatives"],
        "epochs": _SGNS_DEFAULTS["epochs"],
        "lr": _SGNS_DEFAULTS["initial_lr"],
        "min_count": _SGNS_DEFAULTS["min_count"],
        "max_prototypes": _ADAGRAM_DEFAULTS["max_prototypes"],
        "alpha": _ADAGRAM_DEFAULTS["concentration_alpha"],
        "prune_threshold": _ADAGRAM_DEFAULTS["prune_threshold"],
    },
    "stats": {
        "lexicon": None,
        "output": None,
        "language": "en",
        "source": "",
        "max_def_tokens": 60,
    },
    "split": {
        "lexicon": None,
        "output_dir": None,
        "ratios": "0.8,0.1,0.1",
        "language": "en",
        "source": "",
        "max_def_tokens": 60,
    },
    "build-pairs": {
        "mode": None,
        "lexicon": None,
        "senses": None,
        "embeddings": None,
        "stopwords": None,
        "min_similarity": None,
        "output": None,
        "language": "en",
        "source": "",
        "max_def_tokens": 60,
        "prune_threshold": _ADAGRAM_DEFAULTS["prune_threshold"],
    },
    "train": {
        "model": None,
        "pairs": None,
        "dev_pairs": None,
        "senses": None,
        "embeddings": None,
        "output": None,
        "hidden": 300,
        "layers": 2,
        "token_embedding_dim": 300,
        "max_def_len": 60,
        "lr": 0.001,
        "batch_size": 16,
        "max_epochs": 100,
        "patience": 5,
        "min_count": 1,
        "prune_threshold": _ADAGRAM_DEFAULTS["prune_threshold"],
    },
    "generate": {
        "checkpoint": None,
        "vocab": None,
        "chars": None,
        "senses": None,
        "embeddings": None,
        "words": None,
        "lexicon": None,
        "output": None,
        "temperature": 0.1,
        "max_len": 60,
        "mask_unk": True,
        "language": "en",
        "source": "",
        "max_def_tokens": 60,
        "prune_threshold": _ADAGRAM_DEFAULTS["prune_threshold"],
    },
    "evaluate": {
        "checkpoint": None,
        "vocab": None,
        "chars": None,
        "senses": None,
        "embeddings": None,
        "test": None,
        "output": None,
        "word_scores": None,
        "runs": 10,
        "temperature": 0.1,
        "max_len": 60,
        "mask_unk": True,
        "max_n": 4,
        "smoothing": "epsilon",
        "language": "en",
        "source": "",
        "max_def_tokens": 60,
        "prune_threshold": _ADAGRAM_DEFAULTS["prune_threshold"],
    },
}

# Union of every key any command accepts; a single config file may carry
# settings for several stages, so validation is against this union.
_ALL_CONFIG_KEYS = set(GLOBAL_DEFAULTS)
for _spec in COMMAND_DEFAULTS.values():
    _ALL_CONFIG_KEYS.update(_spec)


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - _ALL_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return payload


def _check_type(key: str, value, default):
    """Light shape check so a bad config fails before any work starts."""
    if default is None or value is None:
        return
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key} must be a boolean")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key} must be an integer")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key} must be a number")
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {key} must be a string")


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, config-file values, and explicit flags, in that order."""
    spec = dict(GLOBAL_DEFAULTS)
    spec.update(COMMAND_DEFAULTS[command])
    merged = dict(spec)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for key, value in file_cfg.items():
            if key in spec:
                _check_type(key, value, spec[key])
                merged[key] = value
    for key in spec:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["deterministic"]:
        merged["threads"] = 1
    return merged


def _require(cfg: dict, command: str, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) in (None, ""):
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{command} requires {flag}")


def _require_input(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(str(p))
    return p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _json_safe(value):
    if isinstance(value, Path):
        return str(value)
    return value


def _write_manifest(manifest_path: Path, command: str, cfg: dict,
                    inputs: list, outputs: list) -> None:
    payload = {
        "command": command,
        "config": {k: _json_safe(v) for k, v in sorted(cfg.items())},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "completed_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _profile(cfg: dict) -> TokenizerProfile:
    return TokenizerProfile(language_tag=cfg["language"])


def _load_lex(path, cfg: dict):
    return load_lexicon(
        _require_input(path),
        _profile(cfg),
        source_tag=cfg.get("source", ""),
        language_tag=cfg["language"],
        max_def_tokens=cfg.get("max_def_tokens", 60),
    )


def _load_source(cfg: dict, command: str):
    """Condition-vector source: a sense table or a word-embedding table."""
    if cfg.get("senses") and cfg.get("embeddings"):
        raise ConfigError(f"{command}: give --senses or --embeddings, not both")
    if cfg.get("senses"):
        return SenseTable.load(_require_input(cfg["senses"]),
                               prune_threshold=cfg["prune_threshold"])
    if cfg.get("embeddings"):
        return EmbeddingTable.load(_require_input(cfg["embeddings"]))
    raise ConfigError(f"{command} requires --senses or --embeddings")


def _load_model(cfg: dict):
    vocab = Vocabulary.load(_require_input(cfg["vocab"]))
    chars = Vocabulary.load(_require_input(cfg["chars"]))
    model = load_checkpoint(_require_input(cfg["checkpoint"]), vocab, chars)
    return model


# One function per subcommand; each returns the process exit code.

def cmd_tokenize(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "tokenize")
    _require(cfg, "tokenize", "input", "output")
    src = _require_input(cfg["input"])
    profile = TokenizerProfile(
        language_tag=cfg["language"],
        lowercase=cfg["lowercase"],
        punctuation_policy=cfg["punctuation"],
    )
    out = Path(cfg["output"])
    n_tokens = 0
    with open(src, encoding="utf-8") as fin, \
            open(out, "w", encoding="utf-8") as fout:
        for line in fin:
            tokens = tokenize(line, profile)
            n_tokens += len(tokens)
            if tokens:
                fout.write(" ".join(tokens) + "\n")
    _write_manifest(out.with_name(out.name + ".manifest.json"),
                    "tokenize", cfg, [src], [out])
    print(f"wrote {n_tokens} tokens to {out}")
    return 0


def cmd_train_embeddings(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "train-embeddings")
    _require(cfg, "train-embeddings", "mode", "tokens", "output")
    src = _require_input(cfg["tokens"])
    tokens = src.read_text(encoding="utf-8").split()
    out = Path(cfg["output"])
    if cfg["mode"] == "sgns":
        table = train_sgns(tokens, SgnsConfig(
            dim=cfg["dim"], window=cfg["window"], negatives=cfg["negatives"],
            epochs=cfg["epochs"], initial_lr=cfg["lr"],
            min_count=cfg["min_count"], seed=cfg["seed"],
            threads=cfg["threads"],
        ))
        kind = f"{len(table.words())} word vectors"
    elif cfg["mode"] == "adagram":
        table = train_adagram(tokens, AdagramConfig(
            dim=cfg["dim"], window=cfg["window"],
            epochs=cfg["epochs"], initial_lr=cfg["lr"],
            min_count=cfg["min_count"], seed=cfg["seed"],
            max_prototypes=cfg["max_prototypes"],
            concentration_alpha=cfg["alpha"],
            prune_threshold=cfg["prune_threshold"],
            threads=cfg["threads"],
        ))
        n_senses = sum(len(table.senses(w)) for w in table.words())
        kind = f"{n_senses} sense vectors over {len(table.words())} words"
    else:
        raise ConfigError(f"unknown embedding mode: {cfg['mode']!r}")
    table.save(out)
    _write_manifest(out.with_name(out.name + ".manifest.json"),
                    "train-embeddings", cfg, [src], [out])
    print(f"wrote {kind} to {out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "stats")
    _require(cfg, "stats", "lexicon")
    lex = _load_lex(cfg["lexicon"], cfg)
    payload = lexicon_stats(lex).to_json()
    print(payload)
    if cfg.get("output"):
        out = Path(cfg["output"])
        out.write_text(payload + "\n", encoding="utf-8")
        _write_manifest(out.with_name(out.name + ".manifest.json"),
                        "stats", cfg, [Path(cfg["lexicon"])], [out])
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "split")
    _require(cfg, "split", "lexicon", "output_dir")
    try:
        ratios = tuple(float(r) for r in str(cfg["ratios"]).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --ratios value: {cfg['ratios']!r}") from exc
    lex = _load_lex(cfg["lexicon"], cfg)
    parts = split_lexicon(lex, ratios=ratios, seed=cfg["seed"])
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, part in (("train", parts.train), ("dev", parts.dev),
                       ("test", parts.test)):
        path = out_dir / f"{name}.tsv"
        part.save(path)
        outputs.append(path)
        print(f"{name}: {len(part)} words, {part.definition_count()} definitions")
    _write_manifest(out_dir / "split.manifest.json",
                    "split", cfg, [Path(cfg["lexicon"])], outputs)
    return 0


def cmd_build_pairs(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "build-pairs")
    _require(cfg, "build-pairs", "mode", "lexicon", "output")
    lex = _load_lex(cfg["lexicon"], cfg)
    inputs = [Path(cfg["lexicon"])]
    if cfg["mode"] == "base":
        _require(cfg, "build-pairs --mode base", "embeddings")
        table = EmbeddingTable.load(_require_input(cfg["embeddings"]))
        inputs.append(Path(cfg["embeddings"]))
        pairs, summary = build_base_pairs(lex, table)
    elif cfg["mode"] in ("d2s", "s2d"):
        _require(cfg, f"build-pairs --mode {cfg['mode']}", "senses")
        senses = SenseTable.load(_require_input(cfg["senses"]),
                                 prune_threshold=cfg["prune_threshold"])
        inputs.append(Path(cfg["senses"]))
        table = None
        if cfg.get("embeddings"):
            table = EmbeddingTable.load(_require_input(cfg["embeddings"]))
            inputs.append(Path(cfg["embeddings"]))
        if cfg.get("stopwords"):
            stops = StopwordSet.from_file(_require_input(cfg["stopwords"]),
                                          cfg["language"])
            inputs.append(Path(cfg["stopwords"]))
        else:
            stops = StopwordSet.default(cfg["language"])
        pairs, summary = build_training_pairs(
            lex, senses, table, stops, MatchMode(cfg["mode"]),
            min_similarity=cfg.get("min_similarity"),
        )
    else:
        raise ConfigError(f"unknown pair-building mode: {cfg['mode']!r}")
    out = Path(cfg["output"])
    save_pairs(pairs, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"),
                    "build-pairs", cfg, inputs, [out])
    print(f"matched {summary.entries_matched} entries "
          f"({summary.entries_skipped} skipped), "
          f"wrote {summary.pairs_built} pairs to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "train")
    _require(cfg, "train", "model", "pairs", "output")
    if cfg["model"] not in ("base", "multisense"):
        raise ConfigError(f"unknown model kind: {cfg['model']!r}")
    if cfg["model"] == "base":
        _require(cfg, "train --model base", "embeddings")
        if cfg.get("senses"):
            raise ConfigError("train --model base takes --embeddings, not --senses")
    else:
        _require(cfg, "train --model multisense", "senses")
        if cfg.get("embeddings"):
            raise ConfigError(
                "train --model multisense takes --senses, not --embeddings")
    source = _load_source(cfg, "train")
    inputs = [Path(cfg["pairs"]),
              Path(cfg["senses"] or cfg["embeddings"])]
    pairs = load_pairs(_require_input(cfg["pairs"]), source)
    if not pairs:
        raise ConfigError(f"{cfg['pairs']}: no training pairs")
    dev_pairs = None
    if cfg.get("dev_pairs"):
        dev_pairs = load_pairs(_require_input(cfg["dev_pairs"]), source)
        inputs.append(Path(cfg["dev_pairs"]))

    vocab = build_vocab(
        (tok for p in pairs for tok in p.definition),
        min_count=cfg["min_count"],
    )
    char_vocab = build_char_vocab(p.headword for p in pairs)
    model_cfg = DefModelConfig(
        vocab=vocab,
        char_vocab=char_vocab,
        condition_dim=pairs[0].sense_vector.size,
        hidden=cfg["hidden"],
        layers=cfg["layers"],
        token_embedding_dim=cfg["token_embedding_dim"],
        max_def_len=cfg["max_def_len"],
        lr=cfg["lr"],
        batch_size=cfg["batch_size"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        seed=cfg["seed"],
    )
    model, report = train_defmodel(init_model(model_cfg), pairs, dev_pairs)
    out = Path(cfg["output"])
    vocab_out = out.with_name(out.name + ".vocab")
    chars_out = out.with_name(out.name + ".chars")
    save_checkpoint(model, out)
    vocab.save(vocab_out)
    char_vocab.save(chars_out)
    _write_manifest(out.with_name(out.name + ".manifest.json"),
                    "train", cfg, inputs, [out, vocab_out, chars_out])
    print(f"best dev loss {min(report.dev_losses):.4f} "
          f"at epoch {report.best_epoch + 1}/{len(report.train_losses)}, "
          f"wrote {out}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "generate")
    _require(cfg, "generate", "checkpoint", "vocab", "chars", "output")
    if not cfg.get("words") and not cfg.get("lexicon"):
        raise ConfigError("generate requires --words or --lexicon")
    model = _load_model(cfg)
    source = _load_source(cfg, "generate")
    inputs = [Path(cfg["checkpoint"]), Path(cfg["vocab"]), Path(cfg["chars"]),
              Path(cfg["senses"] or cfg["embeddings"])]
    if cfg.get("words"):
        words = list(cfg["words"])
    else:
        lex = _load_lex(cfg["lexicon"], cfg)
        inputs.append(Path(cfg["lexicon"]))
        words = lex.headwords()
    gen_cfg = GenConfig(temperature=cfg["temperature"], max_len=cfg["max_len"],
                        mask_unk=cfg["mask_unk"])
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for word in words:
        for sense_index, tokens in generate_for_word(model, word, source,
                                                     gen_cfg, rng):
            rows.append((word, sense_index, tokens))
    out = Path(cfg["output"])
    save_generated(rows, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"),
                    "generate", cfg, inputs, [out])
    print(f"wrote {len(rows)} definitions for {len(words)} words to {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "evaluate")
    _require(cfg, "evaluate", "checkpoint", "vocab", "chars", "test", "output")
    model = _load_model(cfg)
    source = _load_source(cfg, "evaluate")
    test = _load_lex(cfg["test"], cfg)
    inputs = [Path(cfg["checkpoint"]), Path(cfg["vocab"]), Path(cfg["chars"]),
              Path(cfg["senses"] or cfg["embeddings"]), Path(cfg["test"])]
    try:
        smoothing = Smoothing(cfg["smoothing"])
    except ValueError as exc:
        raise ConfigError(f"unknown smoothing: {cfg['smoothing']!r}") from exc
    gen_cfg = GenConfig(temperature=cfg["temperature"], max_len=cfg["max_len"],
                        mask_unk=cfg["mask_unk"])
    report = evaluate(model, test, source, gen_cfg, runs=cfg["runs"],
                      base_seed=cfg["seed"],
                      bleu_cfg=BleuConfig(max_n=cfg["max_n"],
                                          smoothing=smoothing))
    out = Path(cfg["output"])
    report.save(out)
    outputs = [out]
    if cfg.get("word_scores"):
        ws = Path(cfg["word_scores"])
        report.save_word_scores(ws)
        outputs.append(ws)
    _write_manifest(out.with_name(out.name + ".manifest.json"),
                    "evaluate", cfg, inputs, outputs)
    print(f"bleu {report.bleu_mean:.2f}  rbleu {report.rbleu_mean:.2f}  "
          f"fbleu {report.fbleu_mean:.2f}  "
          f"({report.scored_words} words, {report.runs} runs)")
    return 0


def _add_globals(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--threads", type=int, help="worker threads (default 1)")
    parser.add_argument("--deterministic", action="store_true", default=None,
                        help="force single-threaded, bit-reproducible runs")


def _add_lexicon_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--language", help="language tag (default en)")
    parser.add_argument("--source", help="source tag recorded in artifacts")
    parser.add_argument("--max-def-tokens", type=int,
                        help="truncate definitions to this many tokens (default 60)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defmod",
        description="Definition generation pipeline: tokenize, embed, match, "
                    "train, generate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="tokenize a raw text corpus")
    _add_globals(p)
    p.add_argument("--input", help="raw text file")
    p.add_argument("--output", help="tokenized output, one line per input line")
    p.add_argument("--language")
    p.add_argument("--no-lowercase", dest="lowercase", action="store_false",
                   default=None)
    p.add_argument("--punctuation", choices=("split_off", "drop"))
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train-embeddings",
                       help="train word or sense vectors on a token file")
    _add_globals(p)
    p.add_argument("--mode", choices=("sgns", "adagram"))
    p.add_argument("--tokens", help="tokenized corpus file")
    p.add_argument("--output", help="vector table file")
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int, help="negative samples per pair (sgns)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--min-count", type=int)
    p.add_argument("--max-prototypes", type=int)
    p.add_argument("--alpha", type=float,
                   help="stick-breaking concentration (adagram)")
    p.add_argument("--prune-threshold", type=float)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("stats", help="dataset statistics for a lexicon TSV")
    _add_globals(p)
    _add_lexicon_opts(p)
    p.add_argument("--lexicon", help="word\\tdefinition TSV")
    p.add_argument("--output", help="also write the JSON here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split",
                       help="word-disjoint train/dev/test split of a lexicon")
    _add_globals(p)
    _add_lexicon_opts(p)
    p.add_argument("--lexicon")
    p.add_argument("--output-dir")
    p.add_argument("--ratios", help="comma-separated, e.g. 0.8,0.1,0.1")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-pairs",
                       help="align definitions with sense or word vectors")
    _add_globals(p)
    _add_lexicon_opts(p)
    p.add_argument("--mode", choices=("d2s", "s2d", "base"))
    p.add_argument("--lexicon", help="split TSV to build pairs from")
    p.add_argument("--senses", help="sense table (d2s/s2d)")
    p.add_argument("--embeddings", help="word table (base; optional for d2s/s2d)")
    p.add_argument("--stopwords", help="stopword file, one token per line")
    p.add_argument("--min-similarity", type=float,
                   help="drop pairs whose winning cosine is below this")
    p.add_argument("--output", help="pairs TSV")
    p.add_argument("--prune-threshold", type=float)
    p.set_defaults(func=cmd_build_pairs)

    p = sub.add_parser("train", help="train the definition generator")
    _add_globals(p)
    p.add_argument("--model", choices=("base", "multisense"))
    p.add_argument("--pairs", help="training pairs TSV")
    p.add_argument("--dev-pairs", help="held-out pairs for early stopping")
    p.add_argument("--senses", help="sense table (multisense)")
    p.add_argument("--embeddings", help="word table (base)")
    p.add_argument("--output", help="model checkpoint; vocab files sit beside it")
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--token-embedding-dim", type=int)
    p.add_argument("--max-def-len", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--min-count", type=int,
                   help="token vocabulary frequency floor (default 1)")
    p.add_argument("--prune-threshold", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample definitions from a checkpoint")
    _add_globals(p)
    _add_lexicon_opts(p)
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--chars")
    p.add_argument("--senses")
    p.add_argument("--embeddings")
    p.add_argument("--words", nargs="+", help="headwords to define")
    p.add_argument("--lexicon", help="define every headword in this TSV")
    p.add_argument("--output", help="generated definitions TSV")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--allow-unk", dest="mask_unk", action="store_false",
                   default=None)
    p.add_argument("--prune-threshold", type=float)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate",
                       help="score generated definitions against references")
    _add_globals(p)
    _add_lexicon_opts(p)
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--chars")
    p.add_argument("--senses")
    p.add_argument("--embeddings")
    p.add_argument("--test", help="reference lexicon TSV")
    p.add_argument("--output", help="evaluation report JSON")
    p.add_argument("--word-scores", help="also write per-word scores TSV")
    p.add_argument("--runs", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--allow-unk", dest="mask_unk", action="store_false",
                   default=None)
    p.add_argument("--max-n", type=int)
    p.add_argument("--smoothing",
                   choices=tuple(s.value for s in Smoothing))
    p.add_argument("--prune-threshold", type=float)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        path = getattr(exc, "filename", None) or str(exc)
        print(f"error: input file not found: {path}", file=sys.stderr)
        return 2
    except MissingWordError as exc:
        print(f"error: word has no condition vector: {exc.args[0]}",
              file=sys.stderr)
        return 2
    except (ConfigError, ShapeError, ZeroVectorError,
            UnrepresentableDefinitionError, LexiconFormatError,
            PairsFormatError, CheckpointError, ScoringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - last-resort barrier for exit code 1
        log.exception("internal failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
