"""Command-line pipeline driver.

One subcommand per pipeline stage; stages communicate only through
documented file formats. Every command that writes files also writes a
JSON manifest (inputs, merged config, sha256 content digests) next to its
primary output. Identical inputs, config, and seed give byte-identical
primary outputs; only the manifest carries wall-clock fields.

Exit codes: 0 success, 1 internal failure, 2 missing input, invalid
config, an output path that cannot be written, or a computation that
left the finite range.
"""

import argparse
import dataclasses
import hashlib
import inspect
import json
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .defgen import (
    DefModelConfig,
    GenConfig,
    build_char_vocab,
    generate_for_word,  # not called here; kept because perfbench's tracer wraps cli.generate_for_word
    generate_seeded,
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
from .errors import ConfigError, DefmodError, MissingWordError, OutputError
from .fileio import atomic_write, check_writable, read_lines
from .lexicon import (
    DEFAULT_MAX_DEF_TOKENS,
    DEFAULT_RATIOS,
    lexicon_stats,
    load_lexicon,
    split_lexicon,
)
from .matcher import (
    MatchMode,
    build_base_pairs,
    build_training_pairs,
    load_pairs,
    save_pairs,
)
from .metrics import DEFAULT_BLEU, BleuConfig, Smoothing, evaluate
from .textprep import (
    StopwordSet,
    TokenizerProfile,
    Vocabulary,
    build_vocab,
    tokenize,
)

log = logging.getLogger(__name__)

# Every CLI option is declared once, as (flag, default, argparse keywords):
# the parser, each command's defaults, the config keys, their types and
# their allowed values are all read off these. Defaults that the library
# owns are read off its dataclasses, so the CLI never drifts from it.
def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


_SGNS_DEFAULTS = _defaults(SgnsConfig)
_ADAGRAM_DEFAULTS = _defaults(AdagramConfig)
_GEN_DEFAULTS = _defaults(GenConfig)
_TOKENIZER_DEFAULTS = _defaults(TokenizerProfile)
_MODEL_DEFAULTS = _defaults(DefModelConfig)
_VOCAB_MIN_COUNT = inspect.signature(build_vocab).parameters["min_count"].default
_EVALUATE_RUNS = inspect.signature(evaluate).parameters["runs"].default


def _opt(flag: str, default=None, **kwargs) -> tuple:
    return flag, default, kwargs


_GLOBALS = [_opt("--seed", 0, type=int, help="random seed (default 0)")]
_LANGUAGE = _opt("--language", "en", help="language tag (default en)")
_LEXICON = [
    _LANGUAGE,
    _opt("--max-def-tokens", DEFAULT_MAX_DEF_TOKENS, type=int,
         help=f"truncate definitions to this many tokens (default {DEFAULT_MAX_DEF_TOKENS})"),
]
_MODEL_INPUTS = [_opt("--checkpoint"), _opt("--vocab"), _opt("--chars"),
                 _opt("--senses"), _opt("--embeddings")]
_PRUNE_THRESHOLD = _opt(
    "--prune-threshold", _ADAGRAM_DEFAULTS["prune_threshold"], type=float,
    help="use only senses whose prior reaches this; a word's most probable sense "
         f"always stays (default {_ADAGRAM_DEFAULTS['prune_threshold']})")
_SAMPLING = [
    _opt("--temperature", _GEN_DEFAULTS["temperature"], type=float),
    _opt("--max-len", _GEN_DEFAULTS["max_len"], type=int),
    _opt("--allow-unk", _GEN_DEFAULTS["mask_unk"], dest="mask_unk", action="store_false"),
]

OPTIONS = {
    "tokenize": [
        _opt("--input", help="raw text file"),
        _opt("--output", help="tokenized output, one line per input line"),
        _opt(*_LANGUAGE[:2]),  # --language, shown without a help line
        _opt("--no-lowercase", _TOKENIZER_DEFAULTS["lowercase"], dest="lowercase",
             action="store_false"),
        _opt("--punctuation", _TOKENIZER_DEFAULTS["punctuation_policy"],
             choices=("split_off", "drop")),
    ],
    "train-embeddings": [
        _opt("--mode", choices=("sgns", "adagram")),
        _opt("--tokens", help="tokenized corpus file"),
        _opt("--output", help="vector table file"),
        _opt("--dim", _SGNS_DEFAULTS["dim"], type=int),
        _opt("--window", _SGNS_DEFAULTS["window"], type=int),
        _opt("--negatives", _SGNS_DEFAULTS["negatives"], type=int,
             help="negative samples per pair (sgns)"),
        _opt("--epochs", _SGNS_DEFAULTS["epochs"], type=int),
        _opt("--lr", _SGNS_DEFAULTS["initial_lr"], type=float),
        _opt("--min-count", _SGNS_DEFAULTS["min_count"], type=int),
        _opt("--max-prototypes", _ADAGRAM_DEFAULTS["max_prototypes"], type=int),
        _opt("--alpha", _ADAGRAM_DEFAULTS["concentration_alpha"], type=float,
             help="stick-breaking concentration (adagram)"),
        _opt(*_PRUNE_THRESHOLD[:2], type=float,
             help="count only senses whose prior reaches this in the printed summary; "
                  "the table keeps every prototype, so pass it where the table is read"),
    ],
    "stats": [
        *_LEXICON,
        _opt("--lexicon", help="word\\tdefinition TSV"),
        _opt("--output", help="also write the JSON here"),
    ],
    "split": [
        *_LEXICON,
        _opt("--lexicon"),
        _opt("--output-dir"),
        _opt("--ratios", ",".join(map(str, DEFAULT_RATIOS)),
             help="comma-separated, e.g. 0.8,0.1,0.1"),
    ],
    "build-pairs": [
        *_LEXICON,
        _opt("--mode", choices=("d2s", "s2d", "base")),
        _opt("--lexicon", help="split TSV to build pairs from"),
        _opt("--senses", help="sense table (d2s/s2d)"),
        _opt("--embeddings", help="word table (base; optional for d2s/s2d)"),
        _opt("--stopwords", help="stopword file, one token per line"),
        _opt("--min-similarity", type=float,
             help="drop pairs whose winning cosine is below this"),
        _opt("--output", help="pairs TSV"),
        _PRUNE_THRESHOLD,
    ],
    "train": [
        _opt("--model", choices=("base", "multisense")),
        _opt("--pairs", help="training pairs TSV"),
        _opt("--dev-pairs", help="held-out pairs for early stopping"),
        _opt("--senses", help="sense table (multisense)"),
        _opt("--embeddings", help="word table (base)"),
        _opt("--output", help="model checkpoint; vocab files sit beside it"),
        *(_opt("--" + name.replace("_", "-"), default, type=type(default))
          for name, default in _MODEL_DEFAULTS.items() if name != "seed"),
        _opt("--min-count", _VOCAB_MIN_COUNT, type=int,
             help=f"token vocabulary frequency floor (default {_VOCAB_MIN_COUNT})"),
        _PRUNE_THRESHOLD,
    ],
    "generate": [
        *_LEXICON,
        *_MODEL_INPUTS,
        _opt("--words", nargs="+", help="headwords to define"),
        _opt("--lexicon", help="define every headword in this TSV"),
        _opt("--output", help="generated definitions TSV"),
        *_SAMPLING,
        _PRUNE_THRESHOLD,
    ],
    "evaluate": [
        *_LEXICON,
        *_MODEL_INPUTS,
        _opt("--test", help="reference lexicon TSV"),
        _opt("--output", help="evaluation report JSON"),
        _opt("--word-scores", help="also write per-word scores TSV"),
        _opt("--runs", _EVALUATE_RUNS, type=int),
        *_SAMPLING,
        _opt("--max-n", DEFAULT_BLEU.max_n, type=int),
        _opt("--smoothing", DEFAULT_BLEU.smoothing.value,
             choices=tuple(s.value for s in Smoothing)),
        _PRUNE_THRESHOLD,
    ],
}

_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list of strings"}


def _declare(flag: str, default, kwargs: dict) -> tuple:
    """(config key, (default, kind, choices)) for one option."""
    kind = (bool if "action" in kwargs else list if "nargs" in kwargs
            else kwargs.get("type", str))
    return kwargs.get("dest", flag[2:].replace("-", "_")), (default, kind, kwargs.get("choices"))


# Per command, config key -> (default, kind, choices) for the globals and
# the command's options.
_DECLARED = {command: dict(_declare(*opt) for opt in (*_GLOBALS, *OPTIONS[command]))
             for command in OPTIONS}


def _load_config_file(path: str) -> dict:
    try:
        payload = json.loads("\n".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    # One file may carry settings for several stages, so any command's key
    # is accepted, with any value that one of the commands declaring it
    # accepts. The running command checks its own keys again in `_resolve`.
    declaring = {}
    for command, spec in _DECLARED.items():
        for key in spec:
            declaring.setdefault(key, []).append(command)
    unknown = sorted(set(payload) - set(declaring))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in payload.items():
        errors = []
        for command in declaring[key]:
            try:
                _check_value(command, key, value)
                break
            except ConfigError as exc:
                errors.append(exc)
        else:
            raise ConfigError(f"{path}: {errors[0]}")
    return payload


def _check_value(command: str, key: str, value) -> None:
    """Fail on a config value that `command` declares another type or choice for.

    null stands for "unset" and is accepted only where the default is None.
    A number must be finite.
    """
    default, kind, choices = _DECLARED[command][key]
    if value is None and default is None:
        return
    if kind is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = (isinstance(value, (int, float) if kind is float else kind)
              and (kind is bool or not isinstance(value, bool)))
    if not ok:
        raise ConfigError(f"config key {key} must be {_KIND_NAMES[kind]}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(f"config key {key} must be one of {', '.join(choices)}, "
                          f"got {value!r}")


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, config-file values, and explicit flags, in that order.

    Every merged value, flags' included, is then checked against the
    command's declared type, choices and finiteness.
    """
    spec = _DECLARED[command]
    merged = {key: default for key, (default, _, _) in spec.items()}
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            if key in spec:
                merged[key] = value
    for key in spec:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        _check_value(command, key, value)
    return merged


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


# Settings whose flag is shorter than the library config field they feed.
_FIELD_KEYS = {"initial_lr": "lr", "concentration_alpha": "alpha"}


def _library_config(cls, cfg: dict, **given):
    """`cls` built from `given`, and every other field read off the merged settings."""
    return cls(**given, **{f.name: cfg[_FIELD_KEYS.get(f.name, f.name)]
                           for f in dataclasses.fields(cls) if f.name not in given})


class Run:
    """One command's run: its name, its merged config, and the files it
    read and wrote.

    Every input is opened through `input` and every output named through
    `output`, which record them, so the manifest that `main` writes once the
    command succeeds lists exactly what the command read and wrote.
    """

    def __init__(self, command: str, cfg: dict):
        self.command = command
        self.cfg = cfg
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.manifest_path: Path | None = None

    def require(self, *keys: str, context: str = "") -> None:
        for key in keys:
            if self.cfg.get(key) in (None, ""):
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"{self.command}{context} requires {flag}")

    def input(self, key: str) -> Path:
        path = Path(self.cfg[key])
        if not path.is_file():
            raise FileNotFoundError(str(path))
        self.inputs.append(path)
        return path

    def lexicon(self, key: str):
        cfg = self.cfg
        return load_lexicon(self.input(key), TokenizerProfile(language_tag=cfg["language"]),
                            max_def_tokens=cfg["max_def_tokens"])

    def source(self):
        """Condition-vector source: a sense table or a word-embedding table."""
        if self.cfg.get("senses") and self.cfg.get("embeddings"):
            raise ConfigError(f"{self.command}: give --senses or --embeddings, not both")
        if self.cfg.get("senses"):
            return SenseTable.load(self.input("senses"),
                                   prune_threshold=self.cfg["prune_threshold"])
        if self.cfg.get("embeddings"):
            return EmbeddingTable.load(self.input("embeddings"))
        raise ConfigError(f"{self.command} requires --senses or --embeddings")

    def pairs(self, key: str, source, kind: str):
        """The pairs in the file `key` names; a file that holds none is an error."""
        pairs = load_pairs(self.input(key), source)
        if not pairs:
            raise ConfigError(f"{self.cfg[key]}: no {kind} pairs")
        return pairs

    def model(self):
        vocab = Vocabulary.load(self.input("vocab"))
        chars = Vocabulary.load(self.input("chars"))
        return load_checkpoint(self.input("checkpoint"), vocab, chars)

    def output(self, path) -> Path:
        """Record a file the command writes, once `check_writable` passes it;
        unless the command has named its manifest already, the first one
        names it `<path>.manifest.json`."""
        path = Path(path)
        check_writable(path)
        if self.manifest_path is None:
            self.name_manifest(path.with_name(path.name + ".manifest.json"))
        self.outputs.append(path)
        return path

    def name_manifest(self, path: Path) -> None:
        """Name the manifest that `main` writes after the command, once
        `check_writable` passes it, so that an unwritable manifest path
        stops the command before it does any work."""
        check_writable(path)
        self.manifest_path = path

    def manifest(self) -> None:
        """Write the manifest, if the command named one."""
        if self.manifest_path is None:
            return
        payload = {
            "command": self.command,
            "config": self.cfg,
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "outputs": {str(p): _sha256(p) for p in self.outputs},
            "completed_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        with atomic_write(self.manifest_path) as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# One function per subcommand. `main` resolves the config, writes the
# manifest and maps errors to exit codes.

def cmd_tokenize(run: Run) -> None:
    cfg = run.cfg
    run.require("input", "output")
    lines = read_lines(run.input("input"))
    profile = TokenizerProfile(
        language_tag=cfg["language"],
        lowercase=cfg["lowercase"],
        punctuation_policy=cfg["punctuation"],
    )
    out = run.output(cfg["output"])
    n_tokens = 0
    with atomic_write(out) as fout:
        for line in lines:
            tokens = tokenize(line, profile)
            n_tokens += len(tokens)
            if tokens:
                fout.write(" ".join(tokens) + "\n")
    print(f"wrote {n_tokens} tokens to {out}")


def cmd_train_embeddings(run: Run) -> None:
    cfg = run.cfg
    run.require("mode", "tokens", "output")
    tokens = [tok for line in read_lines(run.input("tokens"))
              for tok in line.split()]
    out = run.output(cfg["output"])
    if cfg["mode"] == "sgns":
        table = train_sgns(tokens, _library_config(SgnsConfig, cfg))
        kind = f"{len(table.words())} word vectors"
    else:
        table = train_adagram(tokens, _library_config(AdagramConfig, cfg))
        n_senses = sum(len(table.senses(w)) for w in table.words())
        kind = f"{n_senses} sense vectors over {len(table.words())} words"
    table.save(out)
    print(f"wrote {kind} to {out}")


def cmd_stats(run: Run) -> None:
    run.require("lexicon")
    payload = lexicon_stats(run.lexicon("lexicon")).to_json()
    print(payload)
    if run.cfg.get("output"):
        with atomic_write(run.output(run.cfg["output"])) as f:
            f.write(payload + "\n")


def cmd_split(run: Run) -> None:
    cfg = run.cfg
    run.require("lexicon", "output_dir")
    try:
        ratios = tuple(float(r) for r in str(cfg["ratios"]).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --ratios value: {cfg['ratios']!r}") from exc
    parts = split_lexicon(run.lexicon("lexicon"), ratios=ratios, seed=cfg["seed"])
    out_dir = Path(cfg["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot write {out_dir}: {exc.strerror}") from None
    run.name_manifest(out_dir / "split.manifest.json")
    for name, part in (("train", parts.train), ("dev", parts.dev),
                       ("test", parts.test)):
        part.save(run.output(out_dir / f"{name}.tsv"))
        print(f"{name}: {len(part)} words, {part.definition_count()} definitions")


def cmd_build_pairs(run: Run) -> None:
    cfg = run.cfg
    run.require("mode", "lexicon", "output")
    lex = run.lexicon("lexicon")
    if cfg["mode"] == "base":
        run.require("embeddings", context=" --mode base")
        pairs, summary = build_base_pairs(lex, EmbeddingTable.load(run.input("embeddings")))
    else:
        run.require("senses", context=f" --mode {cfg['mode']}")
        senses = SenseTable.load(run.input("senses"), prune_threshold=cfg["prune_threshold"])
        table = EmbeddingTable.load(run.input("embeddings")) if cfg.get("embeddings") else None
        if cfg.get("stopwords"):
            stops = StopwordSet.from_file(run.input("stopwords"))
        else:
            stops = StopwordSet.default(cfg["language"])
        pairs, summary = build_training_pairs(
            lex, senses, table, stops, MatchMode(cfg["mode"]),
            min_similarity=cfg.get("min_similarity"),
        )
    out = run.output(cfg["output"])
    save_pairs(pairs, out)
    print(f"matched {summary.entries_matched} entries "
          f"({summary.entries_skipped} skipped, {summary.entries_empty} empty), "
          f"wrote {summary.pairs_built} pairs ({summary.pairs_filtered} filtered) to {out}")


def cmd_train(run: Run) -> None:
    cfg = run.cfg
    run.require("model", "pairs", "output")
    run.require("embeddings" if cfg["model"] == "base" else "senses",
                context=f" --model {cfg['model']}")
    # Named before any work, so that an unwritable path fails before training.
    out = run.output(cfg["output"])
    vocab_out = run.output(out.with_name(out.name + ".vocab"))
    chars_out = run.output(out.with_name(out.name + ".chars"))
    source = run.source()
    pairs = run.pairs("pairs", source, "training")
    dev_pairs = run.pairs("dev_pairs", source, "dev") if cfg.get("dev_pairs") else None

    vocab = build_vocab(
        (tok for p in pairs for tok in p.definition),
        min_count=cfg["min_count"],
    )
    char_vocab = build_char_vocab(p.headword for p in pairs)
    model_cfg = _library_config(DefModelConfig, cfg, vocab=vocab, char_vocab=char_vocab,
                                condition_dim=pairs[0].sense_vector.size)
    model, report = train_defmodel(init_model(model_cfg), pairs, dev_pairs)
    save_checkpoint(model, out)
    vocab.save(vocab_out)
    char_vocab.save(chars_out)
    print(f"best dev loss {min(report.dev_losses):.4f} "
          f"at epoch {report.best_epoch + 1}/{len(report.train_losses)}, "
          f"wrote {out}")


def cmd_generate(run: Run) -> None:
    cfg = run.cfg
    run.require("checkpoint", "vocab", "chars", "output")
    if not cfg.get("words") and not cfg.get("lexicon"):
        raise ConfigError("generate requires --words or --lexicon")
    out = run.output(cfg["output"])
    model = run.model()
    source = run.source()
    words = list(cfg["words"]) if cfg.get("words") else run.lexicon("lexicon").headwords()
    generated = generate_seeded(model, words, source, _library_config(GenConfig, cfg),
                                [cfg["seed"]])[0]
    rows = [(word, sense_index, tokens)
            for word, definitions in zip(words, generated)
            for sense_index, tokens in enumerate(definitions)]
    save_generated(rows, out)
    print(f"wrote {len(rows)} definitions for {len(words)} words to {out}")


def cmd_evaluate(run: Run) -> None:
    cfg = run.cfg
    run.require("checkpoint", "vocab", "chars", "test", "output")
    out = run.output(cfg["output"])
    scores_out = run.output(cfg["word_scores"]) if cfg.get("word_scores") else None
    model = run.model()
    source = run.source()
    test = run.lexicon("test")
    bleu_cfg = _library_config(BleuConfig, cfg, smoothing=Smoothing(cfg["smoothing"]))
    report = evaluate(model, test, source, _library_config(GenConfig, cfg), runs=cfg["runs"],
                      base_seed=cfg["seed"], bleu_cfg=bleu_cfg)
    report.save(out)
    if scores_out:
        report.save_word_scores(scores_out)
    print(f"bleu {report.bleu_mean:.2f}  rbleu {report.rbleu_mean:.2f}  "
          f"fbleu {report.fbleu_mean:.2f}  "
          f"({report.scored_words} words, {report.runs} runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defmod",
        description="Definition generation pipeline: tokenize, embed, match, "
                    "train, generate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("tokenize", cmd_tokenize, "tokenize a raw text corpus"),
        ("train-embeddings", cmd_train_embeddings,
         "train word or sense vectors on a token file"),
        ("stats", cmd_stats, "dataset statistics for a lexicon TSV"),
        ("split", cmd_split, "word-disjoint train/dev/test split of a lexicon"),
        ("build-pairs", cmd_build_pairs,
         "align definitions with sense or word vectors"),
        ("train", cmd_train, "train the definition generator"),
        ("generate", cmd_generate, "sample definitions from a checkpoint"),
        ("evaluate", cmd_evaluate,
         "score generated definitions against references"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for flag, _, kwargs in (*_GLOBALS, *OPTIONS[command]):
            # None when absent, so that a config-file value is kept.
            p.add_argument(flag, default=None, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Run(args.command, _resolve(args, args.command))
        args.func(run)
        run.manifest()
        return 0
    except FileNotFoundError as exc:
        path = getattr(exc, "filename", None) or str(exc)
        print(f"error: input file not found: {path}", file=sys.stderr)
        return 2
    except MissingWordError as exc:
        print(f"error: word has no condition vector: {exc.args[0]}",
              file=sys.stderr)
        return 2
    except DefmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - last-resort barrier for exit code 1
        log.exception("internal failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
