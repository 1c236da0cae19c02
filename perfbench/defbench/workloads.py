"""The three workloads: set-up, one closed-loop pass, and output checks.

A pass runs every stage of its workload once, each stage waiting for the
previous one. Stage times are wall-clock seconds around calls into
defmod's public functions (for `desk`, around `defmod.cli.main`). Checks
run after the pass, outside its timed stages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from defmod import cli, defgen, embeddings, lexicon, matcher, metrics, textprep

from .oracle import max_oracle_error

ORACLE_TOLERANCE = 1e-9
PURITY_MIN = 0.7


@dataclass
class PassResult:
    """What one pass measured and produced.

    `stage_s` holds non-overlapping stage times (their sum is the pass's
    wall time) and `part_s` the intervals throughputs divide by. `digests`
    fingerprint the primary outputs for the same-seed comparison; `outputs`
    carries in-memory results from `run_pass` to `check`.
    """

    stage_s: dict[str, float] = field(default_factory=dict)
    part_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    gen_def_ms: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _add(table: dict, key: str, value: float) -> None:
    table[key] = table.get(key, 0.0) + value


def _timed(r: PassResult, stage: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    _add(r.stage_s, stage, elapsed)
    _add(r.part_s, stage, elapsed)
    return out


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _purities(senses, words: list[str], topics: list[list[str]]):
    """Per planted word: [(purity, topic)] over its retained senses, with
    top-10 neighbours among the topic words' dominant vectors."""
    topic_a = set(topics[0])
    others = [w for w in senses.words() if w in topic_a or w in set(topics[1])]
    table = embeddings.EmbeddingTable(
        senses.dim, others, np.array([senses.word_vector(w) for w in others]))
    out = {}
    for word in words:
        rows = []
        for _k, vec, _prior in senses.senses(word):
            frac_a = sum(n in topic_a for n in table.nearest(vec, k=10)) / 10.0
            rows.append((max(frac_a, 1.0 - frac_a), "a" if frac_a >= 0.5 else "b"))
        out[word] = rows
    return out


class Workload:
    name = ""
    why = ""
    setup_reps = 1  # repetitions of the timed set-up; setup_s is their median
    warmup_passes = 1  # checked but untimed passes before the timed ones

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs
        self.seed = seed
        self.layout = json.loads((inputs / "layout.json").read_text(encoding="utf-8"))

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, work: Path) -> PassResult:
        """Run every timed stage once; `stage_s` holds non-overlapping
        stage times, `part_s` named sub-intervals for throughputs."""
        raise NotImplementedError

    def check(self, r: PassResult, state, work: Path) -> None:
        """Untimed: derive counts and quality figures, run output checks."""
        raise NotImplementedError


# --- desk -----------------------------------------------------------------

DESK_EMB = ["--dim", "20", "--window", "5", "--min-count", "1"]
# Fixed epochs (patience equals max epochs, so no early stop). Fewer epochs
# or a higher learning rate leave some seeds' models unable to reproduce
# the glosses, and the multisense-over-base rBLEU claim then fails by chance.
DESK_EPOCHS = 60
DESK_MODEL = ["--hidden", "24", "--layers", "2", "--token-embedding-dim", "12",
              "--max-def-len", "8", "--lr", "0.02", "--batch-size", "16",
              "--max-epochs", str(DESK_EPOCHS), "--patience", str(DESK_EPOCHS),
              "--prune-threshold", "0.05"]
DESK_SGNS_EPOCHS = 1
DESK_ADAGRAM_EPOCHS = 3
DESK_RUNS = 10
DESK_RATIOS = "0.5,0.25,0.25"


class Desk(Workload):
    name = "desk"
    why = ("README walkthrough via defmod.cli.main at test size: every module and "
           "file format; Python per-node and per-call overhead dominates")
    setup_reps = 25

    def setup(self):
        # The pass drives the CLI, which loads its own inputs; this is the
        # same loading done in process: the raw corpus and the lexicon, plus
        # the generator model at desk dimensions.
        text = (self.inputs / "corpus.txt").read_text(encoding="utf-8")
        lex = lexicon.load_lexicon(self.inputs / "lexicon.tsv", textprep.TokenizerProfile())
        vocab = textprep.build_vocab(t for e in lex.entries.values()
                                     for d in e.definitions for t in d)
        cfg = defgen.DefModelConfig(
            vocab=vocab, char_vocab=defgen.build_char_vocab(lex.headwords()),
            condition_dim=20, hidden=24, layers=2, token_embedding_dim=12, max_def_len=8)
        return {"corpus_chars": len(text), "model": defgen.init_model(cfg)}

    def _cli(self, r: PassResult, stage: str, argv: list[str], part: str = "") -> None:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv + ["--seed", str(self.seed % 1000)])
        elapsed = time.perf_counter() - start
        _add(r.stage_s, f"cli.{stage}", elapsed)
        if part:
            _add(r.part_s, part, elapsed)
        if code != 0:
            raise RuntimeError(f"defmod {' '.join(argv[:3])} exited {code}")

    def run_pass(self, state, work: Path) -> PassResult:
        r = PassResult()
        w = lambda name: str(work / name)  # noqa: E731
        corpus = str(self.inputs / "corpus.txt")
        lex = str(self.inputs / "lexicon.tsv")
        self._cli(r, "tokenize", ["tokenize", "--input", corpus, "--output", w("tokens.txt")])
        self._cli(r, "train-embeddings", ["train-embeddings", "--mode", "sgns",
                  "--tokens", w("tokens.txt"), "--output", w("words.tsv"),
                  "--epochs", str(DESK_SGNS_EPOCHS), *DESK_EMB], part="sgns")
        self._cli(r, "train-embeddings", ["train-embeddings", "--mode", "adagram",
                  "--tokens", w("tokens.txt"), "--output", w("senses.tsv"),
                  "--epochs", str(DESK_ADAGRAM_EPOCHS), "--lr", "8.0", "--alpha", "1.0",
                  "--prune-threshold", "0.05", *DESK_EMB], part="adagram")
        self._cli(r, "stats", ["stats", "--lexicon", lex, "--output", w("stats.json")])
        self._cli(r, "split", ["split", "--lexicon", lex, "--output-dir", w("splits"),
                               "--ratios", DESK_RATIOS])
        for part in ("train", "dev"):
            self._cli(r, "build-pairs", ["build-pairs", "--mode", "d2s",
                      "--lexicon", w(f"splits/{part}.tsv"), "--senses", w("senses.tsv"),
                      "--prune-threshold", "0.05", "--output", w(f"{part}_d2s.tsv")])
            self._cli(r, "build-pairs", ["build-pairs", "--mode", "base",
                      "--lexicon", w(f"splits/{part}.tsv"), "--embeddings", w("words.tsv"),
                      "--output", w(f"{part}_base.tsv")])
        self._cli(r, "train", ["train", "--model", "multisense", "--pairs", w("train_d2s.tsv"),
                  "--dev-pairs", w("dev_d2s.tsv"), "--senses", w("senses.tsv"),
                  "--output", w("multi.bin"), *DESK_MODEL], part="train")
        self._cli(r, "train", ["train", "--model", "base", "--pairs", w("train_base.tsv"),
                  "--dev-pairs", w("dev_base.tsv"), "--embeddings", w("words.tsv"),
                  "--output", w("base.bin"), *DESK_MODEL], part="train")
        model_args = {kind: ["--checkpoint", w(f"{kind}.bin"), "--vocab", w(f"{kind}.bin.vocab"),
                             "--chars", w(f"{kind}.bin.chars"), "--max-len", "8",
                             "--prune-threshold", "0.05"] for kind in ("multi", "base")}
        self._cli(r, "generate", ["generate", *model_args["multi"], "--senses", w("senses.tsv"),
                  "--lexicon", w("splits/test.tsv"), "--output", w("generated.tsv")],
                  part="generate")
        for kind, source in (("multi", ["--senses", w("senses.tsv")]),
                             ("base", ["--embeddings", w("words.tsv")])):
            self._cli(r, "evaluate", ["evaluate", *model_args[kind], *source,
                      "--test", w("splits/test.tsv"), "--runs", str(DESK_RUNS),
                      "--output", w(f"eval_{kind}.json"),
                      "--word-scores", w(f"scores_{kind}.tsv")], part="evaluate")
        return r

    def check(self, r: PassResult, state, work: Path) -> None:
        n_tokens = len((work / "tokens.txt").read_text(encoding="utf-8").split())
        r.counts["corpus_tokens"] = n_tokens
        r.counts["sgns_tokens"] = DESK_SGNS_EPOCHS * n_tokens
        r.counts["adagram_tokens"] = DESK_ADAGRAM_EPOCHS * n_tokens
        rows = [line.split("\t") for line in
                (work / "generated.tsv").read_text(encoding="utf-8").splitlines()]
        r.counts["gen_defs"] = len(rows)
        r.counts["gen_tokens"] = sum(len(row[2].split()) for row in rows)
        r.gen_def_ms.append(1000.0 * r.part_s["generate"] / max(len(rows), 1))
        reports = {k: json.loads((work / f"eval_{k}.json").read_text(encoding="utf-8"))
                   for k in ("multi", "base")}
        r.counts["eval_words"] = sum(rep["scored_words"] * rep["runs"] for rep in reports.values())
        # Target tokens (definition plus EOS) over the fixed epochs, both models.
        r.counts["train_tokens"] = DESK_EPOCHS * sum(
            len(line.split("\t")[2].split()) + 1
            for name in ("train_d2s.tsv", "train_base.tsv")
            for line in (work / name).read_text(encoding="utf-8").splitlines()
            if not line.startswith("#"))
        multi, base = reports["multi"]["rbleu"]["mean"], reports["base"]["rbleu"]["mean"]
        r.quality["rbleu_gap"] = multi - base
        r.check("rbleu_gap", multi - base > 0,
                f"multisense rBLEU {multi:.3f} - base {base:.3f} = {multi - base:.3f} (> 0)")

        senses = embeddings.SenseTable.load(work / "senses.tsv", prune_threshold=0.05)
        planted = self.layout["planted"]
        purity = _purities(senses, planted, self.layout["topics"])
        all_p = [p for rows_ in purity.values() for p, _t in rows_]
        split_words = [w for w, rows_ in purity.items()
                       if {t for p, t in rows_ if p >= PURITY_MIN} == {"a", "b"}]
        r.quality["sense_purity_min"] = min(all_p)
        r.quality["planted_split_ratio"] = len(split_words) / len(planted)
        r.counts["senses_retained"] = sum(len(senses.senses(w)) for w in senses.words())
        pure = sum(p >= PURITY_MIN for p in all_p)
        r.check("sense_purity", pure >= 2 and 4 * len(split_words) >= 3 * len(planted),
                f"{pure} planted senses with purity >= {PURITY_MIN} (>= 2); "
                f"{len(split_words)}/{len(planted)} planted words have pure senses in "
                "both topics (>= 3/4)")

        dev = {}
        for kind, source, pairs in (
                ("multi", senses, "dev_d2s.tsv"),
                ("base", embeddings.EmbeddingTable.load(work / "words.tsv"), "dev_base.tsv")):
            model = defgen.load_checkpoint(work / f"{kind}.bin",
                                           textprep.Vocabulary.load(work / f"{kind}.bin.vocab"),
                                           textprep.Vocabulary.load(work / f"{kind}.bin.chars"))
            dev[kind] = defgen.dataset_nll(model, matcher.load_pairs(work / pairs, source))
        r.quality["dev_nll"] = dev["multi"]
        r.check("finite_losses", _finite(dev.values()),
                f"dev NLL multisense {dev['multi']:.4f}, base {dev['base']:.4f}")

        test = lexicon.load_lexicon(work / "splits/test.tsv", textprep.TokenizerProfile())
        generated: dict[str, list[tuple[str, ...]]] = {}
        for word, _k, text in rows:
            generated.setdefault(word, []).append(tuple(text.split()))
        sets = [(generated[w], test.entries[w].definitions) for w in test.headwords()
                if w in generated]
        _oracle_check(r, sets)

        for name in DESK_OUTPUTS:
            r.digests[name] = _digest_file(work / name)


DESK_OUTPUTS = ("tokens.txt", "words.tsv", "senses.tsv", "splits/train.tsv",
                "splits/dev.tsv", "splits/test.tsv", "train_d2s.tsv", "dev_d2s.tsv",
                "train_base.tsv", "dev_base.tsv", "multi.bin", "base.bin",
                "generated.tsv", "eval_multi.json", "eval_base.json",
                "scores_multi.tsv", "scores_base.tsv")


def _oracle_check(r: PassResult, sets) -> None:
    worst, n = max_oracle_error(sets, metrics.word_scores)
    r.counts["oracle_sets"] = n
    r.check("bleu_oracle", n > 0 and worst <= ORACLE_TOLERANCE,
            f"max |defmod - oracle| {worst:.2e} over {n} word sets (<= 1e-9)")


# --- paper ----------------------------------------------------------------

PAPER_GEN = defgen.GenConfig(temperature=0.1, max_len=16)
PAPER_EVAL_RUNS = 1


class Paper(Workload):
    name = "paper"
    why = ("paper dimensions (300/300/300, V = 20k, 14 M parameters): BLAS "
           "matmuls, 20k-wide softmax and Adam dominate, not Python overhead")
    setup_reps = 5
    # Pass times at paper dimensions fall over the first passes while the
    # allocator and huge-page state of the 100 MB arrays settle.
    warmup_passes = 2

    def setup(self):
        d = self.inputs
        vocab = textprep.Vocabulary.load(d / "model.bin.vocab")
        chars = textprep.Vocabulary.load(d / "model.bin.chars")
        model = defgen.load_checkpoint(d / "model.bin", vocab, chars)
        senses = embeddings.SenseTable.load(d / "senses.tsv", prune_threshold=0.05)
        return {
            "model": model,
            "senses": senses,
            "train": matcher.load_pairs(d / "train_pairs.tsv", senses),
            "dev": matcher.load_pairs(d / "dev_pairs.tsv", senses),
            "test": lexicon.load_lexicon(d / "test.tsv", textprep.TokenizerProfile()),
            "gen_words": (d / "gen_words.txt").read_text(encoding="utf-8").split(),
        }

    def run_pass(self, state, work: Path) -> PassResult:
        r = PassResult()
        model = state["model"]
        if "pristine" not in state:
            state["pristine"] = {k: p.data.copy() for k, p in model.params.items()}
        for name, p in model.params.items():  # every pass starts from the checkpoint
            np.copyto(p.data, state["pristine"][name])
            p.grad = None
        # The checkpoint's config fixes batch 16 and one epoch: two steps
        # over the 32 training pairs, then one dev-NLL pass.
        _model, report = _timed(r, "train", defgen.train_defmodel, model,
                                state["train"], state["dev"])
        rng = np.random.default_rng(self.seed)
        generated = []
        for word in state["gen_words"]:
            start = time.perf_counter()
            rows = defgen.generate_for_word(model, word, state["senses"], PAPER_GEN, rng)
            elapsed = time.perf_counter() - start
            _add(r.stage_s, "generate", elapsed)
            _add(r.part_s, "generate", elapsed)
            r.gen_def_ms.extend([1000.0 * elapsed / len(rows)] * len(rows))
            generated.append([tokens for _k, tokens in rows])
        ev = _timed(r, "evaluate", metrics.evaluate, model, state["test"], state["senses"],
                    PAPER_GEN, runs=PAPER_EVAL_RUNS, base_seed=self.seed)
        r.outputs = {"report": report, "generated": generated, "eval": ev}
        return r

    def check(self, r: PassResult, state, work: Path) -> None:
        report, generated, ev = (r.outputs[k] for k in ("report", "generated", "eval"))
        r.counts["train_tokens"] = sum(len(p.definition) + 1 for p in state["train"])
        r.counts["gen_defs"] = sum(len(g) for g in generated)
        r.counts["gen_tokens"] = sum(len(t) for g in generated for t in g)
        r.counts["eval_words"] = ev.scored_words * ev.runs
        r.quality["dev_nll"] = report.dev_losses[0]
        r.check("finite_losses", _finite(report.train_losses + report.dev_losses),
                f"train NLL {report.train_losses[0]:.4f}, dev NLL {report.dev_losses[0]:.4f}")
        # Generated sets against the test words' references, cycled.
        test = state["test"]
        refs = [test.entries[w].definitions for w in test.headwords()]
        _oracle_check(r, [(g, refs[i % len(refs)]) for i, g in enumerate(generated)])
        model = state["model"]
        r.digests["params"] = _digest_arrays(model.params[k].data for k in sorted(model.params))
        r.digests["generated"] = hashlib.sha256(repr(generated).encode()).hexdigest()
        r.digests["eval"] = hashlib.sha256(ev.to_json().encode()).hexdigest()
        r.outputs = {}


# --- zipf-vocab -----------------------------------------------------------

ZIPF_SGNS = embeddings.SgnsConfig(dim=50, window=5, epochs=1, min_count=1, seed=0)
ZIPF_ADAGRAM = embeddings.AdagramConfig(dim=50, window=5, epochs=1, min_count=1, seed=0,
                                        initial_lr=0.5, prune_threshold=0.05)


class ZipfVocab(Workload):
    name = "zipf-vocab"
    why = ("SGNS and AdaGram alone on a Zipf corpus of about 2,050 types: "
           "AdaGram's O(V) exact softmax and np.add.at dominate")
    setup_reps = 25

    def setup(self):
        tokens = (self.inputs / "tokens.txt").read_text(encoding="utf-8").split()
        return {"tokens": tokens, "vocab": textprep.build_vocab(tokens, min_count=1)}

    def run_pass(self, state, work: Path) -> PassResult:
        r = PassResult()
        sgns = _timed(r, "sgns", embeddings.train_sgns, state["tokens"], ZIPF_SGNS)
        ada = _timed(r, "adagram", embeddings.train_adagram, state["tokens"], ZIPF_ADAGRAM)
        r.outputs = {"sgns": sgns, "adagram": ada}
        return r

    def check(self, r: PassResult, state, work: Path) -> None:
        sgns, ada = r.outputs["sgns"], r.outputs["adagram"]
        n = len(state["tokens"])
        r.counts["corpus_tokens"] = n
        r.counts["sgns_tokens"] = n * ZIPF_SGNS.epochs
        r.counts["adagram_tokens"] = n * ZIPF_ADAGRAM.epochs
        r.counts["vocab_size"] = len(ada.words())
        r.counts["senses_retained"] = sum(len(ada.senses(w)) for w in ada.words())
        sgns_m = np.array([sgns.vector(w) for w in sgns.words()])
        protos = [ada.prototypes(w) for w in ada.words()]
        r.check("finite_vectors",
                np.isfinite(sgns_m).all() and all(np.isfinite(v).all() and np.isfinite(p).all()
                                                  for v, p in protos),
                f"{len(sgns_m)} SGNS and {len(protos)} AdaGram words have finite vectors "
                "(the embedding trainers expose no loss)")
        types = len(state["vocab"]) - 4
        r.check("vocab_size", len(ada.words()) == types == len(sgns_m),
                f"{len(ada.words())} AdaGram and {len(sgns_m)} SGNS words == {types} "
                "corpus types (min_count 1)")
        r.digests["sgns"] = _digest_arrays([sgns_m])
        r.digests["adagram"] = _digest_arrays([a for v, p in protos for a in (v, p)])
        r.outputs = {}


WORKLOADS = {w.name: w for w in (Desk, Paper, ZipfVocab)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
