"""Metric definitions, per-run aggregation and the result line.

`END_TO_END` metrics apply to every workload and are the ones gated in
BENCHMARK.json. `STAGE` metrics are end-to-end figures of one pipeline
stage; each applies only on the workloads where that stage runs, so they
are printed and written to the result file but not gated. `PER_LAYER`
metrics come from the traced pass.
"""

from __future__ import annotations

import statistics

from .trace import MODULES, count_graph_nodes, module_totals, summarize

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, workloads where it applies)
STAGE = {
    "fail_ratio": ("ratio", "lower", ("desk", "paper", "zipf-vocab")),
    "sgns_tokens_per_s": ("1/s", "higher", ("desk", "zipf-vocab")),
    "adagram_tokens_per_s": ("1/s", "higher", ("desk", "zipf-vocab")),
    "train_tokens_per_s": ("1/s", "higher", ("desk", "paper")),
    "gen_tokens_per_s": ("1/s", "higher", ("desk", "paper")),
    "gen_def_p50_ms": ("ms", "lower", ("desk", "paper")),
    "gen_def_p90_ms": ("ms", "lower", ("desk", "paper")),
    "eval_words_per_s": ("1/s", "higher", ("desk", "paper")),
    "dev_nll": ("nats/token", "lower", ("desk", "paper")),
    "rbleu_gap": ("BLEU", "higher", ("desk",)),
    "sense_purity_min": ("ratio", "higher", ("desk",)),
}

CLI_COMMANDS = ("tokenize", "train-embeddings", "stats", "split", "build-pairs", "train",
                "generate", "evaluate")

# name -> (unit, better). Seconds are self time unless the doc says otherwise.
PER_LAYER = {
    "neural.nodes_per_step": ("count", "lower"),
    "neural.graph_nodes": ("count", "lower"),
    "neural.lstm_step_s": ("s", "lower"),
    "neural.lstm_step_calls": ("count", "lower"),
    "neural.char_cnn_s": ("s", "lower"),
    "neural.char_cnn_calls": ("count", "lower"),
    "neural.forward_s": ("s", "lower"),
    "neural.forward_calls": ("count", "lower"),
    "neural.backward_s": ("s", "lower"),
    "neural.softmax_ce_s": ("s", "lower"),
    "neural.clip_s": ("s", "lower"),
    "neural.adam_s": ("s", "lower"),
    "defgen.sample_s": ("s", "lower"),
    "defgen.sample_calls": ("count", "lower"),
    "defgen.sampled_tokens": ("count", "higher"),
    "defgen.init_model_s": ("s", "lower"),
    "defgen.checkpoint_load_s": ("s", "lower"),
    "defgen.checkpoint_save_s": ("s", "lower"),
    "embeddings.table_load_s": ("s", "lower"),
    "embeddings.table_save_s": ("s", "lower"),
    "metrics.word_scores_s": ("s", "lower"),
    "metrics.word_scores_calls": ("count", "lower"),
    "metrics.bleu_s": ("s", "lower"),
    "metrics.bleu_calls": ("count", "lower"),
    "embeddings.adagram_s": ("s", "lower"),
    "embeddings.sgns_s": ("s", "lower"),
    "embeddings.vocab_size": ("count", "higher"),
    "embeddings.senses_retained": ("count", "higher"),
    "matcher.build_pairs_s": ("s", "lower"),
    "matcher.pairs_built": ("count", "higher"),
    "matcher.entries_skipped": ("count", "lower"),
    "matcher.pairs_yield": ("ratio", "higher"),
    "textprep.tokenize_s": ("s", "lower"),
    "textprep.tokens": ("count", "higher"),
    "textprep.build_vocab_s": ("s", "lower"),
    "lexicon.load_s": ("s", "lower"),
    "lexicon.split_s": ("s", "lower"),
    **{f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS},
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **{f"{m}.calls": ("count", "lower") for m in MODULES},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Per-layer seconds read as inclusive span time rather than self time.
INCLUSIVE = {"neural.forward", "metrics.word_scores"}


def median(values):
    return statistics.median(values) if values else None


def percentile_with_support(values, q: float, support: int = 10):
    """The q-quantile of `values`, or None when fewer than `support`
    samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    beyond = len(ordered) - int(q * len(ordered)) - 1
    if beyond < support:
        return None
    return statistics.quantiles(ordered, n=100, method="inclusive")[int(q * 100) - 1]


def _rate(passes, count: str, part: str):
    values = [p.counts[count] / p.part_s[part] for p in passes
              if count in p.counts and p.part_s.get(part)]
    return median(values)


def stage_metrics(workload: str, passes, failed: int, attempted: int) -> dict:
    """Median over passes of each stage metric that applies to `workload`."""
    gen_ms = [ms for p in passes for ms in p.gen_def_ms]
    first = passes[0].quality if passes else {}
    values = {
        "fail_ratio": failed / attempted,
        "sgns_tokens_per_s": _rate(passes, "sgns_tokens", "sgns"),
        "adagram_tokens_per_s": _rate(passes, "adagram_tokens", "adagram"),
        "train_tokens_per_s": _rate(passes, "train_tokens", "train"),
        "gen_tokens_per_s": _rate(passes, "gen_tokens", "generate"),
        "gen_def_p50_ms": median(gen_ms),
        "gen_def_p90_ms": percentile_with_support(gen_ms, 0.9),
        "eval_words_per_s": _rate(passes, "eval_words", "evaluate"),
        "dev_nll": first.get("dev_nll"),
        "rbleu_gap": first.get("rbleu_gap"),
        "sense_purity_min": first.get("sense_purity_min"),
    }
    return {k: v for k, v in values.items() if workload in STAGE[k][2] and v is not None}


class LayerCounters:
    """Counts taken at the traced boundaries by tracer hooks."""

    def __init__(self):
        self.first_step_nodes = 0
        self.graph_nodes = 0
        self.sampled_tokens = 0
        self.tokens = 0
        self.pairs_built = 0
        self.entries_skipped = 0
        self.definitions_offered = 0
        self.vocab_size = 0
        self.senses_retained = 0

    def install(self, tracer) -> None:
        tracer.hooks.update({
            "neural.forward": self._forward,
            "defgen.sample": self._sample,
            "textprep.tokenize": self._tokenize,
            "matcher.build_pairs": self._pairs,
            "embeddings.adagram": self._adagram,
        })

    def _forward(self, args, kwargs, result):
        nodes = count_graph_nodes(result[0])
        if not self.graph_nodes:
            self.first_step_nodes = nodes
        self.graph_nodes += nodes

    def _sample(self, args, kwargs, result):
        self.sampled_tokens += len(result)

    def _tokenize(self, args, kwargs, result):
        self.tokens += len(result)

    def _pairs(self, args, kwargs, result):
        pairs, summary = result
        self.pairs_built += summary.pairs_built
        self.entries_skipped += summary.entries_skipped
        self.definitions_offered += args[0].definition_count()

    def _adagram(self, args, kwargs, result):
        self.vocab_size = max(self.vocab_size, len(result.words()))
        self.senses_retained += sum(len(result.senses(w)) for w in result.words())


def layer_metrics(spans, counters: LayerCounters, traced_wall: float,
                  untraced_wall: float) -> dict:
    table = summarize(spans)

    def secs(name):
        key = "total_s" if name in INCLUSIVE or name.startswith("cli.") else "self_s"
        return table.get(name, {}).get(key, 0.0)

    def calls(name):
        return int(table.get(name, {}).get("calls", 0))

    out = {
        "neural.nodes_per_step": counters.first_step_nodes,
        "neural.graph_nodes": counters.graph_nodes,
        "defgen.sampled_tokens": counters.sampled_tokens,
        "embeddings.vocab_size": counters.vocab_size,
        "embeddings.senses_retained": counters.senses_retained,
        "matcher.pairs_built": counters.pairs_built,
        "matcher.entries_skipped": counters.entries_skipped,
        "matcher.pairs_yield": (counters.pairs_built / counters.definitions_offered
                                if counters.definitions_offered else 0.0),
        "textprep.tokens": counters.tokens,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(spans),
    }
    for metric in PER_LAYER:
        if metric in out:
            continue
        base, _, kind = metric.rpartition("_")
        if kind == "s":
            out[metric] = secs(base)
        elif kind == "calls":
            out[metric] = calls(base)
    for module, row in module_totals(table).items():  # overrides <module>.self_s
        out[f"{module}.self_s"] = row["self_s"]
        out[f"{module}.calls"] = int(row["calls"])
    return {k: out[k] for k in PER_LAYER}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
