"""In-process tracing: spans around calls into defmod's public functions.

`Tracer.install` replaces functions at the module attributes their callers
look them up by (for example `defmod.defgen.lstm_step`, which `batch_nll`
reads from the `defgen` namespace at every call) and `Tensor.backward` on
the class. Each call records a span: name, start, end, parent span and run
id. Spans stay in memory; `uninstall` restores every original attribute.

Self time of a span is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0


# (module, attribute, span name). The span name is the layer that owns the
# function; the module is where the caller looks the function up.
WRAPPED = (
    ("defmod.cli", "cmd_tokenize", "cli.tokenize"),
    ("defmod.cli", "cmd_train_embeddings", "cli.train-embeddings"),
    ("defmod.cli", "cmd_stats", "cli.stats"),
    ("defmod.cli", "cmd_split", "cli.split"),
    ("defmod.cli", "cmd_build_pairs", "cli.build-pairs"),
    ("defmod.cli", "cmd_train", "cli.train"),
    ("defmod.cli", "cmd_generate", "cli.generate"),
    ("defmod.cli", "cmd_evaluate", "cli.evaluate"),
    ("defmod.cli", "tokenize", "textprep.tokenize"),
    ("defmod.cli", "build_vocab", "textprep.build_vocab"),
    ("defmod.cli", "load_lexicon", "lexicon.load"),
    ("defmod.cli", "lexicon_stats", "lexicon.stats"),
    ("defmod.cli", "split_lexicon", "lexicon.split"),
    ("defmod.cli", "train_sgns", "embeddings.sgns"),
    ("defmod.cli", "train_adagram", "embeddings.adagram"),
    ("defmod.cli", "build_training_pairs", "matcher.build_pairs"),
    ("defmod.cli", "build_base_pairs", "matcher.build_pairs"),
    ("defmod.cli", "load_pairs", "matcher.load_pairs"),
    ("defmod.cli", "save_pairs", "matcher.save_pairs"),
    ("defmod.cli", "init_model", "defgen.init_model"),
    ("defmod.cli", "train_defmodel", "defgen.train"),
    ("defmod.cli", "save_checkpoint", "defgen.checkpoint_save"),
    ("defmod.cli", "load_checkpoint", "defgen.checkpoint_load"),
    ("defmod.cli", "generate_for_word", "defgen.generate_for_word"),
    ("defmod.cli", "evaluate", "metrics.evaluate"),
    ("defmod.defgen", "init_model", "defgen.init_model"),
    ("defmod.defgen", "train_defmodel", "defgen.train"),
    ("defmod.defgen", "dataset_nll", "defgen.dev_nll"),
    ("defmod.defgen", "load_checkpoint", "defgen.checkpoint_load"),
    ("defmod.defgen", "save_checkpoint", "defgen.checkpoint_save"),
    ("defmod.defgen", "generate_for_word", "defgen.generate_for_word"),
    ("defmod.defgen", "batch_nll", "neural.forward"),
    ("defmod.defgen", "lstm_step", "neural.lstm_step"),
    ("defmod.defgen", "char_cnn_forward", "neural.char_cnn"),
    ("defmod.defgen", "softmax_cross_entropy", "neural.softmax_ce"),
    ("defmod.defgen", "clip_global_norm", "neural.clip"),
    ("defmod.defgen", "adam_step", "neural.adam"),
    ("defmod.defgen", "init_adam", "neural.adam_init"),
    ("defmod.defgen", "sample_definition", "defgen.sample"),
    ("defmod.metrics", "generate_for_word", "defgen.generate_for_word"),
    ("defmod.metrics", "evaluate", "metrics.evaluate"),
    ("defmod.matcher", "load_pairs", "matcher.load_pairs"),
    ("defmod.lexicon", "load_lexicon", "lexicon.load"),
    ("defmod.textprep", "build_vocab", "textprep.build_vocab"),
    ("defmod.embeddings", "train_sgns", "embeddings.sgns"),
    ("defmod.embeddings", "train_adagram", "embeddings.adagram"),
    ("defmod.metrics", "word_scores", "metrics.word_scores"),
    ("defmod.metrics", "bleu", "metrics.bleu"),
    ("defmod.embeddings.tables.EmbeddingTable", "load", "embeddings.table_load"),
    ("defmod.embeddings.tables.EmbeddingTable", "save", "embeddings.table_save"),
    ("defmod.embeddings.tables.SenseTable", "load", "embeddings.table_load"),
    ("defmod.embeddings.tables.SenseTable", "save", "embeddings.table_save"),
    ("defmod.textprep.Vocabulary", "load", "textprep.vocab_load"),
    ("defmod.neural.tensor.Tensor", "backward", "neural.backward"),
)

MODULES = ("cli", "textprep", "lexicon", "embeddings", "matcher", "neural",
           "defgen", "metrics")


def _resolve(path: str):
    """Module or class object for a dotted path such as `a.b.Class`."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.hooks: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            hook = tracer.hooks.get(name)
            if hook is not None:
                # Bookkeeping gets a span of its own so that it is not
                # charged to the caller's self time.
                with tracer.span("trace.hook"):
                    hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner_path, attr, name in WRAPPED:
            owner = _resolve(owner_path)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    @contextlib.contextmanager
    def active(self):
        """Wrap every target for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.span_id, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s.span_id] = (s.end - s.start) - covered_length(kids)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.span_id]
    return table


def module_totals(table: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Self seconds and calls summed per module (the span-name prefix)."""
    out = {m: {"calls": 0, "self_s": 0.0} for m in MODULES}
    for name, row in table.items():
        module = name.split(".", 1)[0]
        if module in out:
            out[module]["calls"] += row["calls"]
            out[module]["self_s"] += row["self_s"]
    return out


def count_graph_nodes(root) -> int:
    """Nodes reachable from a Tensor through its recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
