"""Self-time arithmetic, span recording and counters of the tracer."""

import numpy as np
import pytest

import _paths  # noqa: F401

import defmod.metrics
from defbench.trace import (WRAPPED, Span, Tracer, count_graph_nodes, covered_length,
                            module_totals, self_times, summarize)
from defmod.neural import Tensor


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_children_only():
    spans = [Span(0, "a", None, "r", 0.0, 10.0),
             Span(1, "b", 0, "r", 1.0, 4.0),
             Span(2, "c", 1, "r", 2.0, 3.0),
             Span(3, "b", 0, "r", 5.0, 6.0)]
    selfs = self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    table = summarize(spans)
    assert table["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_child_overlap_is_not_subtracted_twice():
    spans = [Span(0, "a", None, "r", 0.0, 10.0),
             Span(1, "b", 0, "r", 1.0, 5.0),
             Span(2, "c", 0, "r", 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_module_totals_group_by_prefix():
    table = {"neural.forward": {"calls": 2, "total_s": 3.0, "self_s": 1.0},
             "neural.backward": {"calls": 1, "total_s": 2.0, "self_s": 2.0},
             "trace.hook": {"calls": 5, "total_s": 0.1, "self_s": 0.1}}
    totals = module_totals(table)
    assert totals["neural"] == {"calls": 3, "self_s": 3.0}
    assert "trace" not in totals


def test_wrapped_functions_record_nested_spans_and_restore():
    original = defmod.metrics.bleu
    tracer = Tracer("t")
    with tracer.active():
        score = defmod.metrics.word_scores([("a", "b")], [("a", "b"), ("c",)])
    assert defmod.metrics.bleu is original
    assert score.bleu == pytest.approx(100.0)
    names = [s.name for s in tracer.spans]
    assert names == ["metrics.word_scores", "metrics.bleu", "metrics.bleu", "metrics.bleu"]
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert all(s.run_id == "t" and s.end >= s.start for s in tracer.spans)


def test_every_wrapped_target_exists():
    with Tracer().active():
        pass
    assert len({(m, a) for m, a, _n in WRAPPED}) == len(WRAPPED)


def test_graph_node_count_is_exact():
    x = Tensor(np.ones(3), requires_grad=True)
    y = (x * x + x).sum()
    assert count_graph_nodes(y) == 4  # x, x*x, +, sum
