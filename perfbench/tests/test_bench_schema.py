"""BENCHMARK.json and the result line have the shape the harness promises."""

import json
import re

import _paths  # noqa: F401

from defbench.report import (END_TO_END, PER_LAYER, STAGE, LayerCounters, layer_metrics,
                             percentile_with_support, result_line)
from defbench.trace import Span
from defbench.workloads import WORKLOADS

SPEC = json.loads((_paths.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (_paths.ROOT / path).is_dir()
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((_paths.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_harness():
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and "\n" not in w["why"] and len(w["why"]) <= 200
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metrics_match_the_harness():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
        assert END_TO_END[m["name"]] == (m["unit"], m["better"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"])
        assert PER_LAYER[m["name"]] == (m["unit"], m["better"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert not set(STAGE) & set(END_TO_END)


def test_result_line_has_exactly_four_keys():
    line = result_line(True, 3, 0, {"setup_s": 0.5, "wall_s": 2.0, "peak_rss_mb": 100.0},
                       END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
    assert set(line["metrics"]) == set(END_TO_END)
    json.dumps(line)


def test_layer_metrics_cover_every_per_layer_name():
    spans = [Span(0, "cli.train", None, "r", 0.0, 10.0),
             Span(1, "defgen.train", 0, "r", 1.0, 9.0),
             Span(2, "neural.forward", 1, "r", 2.0, 5.0),
             Span(3, "neural.lstm_step", 2, "r", 3.0, 4.0)]
    out = layer_metrics(spans, LayerCounters(), traced_wall=10.5, untraced_wall=10.0)
    assert list(out) == list(PER_LAYER)
    assert out["cli.train_s"] == 10.0          # cli commands: inclusive
    assert out["neural.forward_s"] == 3.0      # forward: inclusive
    assert out["neural.lstm_step_s"] == 1.0
    assert out["neural.lstm_step_calls"] == 1
    assert out["neural.self_s"] == 3.0         # forward self 2 + lstm 1
    assert out["defgen.self_s"] == 5.0
    assert out["cli.self_s"] == 2.0
    assert out["trace.overhead_s"] == 0.5
    assert out["metrics.bleu_calls"] == 0


def test_p90_needs_ten_samples_beyond_it():
    assert percentile_with_support(list(range(50)), 0.9) is None
    assert percentile_with_support(list(range(200)), 0.9) is not None


def test_workload_reasons_are_recorded_in_the_harness():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
