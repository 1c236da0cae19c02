"""One benchmark run: inputs, set-up, closed-loop passes, checks, result.

Untraced passes repeat until `--seconds` have elapsed. The first ones are
warm-ups that are checked but not timed; at least two timed passes follow,
so that same-seed outputs can be compared byte for byte. With `--trace 1`
one traced set-up repetition and one extra traced pass follow; their spans
give the per-layer metrics, and the traced pass's wall time minus the
untraced median gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import resource
import time
import traceback
from pathlib import Path

from . import env
from .inputs import ensure_inputs
from .report import (END_TO_END, PER_LAYER, STAGE, LayerCounters, layer_metrics, median,
                     result_line, stage_metrics)
from .trace import Tracer, summarize
from .workloads import WORKLOADS, fresh_dir

MIN_PASSES = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.state_dir = root / ".perfbench"
        self.workload_name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.passes = []
        self.failures: list[str] = []
        self.attempted = 0
        self.reference_digests = None

    def _one_pass(self, wl, state, work: Path, tracer: Tracer | None = None):
        """Run and check one pass; returns the PassResult or None on error."""
        self.attempted += 1
        index = self.attempted
        try:
            with tracer.active() if tracer else contextlib.nullcontext():
                result = wl.run_pass(state, fresh_dir(work))
            wl.check(result, state, work)
        except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
            self.failures.append(f"pass {index}: {traceback.format_exc(limit=3)}")
            return None
        if self.reference_digests is None:
            self.reference_digests = result.digests
        changed = sorted(k for k in result.digests
                         if result.digests[k] != self.reference_digests.get(k))
        result.check("same_seed_identical", not changed,
                     "primary outputs byte-identical to the first pass"
                     + (f"; differ: {', '.join(changed)}" if changed else ""))
        bad = [f"{name}: {detail}" for name, ok, detail in result.checks if not ok]
        if bad:
            self.failures.append(f"pass {index}: " + "; ".join(bad))
        return result

    def execute(self) -> dict:
        # Installs a handler first, so defmod.cli.main's basicConfig is a no-op.
        logging.basicConfig(level=logging.ERROR, format="%(levelname)s %(message)s")
        inputs = ensure_inputs(self.state_dir / "cache", self.workload_name, self.seed)
        wl = WORKLOADS[self.workload_name](inputs, self.seed)
        work = self.state_dir / "work" / self.workload_name

        # Set-up is short on desk and zipf-vocab, so a collector pause inside
        # one repetition would dominate it: collect first, pause the
        # collector while timing, take the median over repetitions.
        setup_s = []
        for _ in range(wl.setup_reps):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                state = wl.setup()
                setup_s.append(time.perf_counter() - start)
            finally:
                gc.enable()

        start = time.perf_counter()
        while (self.attempted < wl.warmup_passes + MIN_PASSES
               or time.perf_counter() - start < self.seconds):
            gc.collect()
            result = self._one_pass(wl, state, work)
            if result is None:
                break  # an error repeats on the same inputs; report it once
            self.passes.append(result)
        timed = self.passes[wl.warmup_passes:]
        walls = [sum(p.stage_s.values()) for p in timed]

        metrics = {
            "setup_s": median(setup_s),
            "wall_s": median(walls),
            "peak_rss_mb": _peak_rss_mb(),
        }
        layer = None
        spans = []
        clean = [p for p in self.passes if all(ok for _n, ok, _d in p.checks)]
        if self.trace:
            tracer = Tracer(run_id=f"{self.workload_name}-{self.seed}")
            counters = LayerCounters()
            counters.install(tracer)
            # One traced set-up repetition, so the loaders show per layer.
            with tracer.active(), tracer.span("bench.setup"):
                wl.setup()
            gc.collect()
            traced = self._one_pass(wl, state, work, tracer)
            spans = tracer.spans
            if traced is not None:
                layer = layer_metrics(spans, counters, sum(traced.stage_s.values()),
                                      metrics["wall_s"] or 0.0)
                if all(ok for _n, ok, _d in traced.checks):
                    clean.append(traced)
        failed = self.attempted - len(clean)
        stage = stage_metrics(self.workload_name, timed, failed, self.attempted)
        return {
            "setup_samples_s": setup_s,
            "pass_walls_s": walls,
            "timed": timed,
            "metrics": metrics,
            "stage": stage,
            "layer": layer,
            "spans": spans,
            "failed": failed,
            "why": wl.why,
            "inputs": str(inputs.relative_to(self.state_dir.parent)),
        }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    runner = Run(root, workload, seed, seconds, trace)
    out = runner.execute()
    attempted = runner.attempted
    failed = out["failed"]
    correct = failed == 0 and len(out["timed"]) >= MIN_PASSES
    if trace:
        gated, units = out["layer"], PER_LAYER
    else:
        gated, units = out["metrics"], END_TO_END
    if gated is None or any(v is None for v in gated.values()):
        correct = False
        gated = {k: (gated or {}).get(k) or 0.0 for k in units}

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "why": out["why"],
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "environment": env.record(),
        "inputs": out["inputs"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": runner.failures,
        "passes": len(runner.passes),
        "setup_samples_s": out["setup_samples_s"],
        "pass_walls_s": out["pass_walls_s"],
        "stage_median_s": {k: median([p.stage_s[k] for p in out["timed"]])
                           for k in (out["timed"][0].stage_s if out["timed"] else {})},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0], "better": END_TO_END[k][1]}
                       for k, v in out["metrics"].items()},
        "stage": {k: {"value": v, "unit": STAGE[k][0], "better": STAGE[k][1]}
                  for k, v in out["stage"].items()},
        "stage_samples": {"gen_defs": sum(len(p.gen_def_ms) for p in out["timed"])},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in
                   (runner.passes[0].checks if runner.passes else [])],
        "per_layer": ({k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in out["layer"].items()}
                      if out["layer"] else None),
        "span_table": summarize(out["spans"]) if out["spans"] else None,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
    if out["spans"]:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for s in out["spans"]:
                f.write(json.dumps({"id": s.span_id, "name": s.name, "parent": s.parent,
                                    "run": s.run_id, "start": s.start, "end": s.end}) + "\n")

    _print_human(record)
    print(json.dumps(result_line(correct, attempted, failed, gated, units)))
    return 0


def _print_human(record: dict) -> None:
    print(f"# {record['workload']} seed {record['seed']}: {record['why']}")
    e = record["environment"]
    print(f"# nproc {e['nproc']}, python {e['python']}, numpy {e['numpy']}, "
          f"scipy {e['scipy']}, BLAS {e['blas']} x{e['blas_threads']}")
    print(f"# passes {record['passes']}, attempted {record['attempted']}, "
          f"failed {record['failed']} (fail_ratio base: {record['attempted']} passes)")
    for c in record["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'} - {c['detail']}")
    for failure in record["failures"]:
        print(f"failure: {failure.strip()}")
    for section in ("end_to_end", "stage", "per_layer"):
        for name, m in (record[section] or {}).items():
            better = f" ({m['better']} is better)" if "better" in m else ""
            print(f"{section} {name} = {m['value']} {m['unit']}{better}")
    for name, secs in record["stage_median_s"].items():
        print(f"stage_time {name} = {secs} s")
    if "gen_def_p50_ms" in record["stage"]:
        print(f"stage gen_def samples = {record['stage_samples']['gen_defs']}")
