"""Command line: run one workload, check it, print its metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run, which
also writes its spans and prints the layer table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, Sequence

from sdxbench import tracing
from sdxbench.checks import run_checks
from sdxbench.exchange import SCALES
from sdxbench.workloads import WORKLOADS, NullTracer, Workload

ROOT = Path(__file__).resolve().parent.parent
#: where a traced run writes its spans (ignored by git)
TRACE_DIR = ROOT / ".sdxbench-out"

#: per-layer metrics that count calls of a timed layer
CALL_LAYERS = (
    "bgp.update",
    "core.readvertise",
    "pipeline.compile",
    "policy.optimized",
    "dataplane.lookup",
)
#: per-layer metrics that count events seen by a wrapper
EVENT_COUNTS = (
    "bgp.best_route.calls",
    "core.fastpath.prefixes",
    "core.fastpath.rules",
    "dataplane.patch.rules",
    "runtime.coalesced",
)


# -- statistics -------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(samples: int) -> float:
    """The highest quantile up to 0.9 with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / samples))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


# -- end-to-end metrics ------------------------------------------------------------


def end_to_end(workload: Workload, peak_mb: float) -> Dict[str, Dict]:
    recorder = workload.recorder
    burst_seconds = [seconds for seconds, _ in recorder.bursts]
    updates = sum(count for _, count in recorder.bursts)
    burst_tail = tail_quantile(len(burst_seconds))
    edit_tail = tail_quantile(len(recorder.edits))
    return {
        "setup_s": _metric(statistics.median(workload.setup_seconds), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "fabric_rules": _metric(float(recorder.fabric_rules), "count"),
        "burst_p50_ms": _metric(percentile(burst_seconds, 0.5) * 1e3, "ms"),
        "burst_p90_ms": _metric(percentile(burst_seconds, burst_tail) * 1e3, "ms"),
        "updates_per_s": _metric(updates / sum(burst_seconds), "1/s"),
        "recompile_p50_ms": _metric(percentile(recorder.recompiles, 0.5) * 1e3, "ms"),
        "edit_p50_ms": _metric(percentile(recorder.edits, 0.5) * 1e3, "ms"),
        "edit_p90_ms": _metric(percentile(recorder.edits, edit_tail) * 1e3, "ms"),
    }


def describe(workload: Workload, rounds: int, seconds: float) -> str:
    recorder = workload.recorder
    sizes = sorted(count for _, count in recorder.bursts)
    small = sum(1 for size in sizes if size <= 3)
    return (
        f"{workload.name} (seed {workload.seed}): {rounds} rounds in {seconds:.1f} s; "
        f"{len(sizes)} bursts of {sum(sizes)} updates ({small / len(sizes):.0%} "
        f"of at most 3 updates, largest {sizes[-1]}), "
        f"{len(recorder.recompiles)} re-optimizations, {len(recorder.edits)} edits; "
        f"tails at q={tail_quantile(len(sizes)):.2f} (bursts), "
        f"q={tail_quantile(len(recorder.edits)):.2f} (edits); set-ups "
        + ", ".join(f"{s:.3f}" for s in workload.setup_seconds)
        + " s"
    )


# -- the traced run -----------------------------------------------------------------


def _traced(workload: Workload, fn):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    workload.tracer = tracer
    try:
        result = fn()
    finally:
        workload.tracer = NullTracer()
        undo()
    return tracer, result


def traced_run(workload: Workload, seconds: float, spans_path: Path):
    """Set-up traced; rounds untraced, then as many traced.

    Writes the spans to ``spans_path`` and returns the per-layer metrics
    (per traced round), the layer tables and the traced round count.
    """
    setup_tracer, _ = _traced(workload, workload.set_up)
    workload.round()  # warm-up, untimed
    started = time.perf_counter()
    plain_rounds = workload.run_rounds(seconds / 2)
    plain = (time.perf_counter() - started) / plain_rounds
    before = tracing.telemetry_totals(workload.controller)
    started = time.perf_counter()
    tracer, rounds = _traced(workload, lambda: workload.run_rounds(seconds / 2))
    traced = (time.perf_counter() - started) / rounds
    after = tracing.telemetry_totals(workload.controller)
    gauges = tracing.telemetry_gauges(workload.controller)
    overhead = traced / plain

    values: Dict[str, Dict] = {}
    for layer in tracing.TIMED_LAYERS:
        seconds_in = tracer.layers.get(layer, [0.0, 0])[0]
        values[f"{layer}.s"] = _metric(seconds_in / rounds, "s/round")
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = _metric(
            tracer.layers.get(layer, [0.0, 0])[1] / rounds, "1/round"
        )
    for name in EVENT_COUNTS:
        values[name] = _metric(tracer.counts.get(name, 0) / rounds, "1/round")
    for name in after:
        unit = "s/round" if name.endswith(".s") else "1/round"
        values[name] = _metric((after[name] - before[name]) / rounds, unit)
    for name, value in gauges.items():
        values[name] = _metric(value, "count")
    values["gc.s"] = _metric(tracer.gc_seconds / rounds, "s/round")
    values["unattributed.s"] = _metric(tracer.unattributed / rounds, "s/round")
    values["trace.overhead"] = _metric(overhead, "ratio")

    tables = (
        tracing.layer_table(setup_tracer, "set-up (1 traced)", 1)
        + "\n"
        + tracing.layer_table(tracer, f"rounds ({rounds} traced, per round)", rounds)
        + f"\ntracing overhead: traced {traced:.3f} s/round vs untraced "
        f"{plain:.3f} s/round ({plain_rounds} rounds): x{overhead:.3f}"
    )
    tracing.write_spans(spans_path, setup_tracer, tracer)
    return values, tables, rounds


# -- main ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 sdxbench/run.py",
        description="SDX control-plane benchmark: one workload, one process",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="exchange and round size (tiny: the smoke tests' size)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="span file of a traced run "
        "(default .sdxbench-out/<workload>-seed<seed>.spans.json)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    options = parse_args(argv)
    scale = SCALES[options.scale]
    workload = WORKLOADS[options.workload](scale, options.seed)
    started = time.perf_counter()
    if options.trace:
        path = options.trace_out or TRACE_DIR / (
            f"{workload.name}-seed{workload.seed}.spans.json"
        )
        metrics, tables, rounds = traced_run(workload, options.seconds, path)
        print(tables)
        print(f"spans written to {path}")
    else:
        for _ in range(scale.setups):
            workload.set_up()
        workload.round()  # warm-up: caches and lazy set-up settle, untimed
        workload.recorder.clear_samples()
        rounds = workload.run_rounds(options.seconds)
        peak_mb = peak_rss_mb()
    checks = run_checks(workload)
    if not options.trace:
        # As many set-ups again after the rounds: the speed of a shared
        # machine drifts over seconds, and setup_s should not rest on one
        # moment of it.  The run's controller is no longer needed.
        for _ in range(scale.setups):
            workload.set_up()
        metrics = end_to_end(workload, peak_mb)
    print(describe(workload, rounds, time.perf_counter() - started))
    for result in checks.values():
        print(f"check {result.name}: {'ok' if result.ok else 'FAILED'} ({result.detail})")
    print(
        json.dumps(
            {
                "correct": all(result.ok for result in checks.values()),
                "attempted": workload.recorder.attempted,
                # A failed operation raises and ends the run without a
                # result, so every counted operation succeeded.
                "failed": 0,
                "metrics": metrics,
            }
        )
    )
    return 0
