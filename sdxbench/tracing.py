"""The traced run: spans around each layer's public functions.

:func:`install` wraps the layers' entry points in place (class
attributes and the module names the callers look up) and returns a
function that restores the originals.  A wrapped call records a span —
its layer name, start, end, parent span and the operation (burst,
re-optimization, edit or set-up) that caused it — only while an
operation is open; outside one the wrapper calls straight through.

A layer's *self time* is its spans' duration minus the time their child
spans cover.  Whatever an operation spends outside every top-level span
is reported as ``unattributed``.  The controller's own telemetry
(``ops.metrics()``) supplies the pipeline stage split, the shard cache,
guard probes and the gauges.

Hot leaves (``FlowTable.lookup``, the per-participant best-route
decision) are aggregated rather than stored span by span.
"""

from __future__ import annotations

import functools
import gc
import itertools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers whose time is measured, in report order
TIMED_LAYERS = (
    "bgp.update",
    "core.fastpath",
    "core.readvertise",
    "pipeline.compile",
    "pipeline.commit",
    "policy.optimized",
    "dataplane.diff",
    "dataplane.lookup",
    "dataplane.install",
    "guard.check",
)
#: stored span records beyond this many are counted but not kept
MAX_SPANS = 100_000


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self._stack: List[list] = []  # open frames: [name, start, child, id, call]
        self._ids = itertools.count(1)
        self.op: Optional[Tuple[int, str]] = None
        self._op_start = 0.0
        self._op_covered = 0.0
        #: layer -> [self seconds, calls]
        self.layers: Dict[str, List[float]] = {}
        #: plain event counts (prefixes, rules, coalesced updates, ...)
        self.counts: Dict[str, float] = {}
        #: op kind -> {layer -> self seconds}, plus "_wall"/"_unattributed"
        self.by_op: Dict[str, Dict[str, float]] = {}
        self.spans: List[Tuple] = []
        self.dropped_spans = 0
        self.ops: List[Tuple] = []
        self.unattributed = 0.0
        self.gc_seconds = 0.0
        self._gc_started: Optional[float] = None

    # -- operations ----------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.op = (next(self._ids), kind)
        self._op_covered = 0.0
        self._op_start = self.clock()

    def end_op(self) -> None:
        end = self.clock()
        op_id, kind = self.op
        wall = end - self._op_start
        rest = wall - self._op_covered
        self.unattributed += rest
        row = self.by_op.setdefault(kind, {})
        row["_wall"] = row.get("_wall", 0.0) + wall
        row["_unattributed"] = row.get("_unattributed", 0.0) + rest
        row["_ops"] = row.get("_ops", 0) + 1
        self.ops.append((op_id, kind, self._op_start, end))
        self.op = None

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, call: Optional[int] = None) -> Optional[list]:
        if self.op is None:
            return None
        if call is None:
            call = self.new_call(name)
        frame = [name, self.clock(), 0.0, next(self._ids), call]
        self._stack.append(frame)
        return frame

    def new_call(self, name: str) -> int:
        entry = self.layers.setdefault(name, [0.0, 0])
        entry[1] += 1
        return next(self._ids)

    def exit(self, frame: Optional[list], record: bool = True) -> None:
        if frame is None:
            return
        end = self.clock()
        name, start, child, span_id, call = frame
        self._stack.pop()
        duration = end - start
        own = duration - child
        self.layers[name][0] += own
        row = self.by_op.setdefault(self.op[1], {})
        row[name] = row.get(name, 0.0) + own
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            self._op_covered += duration
            parent_id = None
        if record:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (span_id, name, start, end, parent_id, self.op[0], call)
                )
            else:
                self.dropped_spans += 1

    def count(self, name: str, amount: float = 1) -> None:
        if self.op is not None:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = self.clock() if self.op is not None else None
        elif self._gc_started is not None:
            self.gc_seconds += self.clock() - self._gc_started
            self._gc_started = None

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, record: bool = True, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, record)
            if after is not None and frame is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Span every resume of a generator; one call per generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            call = tracer.new_call(name) if tracer.op is not None else None
            sent = None
            try:
                while True:
                    frame = tracer.enter(name, call) if call is not None else None
                    try:
                        token = inner.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.exit(frame)
                    sent = yield token
            finally:
                inner.close()

        return wrapper

    def counter(self, name: str, fn: Callable, amount=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.count(name, 1 if amount is None else amount(args))
            return fn(*args, **kwargs)

        return wrapper


def _patch(patches: List, owner: Any, attr: str, make: Callable) -> None:
    """Replace ``owner.attr`` by ``make(original)``.

    A missing or merely inherited entry point is an error: skipping it
    would make its layer read 0, which looks like a large gain.
    """
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        raise AttributeError(
            f"sdxbench tracing: {owner.__name__}.{attr} is not defined there; "
            "update tracing.install to the layer's new entry point"
        )
    setattr(owner, attr, make(original))
    patches.append((owner, attr, original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the undo function."""
    from repro.bgp.route_server import ParticipantView, RouteServer
    from repro.core.controller import SDXController
    from repro.core.incremental import FastPathEngine
    from repro.dataplane.flowtable import FlowTable
    from repro.dataplane.reconcile import TablePatch
    from repro.guard.commits import CommitGuard
    from repro.pipeline import stages
    from repro.pipeline.pipeline import CompilationPipeline
    from repro.policy.classifier import Classifier

    patches: List = []
    wrap = tracer.wrap

    def fastpath_counts(args, results) -> None:
        tracer.count("core.fastpath.prefixes", len(results))
        tracer.count(
            "core.fastpath.rules", sum(result.rules_installed for result in results)
        )

    def ingress_submit(original):
        @functools.wraps(original)
        def wrapper(self, update):
            if tracer.op is not None and self.batching:
                tracer.count("runtime.coalesced")
            return original(self, update)

        return wrapper

    _patch(patches, RouteServer, "process_update", lambda fn: wrap("bgp.update", fn))
    _patch(patches, ParticipantView, "best", lambda fn: tracer.counter("bgp.best_route.calls", fn))
    _patch(
        patches,
        FastPathEngine,
        "handle_changes",
        lambda fn: wrap("core.fastpath", fn, after=fastpath_counts),
    )
    _patch(patches, SDXController, "readvertise_prefix", lambda fn: wrap("core.readvertise", fn))
    _patch(
        patches,
        CompilationPipeline,
        "compile_steps",
        lambda fn: tracer.wrap_generator("pipeline.compile", fn),
    )
    _patch(patches, stages.FabricCommitter, "install", lambda fn: wrap("pipeline.commit", fn))
    _patch(patches, stages, "diff", lambda fn: wrap("dataplane.diff", fn))
    _patch(patches, stages, "target_specs", lambda fn: wrap("dataplane.diff", fn))
    _patch(
        patches,
        TablePatch,
        "apply",
        lambda fn: tracer.counter(
            "dataplane.patch.rules",
            fn,
            amount=lambda args: len(args[0].adds) + len(args[0].removes) + len(args[0].moves),
        ),
    )
    _patch(patches, Classifier, "optimized", lambda fn: wrap("policy.optimized", fn))
    _patch(patches, FlowTable, "lookup", lambda fn: wrap("dataplane.lookup", fn, record=False))
    _patch(patches, FlowTable, "install_classifier", lambda fn: wrap("dataplane.install", fn))
    _patch(patches, CommitGuard, "check_commit", lambda fn: wrap("guard.check", fn))
    _patch(patches, CommitGuard, "verify_snapshot", lambda fn: wrap("guard.check", fn))
    _patch(patches, stages.UpdateIngress, "submit", ingress_submit)
    gc.callbacks.append(tracer._on_gc)

    def undo() -> None:
        gc.callbacks.remove(tracer._on_gc)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


# -- the controller's own telemetry -------------------------------------------


def telemetry_totals(controller) -> Dict[str, float]:
    """Cumulative figures from ``ops.metrics()`` the layer table uses."""
    snapshot = controller.ops.metrics()

    def series(name: str, field: str = "value", **labels) -> float:
        entry = snapshot.get(name)
        if entry is None:
            return 0.0
        total = 0.0
        for row in entry["series"]:
            if all(row["labels"].get(key) == value for key, value in labels.items()):
                total += row.get(field, 0.0)
        return total

    totals = {
        f"pipeline.stage.{stage}.s": series(
            "sdx_pipeline_stage_seconds", "sum", stage=stage
        )
        for stage in ("ast", "fec", "stage2", "shards", "assemble")
    }
    totals["pipeline.shard.hit"] = series("sdx_shard_cache_total", result="hit")
    totals["pipeline.shard.miss"] = series("sdx_shard_cache_total", result="miss")
    totals["guard.probes"] = series("sdx_guard_probes_total")
    return totals


def telemetry_gauges(controller) -> Dict[str, float]:
    """Point-in-time sizes at the end of the traced rounds."""
    snapshot = controller.ops.metrics()
    vnh = snapshot.get("sdx_vnh_allocated", {"series": []})["series"]
    runtime = controller.runtime
    # The per-(participant, prefix) map of committed next hops.  It is
    # private state that a later design may drop, so its absence reads 0
    # rather than failing the run, but never silently.
    advertised = getattr(controller, "_advertised", None)
    if advertised is None:
        print(
            "sdxbench tracing: SDXController._advertised not found; "
            "core.advertised.entries reads 0",
            file=sys.stderr,
        )
    return {
        "core.advertised.entries": float(len(advertised or ())),
        "core.vnh.allocated": float(sum(row["value"] for row in vnh)),
        "runtime.queue.peak": float(
            runtime.health_info().get("ingress_peak", 0) if runtime is not None else 0
        ),
    }


# -- reports ----------------------------------------------------------------------


def layer_table(tracer: Tracer, title: str, rounds: int) -> str:
    """Seconds, share of operation time and calls per layer.

    Seconds are self time per round (per set-up for the set-up table);
    the columns after ``calls`` split the seconds by operation kind.
    """
    kinds = sorted(kind for kind in tracer.by_op)
    wall = sum(row["_wall"] for row in tracer.by_op.values()) or 1.0
    header = f"{'layer':<22}{'s':>10}{'share':>8}{'calls':>11}" + "".join(
        f"{kind:>11}" for kind in kinds
    )
    lines = [f"layer table: {title}", header]

    def row(label: str, seconds: float, calls, per_kind) -> str:
        shown = "" if calls is None else f"{calls / rounds:.1f}"
        return (
            f"{label:<22}{seconds / rounds:>10.4f}{seconds / wall:>8.1%}{shown:>11}"
            + "".join(f"{value / rounds:>11.4f}" for value in per_kind)
        )

    for layer in TIMED_LAYERS:
        seconds, calls = tracer.layers.get(layer, [0.0, 0])
        per_kind = [tracer.by_op[kind].get(layer, 0.0) for kind in kinds]
        lines.append(row(layer, seconds, calls, per_kind))
    per_kind = [tracer.by_op[kind]["_unattributed"] for kind in kinds]
    lines.append(row("unattributed", tracer.unattributed, None, per_kind))
    per_kind = [tracer.by_op[kind]["_wall"] for kind in kinds]
    lines.append(row("operations (wall)", wall, sum(
        tracer.by_op[kind]["_ops"] for kind in kinds), per_kind))
    lines.append(
        f"gc {tracer.gc_seconds / rounds:.4f} s within the rows above; "
        f"{len(tracer.spans)} spans kept, {tracer.dropped_spans} dropped"
    )
    return "\n".join(lines)


def write_spans(path, *tracers: Tracer) -> None:
    """One JSON file: every kept span and operation of the given tracers."""
    import json
    from pathlib import Path

    fields = ("id", "name", "start", "end", "parent", "op", "call")
    out = {"phases": []}
    for tracer in tracers:
        out["phases"].append(
            {
                "ops": [dict(zip(("id", "kind", "start", "end"), op)) for op in tracer.ops],
                "spans": [dict(zip(fields, span)) for span in tracer.spans],
                "dropped_spans": tracer.dropped_spans,
            }
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(out, handle)
