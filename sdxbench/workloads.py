"""The two workloads, each a loop of whole rounds of timed operations.

One client runs a closed loop: it submits one burst, re-optimization or
policy edit, waits until the controller is quiescent, and only then
submits the next.  Every round of a workload performs the same kinds of
operation in the same proportions, so a run that ends after any whole
number of rounds attempts the same mix.

* ``churn`` — paper-shaped bursts from
  :func:`~repro.workloads.update_gen.generate_update_trace`, a background
  re-optimization every ``Scale.churn_bursts`` bursts, then one cycle of
  policy edits on the clean routes.
* ``failover`` — one wave per round: a heavy member's session drops, its
  table drains in bursts, it returns, one re-optimization follows, then
  two cycles of policy edits.  Superset VMACs, two tables.

The policy edits run on clean routes right after a re-optimization, so
they keep the FEC partition and bypass the fast path and the
advertisement rebuild.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.bgp.messages import BGPUpdate
from repro.netutils.ip import IPv4Prefix
from repro.workloads.scenarios import ScenarioSpec, build_scenario_trace, segment_bursts
from repro.workloads.update_gen import generate_update_trace

from sdxbench.exchange import Scale, Setup, generate_exchange, set_up

#: bursts per generated churn trace segment (a run draws as many as it needs)
_TRACE_SEGMENT = 2000


class OpFailure(RuntimeError):
    """A submitted operation completed with an error."""


class Recorder:
    """Per-operation samples of one run."""

    def __init__(self) -> None:
        self.bursts: List[Tuple[float, int]] = []  # (seconds, updates)
        self.recompiles: List[float] = []
        self.edits: List[float] = []
        self.fabric_rules = 0
        #: re-optimizations after which a fast-path prefix remained
        self.fastpath_leftovers = 0

    def clear_samples(self) -> None:
        """Forget the timings so far (after a warm-up round)."""
        self.bursts.clear()
        self.recompiles.clear()
        self.edits.clear()

    @property
    def attempted(self) -> int:
        return len(self.bursts) + len(self.recompiles) + len(self.edits)


class NullTracer:
    """The untraced run's stand-in for :class:`sdxbench.tracing.Tracer`."""

    def begin_op(self, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass


class RouteTally:
    """Each peer's announced prefixes, tallied from the updates replayed.

    Independent of the route server: it starts from the exchange's
    initial table and applies every update the benchmark submitted.
    """

    def __init__(self, initial: List[BGPUpdate]) -> None:
        self.live: Dict[str, Set[IPv4Prefix]] = {}
        self.apply(initial)

    def apply(self, updates: List[BGPUpdate]) -> None:
        for update in updates:
            live = self.live.setdefault(update.peer, set())
            for withdrawal in update.withdrawn:
                live.discard(withdrawal.prefix)
            for announcement in update.announced:
                live.add(announcement.prefix)


class Workload:
    """Shared base: set-up, timed operations, the round loop."""

    name = ""
    vmac_mode = "fec"
    dataplane_mode = "single"
    #: edit cycles per round
    edit_cycles = 1

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        self.exchange = generate_exchange(scale)
        self.setup_seconds: List[float] = []
        self.controller = None
        self.tally: Optional[RouteTally] = None
        self.tracer = NullTracer()
        self.recorder = Recorder()
        self._edits: List[Tuple[str, int]] = []

    # -- set-up --------------------------------------------------------------

    def set_up(self) -> Setup:
        """One full set-up; the last one made is the one the run uses."""
        # Drop the previous controller (and its reference cycles) first,
        # so set-ups do not stack up in memory.
        self.controller = self.tally = None
        gc.collect()
        self.tracer.begin_op("setup")
        setup = set_up(self.exchange, self.vmac_mode, self.dataplane_mode, self.seed)
        self.tracer.end_op()
        self.setup_seconds.append(setup.seconds)
        self.controller = setup.controller
        self.tally = RouteTally(self.exchange.ixp.updates)
        self._edits = self._edit_cycle()
        self.prepare()
        return setup

    def prepare(self) -> None:
        """Build the workload's seeded inputs for the current set-up."""

    def _edit_cycle(self) -> List[Tuple[str, int]]:
        """Policy participants in seeded order, each to version 1 and back.

        A round runs ``edit_cycles`` whole cycles, so every round makes the
        same edits and ends with every policy back at its first version.
        """
        names = sorted(self.exchange.versions)
        self.rng.shuffle(names)
        cycle = [(name, version) for name in names for version in (1, 0)]
        return cycle * self.edit_cycles

    # -- timed operations ----------------------------------------------------

    def burst(self, updates: List[BGPUpdate]) -> None:
        controller = self.controller
        runtime = controller.runtime
        self.tracer.begin_op("burst")
        started = time.perf_counter()
        with runtime.pipelined():
            handles = [controller.routing.process_update(update) for update in updates]
        seconds = time.perf_counter() - started
        self.tracer.end_op()
        errors = [handle.error for handle in handles if handle.error is not None]
        if errors:
            raise OpFailure(f"burst of {len(updates)} updates: {errors[0]!r}")
        self.tally.apply(updates)
        self.recorder.bursts.append((seconds, len(updates)))

    def reoptimize(self) -> None:
        controller = self.controller
        self.tracer.begin_op("recompile")
        started = time.perf_counter()
        controller.run_background_recompilation()
        seconds = time.perf_counter() - started
        self.tracer.end_op()
        self.recorder.recompiles.append(seconds)
        self.recorder.fabric_rules = len(controller.switch.table)
        if controller.fast_path.active_prefixes:
            self.recorder.fastpath_leftovers += 1

    def edit(self, name: str, version: int) -> None:
        policy_set = self.exchange.versions[name][version]
        self.tracer.begin_op("edit")
        started = time.perf_counter()
        self.controller.policy.set_policies(name, policy_set)
        seconds = time.perf_counter() - started
        self.tracer.end_op()
        self.recorder.edits.append(seconds)

    # -- rounds --------------------------------------------------------------

    def round(self) -> None:
        raise NotImplementedError

    def run_rounds(self, seconds: float) -> int:
        """Whole rounds until ``seconds`` have passed; returns the count."""
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            self.round()
            rounds += 1
            if time.perf_counter() >= deadline:
                return rounds


class ChurnWorkload(Workload):
    name = "churn"

    def prepare(self) -> None:
        self._bursts = self._burst_stream()

    def _burst_stream(self) -> Iterator[List[BGPUpdate]]:
        ixp = self.exchange.ixp
        for segment in itertools.count():
            trace = generate_update_trace(
                ixp, bursts=_TRACE_SEGMENT, seed=self.seed * 1000 + segment
            )
            yield from segment_bursts(trace.updates)

    def round(self) -> None:
        for _ in range(self.scale.churn_bursts):
            self.burst(next(self._bursts))
        self.reoptimize()
        for name, version in self._edits:
            self.edit(name, version)


class FailoverWorkload(Workload):
    name = "failover"
    vmac_mode = "superset"
    dataplane_mode = "multitable"
    # A wave is 38 bursts; two edit cycles keep the edit samples of a
    # run near two hundred.
    edit_cycles = 2

    def prepare(self) -> None:
        ixp = self.exchange.ixp
        heavy = sorted(ixp.announced, key=lambda name: (-len(ixp.announced[name]), name))
        # The heaviest member carries about half the table; a storm of
        # its whole table would be one wave as long as a whole run.
        self._victim = heavy[1]
        self._waves = itertools.count()

    def _wave(self) -> List[List[BGPUpdate]]:
        spec = ScenarioSpec(
            name=f"failover-{self._victim}",
            kind="failover-storm",
            seed=self.seed * 1000 + next(self._waves),
            params={
                "victim": self._victim,
                "waves": 1,
                "burst_size": self.scale.failover_burst,
                "churn_per_burst": 3,
            },
        )
        return segment_bursts(build_scenario_trace(self.exchange.ixp, spec).updates)

    def round(self) -> None:
        for updates in self._wave():
            self.burst(updates)
        self.reoptimize()
        for name, version in self._edits:
            self.edit(name, version)


WORKLOADS = {cls.name: cls for cls in (ChurnWorkload, FailoverWorkload)}
