"""End-of-run correctness checks.

Each check compares the controller against an independent computation
or a required property, never against a stored copy of earlier output:

* ``verify`` — the differential oracle (``ops.verify``): its reference
  interpreter derives forwarding from the policy ASTs and RIBs without
  the compiler; zero mismatches and zero invariant violations.
* ``routes`` — for every peer, the route server's prefixes equal the
  live set the benchmark tallied from the updates it submitted.
* ``advertised`` — for sampled (participant, prefix) pairs, the
  advertised next hop is the VNH of the prefix's affected FEC group,
  else the best route's own next hop.
* ``fastpath`` — no fast-path prefix survives a re-optimization.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple

from sdxbench.exchange import VERIFY_PROBES
from sdxbench.workloads import Recorder, RouteTally

#: (participant, prefix) pairs sampled by the advertised-next-hop check
ADVERTISED_SAMPLES = 2000


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def check_verify(controller, probes: int, seed: int) -> CheckResult:
    report = controller.ops.verify(probes=probes, seed=seed, invariants=True)
    ok = report.checked > 0 and not report.mismatches and not report.violations
    return CheckResult(
        "verify",
        ok,
        f"{report.checked}/{report.probes} probes checked, "
        f"{len(report.mismatches)} mismatches, "
        f"{len(report.violations)} invariant violations",
    )


def check_routes(controller, tally: RouteTally) -> CheckResult:
    server = controller.route_server
    wrong = [
        peer
        for peer in sorted(server.peers())
        if set(server.prefixes_from(peer)) != tally.live.get(peer, set())
    ]
    return CheckResult(
        "routes",
        not wrong,
        f"{len(server.peers())} peers, {len(wrong)} differ from the tally"
        + (f" (first: {wrong[0]})" if wrong else ""),
    )


def check_advertised(controller, seed: int, samples: int = ADVERTISED_SAMPLES) -> CheckResult:
    """Sampled advertised next hops against the FEC-or-best-route rule.

    Only meaningful with no fast-path override in place, i.e. right after
    a commit of a full compilation.
    """
    server = controller.route_server
    fec_table = controller.last_compilation.fec_table
    names = sorted(controller.config.participant_names())
    prefixes = server.sorted_prefixes()
    rng = random.Random(seed)
    checked = 0
    wrong: List[str] = []
    for _ in range(samples):
        name = names[rng.randrange(len(names))]
        prefix = prefixes[rng.randrange(len(prefixes))]
        best = server.best_route(name, prefix)
        if best is None:
            expected = None
        else:
            group = fec_table.group_for(prefix)
            expected = (
                group.vnh.address
                if group is not None and group.is_affected
                else best.attributes.next_hop
            )
        actual = controller.advertised_next_hop(name, prefix)
        checked += 1
        if actual != expected:
            wrong.append(f"{name} {prefix}: {actual} != {expected}")
    return CheckResult(
        "advertised",
        not wrong,
        f"{checked} pairs sampled, {len(wrong)} wrong"
        + (f" (first: {wrong[0]})" if wrong else ""),
    )


def check_fastpath(recorder: Recorder) -> CheckResult:
    return CheckResult(
        "fastpath",
        recorder.fastpath_leftovers == 0 and len(recorder.recompiles) > 0,
        f"{len(recorder.recompiles)} re-optimizations, "
        f"{recorder.fastpath_leftovers} left fast-path prefixes behind",
    )


def run_checks(workload) -> Dict[str, CheckResult]:
    controller = workload.controller
    results = [
        check_verify(controller, VERIFY_PROBES, workload.seed),
        check_routes(controller, workload.tally),
        check_advertised(controller, workload.seed),
        check_fastpath(workload.recorder),
    ]
    return {result.name: result for result in results}
