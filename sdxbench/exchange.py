"""The benchmark's exchange: sizes, controller settings and policy versions.

Every workload runs one explicit production configuration: the
event-loop runtime with burst coalescing, the commit guard at a probe
budget of 16, the serial backend and the fast path on.  Every
:class:`~repro.core.config.SDXConfig` knob is set here, so no
``REPRO_*`` variable in the caller's environment reaches the controller.

The exchange itself (members, prefixes, the §6.1 policy mix) comes from
a fixed topology seed, so its size and compiled rule count are a
property of the code under test rather than of the draw.  It is
generated once per run, outside every timed region, so the generators
in :mod:`repro.workloads` are not part of ``setup_s``.  The workload
seed drives everything that happens to it (bursts, background churn,
edit order, guard probe streams).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Tuple

from repro.core.config import SDXConfig
from repro.core.controller import SDXController
from repro.core.participant import SDXPolicySet
from repro.guard import GuardConfig
from repro.pipeline.backend import SerialBackend
from repro.policy.language import Match, Parallel, Policy, Sequential, match, parallel, sequential
from repro.runtime import RuntimeConfig
from repro.workloads.policy_gen import _APP_PORTS, _SRC_SPLITS, generate_policies
from repro.workloads.topology_gen import SyntheticIXP, generate_ixp

#: the guard's probe budget per commit (the churn-replay operating point)
PROBE_BUDGET = 16
#: the generator seed of the exchange (fixed: see the module doc)
TOPOLOGY_SEED = 6
#: probes of the end-of-run differential check.  Policy traffic is a
#: small share of the probe space: on the tiny exchange, 400 probes missed
#: a fabric whose policy rules had all been turned into drops, 2,000 did not.
VERIFY_PROBES = 2000


class Scale(NamedTuple):
    """How big one run's exchange and rounds are."""

    members: int
    prefixes: int
    #: route bursts between two re-optimizations on ``churn``
    churn_bursts: int
    #: withdrawals (and re-announcements) per failover burst
    failover_burst: int
    #: set-ups before the rounds, and again after them; ``setup_s`` is
    #: the median of all of them
    setups: int


SCALES: Dict[str, Scale] = {
    "full": Scale(
        members=40,
        prefixes=3000,
        churn_bursts=40,
        failover_burst=50,
        setups=3,
    ),
    # A seconds-long version of the same workloads for the smoke tests.
    "tiny": Scale(
        members=12,
        prefixes=240,
        churn_bursts=6,
        failover_burst=20,
        setups=1,
    ),
}


def sdx_config(vmac_mode: str, dataplane_mode: str, seed: int) -> SDXConfig:
    """The production configuration, with every knob set explicitly."""
    return SDXConfig(
        vmac_mode=vmac_mode,
        dataplane_mode=dataplane_mode,
        backend=SerialBackend(),
        runtime_mode="eventloop",
        runtime_config=RuntimeConfig(
            ingress_capacity=1024,
            coalesce=True,
            defer_guard=True,
            admission_retry=False,
            max_admission_retries=8,
            sim_time=False,
        ),
        guard=GuardConfig(
            probe_budget=PROBE_BUDGET,
            seed=seed,
            invariants=False,
            enabled=True,
            max_incidents=64,
        ),
        admission=None,
        fast_path_enabled=True,
    )


# -- the second version of a policy set ---------------------------------------


def _next_in(ring: Tuple, value):
    """The value after ``value`` on one of the §6.1 generator's rings."""
    return ring[(ring.index(value) + 1) % len(ring)] if value in ring else value


def _shift_value(field: str, value):
    if field == "dstport":
        return _next_in(_APP_PORTS, value)
    if field == "srcport":
        return 1024 + (value - 1024 + 1) % 64000
    if field == "srcip":
        return _next_in(_SRC_SPLITS, str(value))
    return value


def _shift_match(predicate: Match) -> Match:
    """The same match with its port and source fields moved.

    ``dstip`` sets and every forwarding target stay as they are, so the
    FEC partition the policy induces is unchanged.
    """
    values: Dict[str, List] = {}
    for header_match in predicate.header_matches:
        for field, value in header_match.constraints.items():
            seen = values.setdefault(field, [])
            if value not in seen:
                seen.append(value)
    shifted = {}
    for field, options in values.items():
        moved = [_shift_value(field, value) for value in options]
        shifted[field] = moved[0] if len(moved) == 1 else set(moved)
    return match(**shifted)


def shifted_policy(policy: Policy) -> Policy:
    """A second version of ``policy``: same peers and prefix sets."""
    if isinstance(policy, Parallel):
        return parallel(*(shifted_policy(child) for child in policy.policies))
    if isinstance(policy, Sequential):
        return sequential(*(shifted_policy(child) for child in policy.policies))
    if isinstance(policy, Match):
        return _shift_match(policy)
    return policy


def policy_versions(
    policies: Dict[str, SDXPolicySet]
) -> Dict[str, Tuple[SDXPolicySet, SDXPolicySet]]:
    """Each policy participant's (generated, shifted) policy sets."""
    versions = {}
    for name, policy_set in sorted(policies.items()):
        second = SDXPolicySet(
            outbound=None
            if policy_set.outbound is None
            else shifted_policy(policy_set.outbound),
            inbound=None
            if policy_set.inbound is None
            else shifted_policy(policy_set.inbound),
        )
        versions[name] = (policy_set, second)
    return versions


# -- set-up ---------------------------------------------------------------------


class Exchange(NamedTuple):
    """The generated inputs: made once per run, before any timing."""

    ixp: SyntheticIXP
    policies: Dict[str, SDXPolicySet]
    versions: Dict[str, Tuple[SDXPolicySet, SDXPolicySet]]


def generate_exchange(scale: Scale) -> Exchange:
    """The fixed synthetic exchange and its §6.1 policy mix."""
    ixp = generate_ixp(scale.members, scale.prefixes, seed=TOPOLOGY_SEED)
    policies = generate_policies(ixp, seed=TOPOLOGY_SEED + 1).policies
    return Exchange(ixp, policies, policy_versions(policies))


class Setup(NamedTuple):
    controller: SDXController
    seconds: float


def set_up(exchange: Exchange, vmac_mode: str, dataplane_mode: str, seed: int) -> Setup:
    """Controller build, route load, policy install and the first guarded compile.

    The inputs are generated beforehand, so only the controller is timed.
    """
    started = time.perf_counter()
    controller = SDXController(
        exchange.ixp.config, sdx=sdx_config(vmac_mode, dataplane_mode, seed)
    )
    controller.route_server.load(exchange.ixp.updates)
    with controller.deferred_recompilation():
        for name, policy_set in exchange.policies.items():
            controller.policy.set_policies(name, policy_set)
    return Setup(controller, time.perf_counter() - started)
