"""Smoke and self-tests of the benchmark, at the tiny scale.

    PYTHONPATH=src python3 -m pytest sdxbench -q

The smoke tests run the command line exactly as a user
does; the check tests corrupt a finished run's controller and show that
each end-of-run correctness check notices.
"""

from __future__ import annotations

import json
import subprocess
import sys
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from repro.dataplane.flowtable import FlowRule
from repro.dataplane.reconcile import is_base_cookie
from repro.resilience.faults import FaultInjector
from sdxbench.checks import check_advertised, check_fastpath, check_routes, check_verify
from sdxbench.exchange import SCALES, VERIFY_PROBES, generate_exchange, set_up
from sdxbench.tracing import TIMED_LAYERS
from sdxbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = SCALES["tiny"]


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "sdxbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced(workload):
    completed = _run_cli(
        "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", "0", "--scale", "tiny",
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert measured["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_smoke_traced(tmp_path):
    spans = tmp_path / "spans.json"
    completed = _run_cli(
        "--workload", "churn", "--seed", "3", "--seconds", "0.6",
        "--trace", "1", "--scale", "tiny", "--trace-out", str(spans),
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # churn runs every layer, so each of them must have been seen
    for layer in TIMED_LAYERS:
        assert result["metrics"][f"{layer}.s"]["value"] > 0, layer
    assert result["metrics"]["core.advertised.entries"]["value"] > 0
    assert "not found" not in completed.stderr
    assert "layer table" in completed.stdout
    phases = json.loads(spans.read_text())["phases"]
    kinds = {op["kind"] for phase in phases for op in phase["ops"]}
    assert kinds == {"setup", "burst", "recompile", "edit"}
    ops = {op["id"] for phase in phases for op in phase["ops"]}
    assert all(span["op"] in ops for phase in phases for span in phase["spans"])


def test_refuses_without_source(tmp_path):
    """Outside a checkout (no src/) it exits non-zero and prints no result."""
    (tmp_path / "sdxbench").mkdir()
    for path in (ROOT / "sdxbench").glob("*.py"):
        (tmp_path / "sdxbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = _run_cli(
        "--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_same_seed_same_inputs():
    def first_bursts(seed):
        workload = WORKLOADS["churn"](TINY, seed)
        workload.set_up()
        return [repr(next(workload._bursts)) for _ in range(20)]

    assert first_bursts(5) == first_bursts(5)
    assert first_bursts(5) != first_bursts(6)


def test_environment_knobs_change_nothing(monkeypatch):
    for name, value in (
        ("REPRO_VMAC", "superset"),
        ("REPRO_DATAPLANE", "multitable"),
        ("REPRO_RUNTIME", "inline"),
        ("REPRO_BACKEND", "parallel"),
        ("REPRO_FASTPATH", "0"),
    ):
        monkeypatch.setenv(name, value)
    controller = set_up(generate_exchange(TINY), "fec", "single", seed=1).controller
    assert controller.vmac_mode == "fec"
    assert controller.dataplane_mode == "single"
    assert controller.runtime_mode == "eventloop"
    assert type(controller.sdx.backend).__name__ == "SerialBackend"
    assert controller.fast_path_enabled is True
    assert controller.guard.config.probe_budget == 16


# -- each correctness check fails on a corrupted controller --------------------


@pytest.fixture
def finished():
    workload = WORKLOADS["churn"](TINY, 4)
    workload.set_up()
    workload.round()
    workload.round()
    controller = workload.controller
    assert check_verify(controller, VERIFY_PROBES, 4).ok
    assert check_routes(controller, workload.tally).ok
    assert check_advertised(controller, 4).ok
    assert check_fastpath(workload.recorder).ok
    return workload


def test_verify_check_fails_on_corrupt_commit(finished):
    """The fault injector's silent corruption, committed unguarded."""
    controller = finished.controller
    controller.guard = None
    injector = FaultInjector(seed=4)
    for name in finished.exchange.versions:
        injector.corrupt_commit(controller, participant=name, times=1)
    finished.edit(*finished._edits[0])
    assert not check_verify(controller, VERIFY_PROBES, 4).ok


def test_verify_check_fails_on_dropped_rules(finished):
    table = finished.controller.switch.table
    for rule in [rule for rule in table if is_base_cookie(rule.cookie) and rule.actions]:
        table.remove(rule)
        table.install(
            FlowRule(rule.priority, rule.match, (), cookie=rule.cookie,
                     table=rule.table, goto=rule.goto)
        )
    assert not check_verify(finished.controller, VERIFY_PROBES, 4).ok


def test_routes_check_fails_on_untallied_withdrawal(finished):
    server = finished.controller.route_server
    peer = max(server.peers(), key=lambda name: len(server.prefixes_from(name)))
    prefix = sorted(server.prefixes_from(peer))[0]
    server.withdraw(peer, prefix)
    assert not check_routes(finished.controller, finished.tally).ok


def test_advertised_check_fails_on_wrong_next_hops(finished):
    controller = finished.controller
    for prefix in controller.route_server.sorted_prefixes():
        controller.readvertise_prefix(prefix, IPv4Address("10.255.255.254"))
    assert not check_advertised(controller, 4).ok


def test_fastpath_check_fails_when_reoptimization_keeps_blocks(finished):
    controller = finished.controller
    controller.fast_path.flush = lambda: 0  # a re-optimization that leaves blocks
    while not controller.fast_path.active_prefixes:
        finished.burst(next(finished._bursts))
    finished.reoptimize()
    assert not check_fastpath(finished.recorder).ok
