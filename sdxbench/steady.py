"""Steadiness check: run each workload N times and show each metric's spread.

    python3 sdxbench/steady.py --runs 10 [--workloads churn failover] [--first-seed 11]

Every run is its own untraced process of ``run_seconds`` from
``BENCHMARK.json``, with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  For every end-to-end metric the table shows
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread — the interquartile distance as a share of the median — and the
metric's bound from ``BENCHMARK.json``.  A spread above a third of its
bound is flagged (``setup_s`` excepted, whose spread is not gated).
The command exits 1 if any run failed, was incorrect, or any flagged
spread exceeds its full bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(ROOT / "sdxbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread_rows(results, bounds):
    rows = []
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        rows.append((name, median, q1, q3, spread, bounds.get(name)))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 sdxbench/steady.py", description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--json-out", type=Path, help="write every run's result here")
    options = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    status = 0
    collected = {}
    for workload in options.workloads:
        results = []
        for index in range(options.runs):
            seed = options.first_seed + index
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
            if not result["correct"] or result["failed"]:
                status = 1
        collected[workload] = results
        print(f"\n{workload}: {options.runs} runs")
        print(f"{'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, median, q1, q3, spread, bound in spread_rows(results, bounds):
            verdict = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    verdict = "OVER BOUND"
                    status = 1
                elif spread > bound / 3:
                    verdict = "over a third of bound"
            shown = "" if bound is None else f"{bound:.2f}"
            print(
                f"{name:<24}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                f"{spread:>9.1%}{shown:>8}  {verdict}"
            )
        print(flush=True)
    if options.json_out:
        options.json_out.write_text(json.dumps(collected, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
