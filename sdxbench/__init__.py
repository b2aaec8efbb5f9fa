"""Steady SDX control-plane benchmark: churn, failover and policy edits.

``python3 sdxbench/run.py --workload churn --seed 1 --seconds 35 --trace 0``
runs one workload against :class:`repro.core.controller.SDXController`
and prints every end-to-end metric as the last line of its output; see
``sdxbench/README.md`` for the workloads, metrics and reference figures.
"""
