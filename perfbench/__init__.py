"""Pinned end-to-end and per-layer benchmark for the SCPM reproduction.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` documents
the workloads, the metrics and the correctness checks.
"""
