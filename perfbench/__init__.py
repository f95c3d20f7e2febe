"""Benchmark of the SpKAdd system: four workloads, end-to-end metrics
and a traced per-layer breakdown.  Entry point: ``perfbench/run.py``."""
