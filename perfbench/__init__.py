"""Benchmark of the netwave CLI: seeded workloads, checked outputs,
end-to-end and per-layer metrics.  Entry point: ``perfbench/run.py``."""
