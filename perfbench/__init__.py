"""The repository benchmark: paper-shaped workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload fig5-testbed8 --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how to read
the trace.
"""
