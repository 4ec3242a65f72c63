"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run it from the repository root with ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``; ``BENCHMARK.json`` names the
workloads and metrics and ``perfbench/README.md`` says why each exists.
"""
