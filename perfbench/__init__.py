"""The repository benchmark: four workloads, one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in its own process and prints, as its last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; ``perfbench/rationale.json`` records why each workload exists,
which end-to-end metric each per-layer metric should move, and the
traced shares measured at the commit that introduced the benchmark.
Times are read in reference seconds, which cancel the shared host's
swings in speed (see :mod:`perfbench.speed`).
"""
