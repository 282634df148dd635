"""The repo's end-to-end benchmark with per-layer attribution.

Six named workloads run through the full ``WorkflowSystem`` (ORB, admission,
execution service, journal/WAL with a real on-disk mirror, workers, reply)
under production defaults; every output is checked before a number is
printed.  ``README.md`` in this directory defines every workload and metric.

Run ``python -m benchmarks.bench`` (all workloads) or
``python benchmarks/bench/run.py --workload fan_wide --seed 0 --seconds 15
--trace 0`` (the ``BENCHMARK.json`` contract form).
"""
