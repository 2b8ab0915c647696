"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``perfbench/README.md`` for the workloads, the metrics and how each
per-layer number maps onto an end-to-end one.
"""
