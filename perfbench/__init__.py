"""One-core benchmark for qamd_ray; entry point ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, metrics and how to run it.
"""
