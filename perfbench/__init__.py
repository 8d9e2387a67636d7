"""The repository benchmark: replay and RPC workloads, measured from outside.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload.  See ``perfbench/README.md`` for the workloads, the
metrics and the layer map.
"""
