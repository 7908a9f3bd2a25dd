"""World-level benchmark for repro: named workloads, end-to-end host time,
and a traced per-layer self-time split.  Run ``python3 perfbench/run.py -h``.
"""
