"""Benchmark for sigma2lab: seeded workloads, end-to-end metrics, a traced run per layer.

Run ``python3 perfbench/run.py`` from the repository root; see run.py.
"""
