"""Benchmark for muntzlab: ``python3 perfbench/run.py --workload NAME ...``."""
