"""Benchmark of the jointpo package; run ``python3 perfbench/run.py --help``."""
