"""Benchmark harness for t0lab; run ``python3 bench/run.py --help``."""
