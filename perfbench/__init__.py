"""Benchmark of the Phelps reproduction: see ``perfbench/README.md``."""
