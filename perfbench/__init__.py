"""Benchmark of the flagship pages -> triples pipeline (see run.py)."""
