"""Benchmark harness and per-artifact experiment definitions."""

from .harness import Experiment, ResultRow

__all__ = ["Experiment", "ResultRow"]
