"""The COMA benchmark harness (see perfbench/METRICS.md)."""
