"""Benchmark harness — one module per table/figure of the paper."""
