"""Benchmark harness: feeds, workloads, tracing, checks and reports."""
