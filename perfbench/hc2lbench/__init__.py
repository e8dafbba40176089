"""HC2L benchmark: workloads, tracing and metrics behind perfbench/run.py."""
