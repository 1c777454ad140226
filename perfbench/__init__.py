"""Repository benchmark: workloads, tracing and the run entry point."""
