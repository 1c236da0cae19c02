"""defmod benchmark harness: seeded inputs, workloads, tracing, reporting."""
