"""Seeded benchmark for cedr: workloads, runner and per-layer tracing."""
