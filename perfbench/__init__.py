"""homeloop benchmark: workloads, input generators, tracing and output checks."""
