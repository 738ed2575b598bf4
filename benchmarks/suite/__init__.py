"""The MCFI benchmark suite: five seeded workloads, end-to-end metrics
measured untraced, per-layer attribution from a traced run.  See
README.md in this directory and ``BENCHMARK.json`` at the repository
root."""
