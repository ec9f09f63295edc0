"""End-to-end benchmark: four federated workloads with traced per-layer attribution.

See README.md in this directory; run ``python -m benchmarks.e2e --help``.
"""
