"""End-to-end benchmark: four flagship workloads, two clocks.

``python -m benchmarks.e2e run`` measures the paper's latency figures
(simulated clock, exact under a seed) and what the simulator costs to
produce them (host clock, noisy) on four whole-system workloads, and
attributes host time to the packages of ``src/repro`` from outside the
program.  ``benchmarks/e2e/README.md`` is the catalogue; the root
``BENCHMARK.json`` is the contract an automated driver reads, served by
``benchmarks/e2e/run.py``.
"""
