"""E1 — the end-to-end forwarding benchmark with a per-layer ladder.

See ``README.md`` beside this file.  Entry points:

- ``python3 benchmarks/e1/run.py --workload W --seed N --seconds S --trace 0|1``
  is one measured run (what ``BENCHMARK.json`` declares);
- ``python -m benchmarks.e1 run|trace|compare`` drives several such runs
  and aggregates or compares them.
"""
