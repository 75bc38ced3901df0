"""almanac-ledger: the repo's performance benchmark.

Five fixed workloads, two families of end-to-end numbers that are never
mixed (host time: how fast the simulator runs; simulated time and
counts: what the modelled TimeSSD would do) and per-layer numbers from a
separate traced pass.  See ``README.md`` here and ``BENCHMARK.json`` at
the repo root.
"""
