"""Wall-clock performance ledger: four workloads, end to end and per layer.

One benchmark, two front ends over the same code:

* ``python3 benchmarks/wallclock/run.py --workload W --seed N --seconds S
  --trace 0|1`` -- one workload per process, one JSON line last on stdout
  (the contract in ``BENCHMARK.json``);
* ``PYTHONPATH=src python -m benchmarks.wallclock --seed N`` -- the whole
  ledger: every workload untraced, then traced, printed by metric name.

See ``README.md`` in this directory for the glossary and the layer ->
end-to-end interaction table.  Importing the package runs nothing.
"""
