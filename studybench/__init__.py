"""Outside-in benchmark of a measurement ``Study``: scan throughput.

Every workload runs through the public front door,
``repro.study.Study(StudySpec, ExecutionPlan).run()``. Run one workload
from the repository root::

    python3 studybench/run.py --workload daily-object --seed 7 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured without tracing; with ``--trace 1`` they are the per-layer ones,
taken from a traced run whose spans wrap each layer's public entry
points from this package (nothing under ``src/`` is instrumented).

Modules:

* :mod:`studybench.workloads` -- the three workloads and one timed
  repetition of each;
* :mod:`studybench.digest` -- the canonical dataset digest and the
  per-server query-log digest that check every run's output;
* :mod:`studybench.trace` -- the in-memory span tracer, the layer map and
  the per-layer metrics;
* :mod:`studybench.host` -- host facts recorded with every result;
* :mod:`studybench.run` -- the command line;
* :mod:`studybench.spread` -- runs the command on several seeds per
  workload, interleaved, and prints each metric's quartile spread.
"""
