"""Repository benchmark: four workloads over the fit, query, serve and stream paths.

Run it from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 45 --trace 0

See ``perfbench/README.md`` for what each workload stresses and how the
traced run attributes time to layers.
"""
