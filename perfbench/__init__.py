"""The repository benchmark: seeded OdeView workloads against a real server.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout and
prints its metrics; see ``run.py`` for the workloads and metrics and
``BASELINE.md`` for a traced run of the unmodified tree.
"""
