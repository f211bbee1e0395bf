"""The repository's layered benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace
0|1`` runs one workload (``construct``, ``chaos``, ``shard`` or
``serve``) against the sources under ``src/`` and prints one JSON result
line.  ``README.md`` in this directory gives the reason for each
workload and the layer -> metric -> workload table.
"""
