"""One benchmark harness for the DollyMP reproduction (see README.md).

Run it as ``PYTHONPATH=src python -m benchmarks.bench`` (all four
workloads, repeated and summarized) or as
``python3 benchmarks/bench/__main__.py --workload NAME --seed N
--seconds S --trace 0|1`` (one run, one JSON result line).
"""
