"""The repo's end-to-end benchmark (see ../README.md).

Imports only the public ``repro.*`` API; nothing here reads or writes
``benchmarks/_harness.py``, ``benchmarks/results/`` or
``benchmarks/.calibration/``.
"""
