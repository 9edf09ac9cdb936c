"""End-to-end benchmark (``python3 benchmarks/e2e/run.py``).

A package so that pytest imports its conftest and tests under the ``e2e``
name instead of as top-level ``conftest``, which would shadow the parent
``benchmarks/conftest.py`` that the figure benchmarks import.
"""
