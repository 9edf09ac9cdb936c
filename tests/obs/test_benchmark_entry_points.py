"""Every library name the end-to-end benchmark reaches for must exist.

The traced benchmark run wraps each ``(owner, attribute)`` pair from
``benchmarks/e2e/layers.py``'s ``entry_points()`` with ``getattr``, and
its workloads call a few sequential-encode helpers directly.  Deleting one
of those names from ``src/`` would otherwise show up only when a traced
run crashes.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    # layers.py imports only the standard library at module level; load it
    # by path so the benchmark package's own conftest stays out of tier-1.
    name = "_e2e_layers_under_test"
    spec = importlib.util.spec_from_file_location(name, LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(name, None)


def test_every_entry_point_resolves(layers):
    points = layers.entry_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in points
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []


def test_sequential_encode_names_the_workloads_call():
    from repro.engine import ScoringEngine
    from repro.engine.batching import plan_microbatches
    from repro.lm.tokenizer import WordPieceTokenizer

    assert callable(plan_microbatches)
    assert callable(WordPieceTokenizer.encode_attribute_pair)
    assert callable(ScoringEngine.score_encoded)
