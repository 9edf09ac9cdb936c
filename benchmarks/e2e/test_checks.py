"""The drift workload's top-1 check (``workloads.top1_disagreements``)."""

from __future__ import annotations

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its siblings as top-level modules, as run.py does.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent))
    return importlib.import_module("workloads")


def predictions(ranked: dict, scores=()) -> SimpleNamespace:
    return SimpleNamespace(suggestions=ranked, scores=np.asarray(scores, dtype=float))


REBUILD = SimpleNamespace(store=SimpleNamespace(pair_id=lambda s, t: {"a": 0, "b": 1}[t]))


def test_same_top1_within_batch_noise_agrees(workloads):
    # Seed 2: one target, its BERT feature 1.2e-8 apart between the two paths.
    expected = predictions({"x": [("a", 0.41359392956811547)]}, [0.41359392956811547, 0.4])
    incremental = predictions({"x": [("a", 0.413593933646643)]})
    assert workloads.top1_disagreements(incremental, REBUILD, expected) == []


def test_exact_tie_in_other_order_agrees(workloads):
    expected = predictions({"x": [("a", 0.0), ("b", 0.0)]}, [0.0, 0.0])
    incremental = predictions({"x": [("b", 0.0), ("a", 0.0)]})
    assert workloads.top1_disagreements(incremental, REBUILD, expected) == []


def test_other_top1_disagrees(workloads):
    expected = predictions({"x": [("a", 0.6), ("b", 0.5)]}, [0.6, 0.5])
    incremental = predictions({"x": [("b", 0.6), ("a", 0.5)]})
    assert workloads.top1_disagreements(incremental, REBUILD, expected) == ["x"]


def test_missing_source_disagrees(workloads):
    expected = predictions({"x": [("a", 0.6)], "y": [("b", 0.5)]}, [0.6, 0.5])
    incremental = predictions({"x": [("a", 0.6)]})
    assert workloads.top1_disagreements(incremental, REBUILD, expected) == ["y"]
