"""Workload inputs are a pure function of the seed (``inputs.py``)."""

from __future__ import annotations

import json
from pathlib import Path

from collections import Counter

from repro.datasets import load_dataset
from repro.schema.drift import delta_to_dict

from . import inputs
from .run import END_TO_END, PER_LAYER

CANDIDATES = 5040


def drift_script(seed: int) -> list[dict]:
    source = load_dataset("customer_c").source
    return [delta_to_dict(d) for d in inputs.drift_script(source, seed)]


def test_same_seed_same_inputs():
    assert inputs.serve_ladder(3, 10.0, CANDIDATES) == inputs.serve_ladder(3, 10.0, CANDIDATES)
    assert drift_script(3) == drift_script(3)


def test_other_seed_other_inputs():
    first, second = (inputs.serve_ladder(seed, 10.0, CANDIDATES) for seed in (0, 1))
    for a, b in zip(first, second):
        assert [x.offset_s for x in a.arrivals] != [x.offset_s for x in b.arrivals]
        assert [x.pair_indices for x in a.arrivals] != [x.pair_indices for x in b.arrivals]
        assert [x.session for x in a.arrivals] != [x.session for x in b.arrivals]
    assert [s.swap_seed for r in first for s in r.swaps] != [
        s.swap_seed for r in second for s in r.swaps
    ]
    assert drift_script(0) != drift_script(1)


def test_ladder_shape():
    rungs = inputs.serve_ladder(0, 10.0, CANDIDATES)
    assert [rung.rate for rung in rungs] == list(inputs.SERVE_RATES)
    main = rungs[inputs.SERVE_RATES.index(inputs.SERVE_MAIN_RATE)]
    assert main.duration_s == 10.0
    assert [swap.offset_s for swap in main.swaps] == [2.0, 4.0, 6.0, 8.0]
    for rung in rungs:
        assert len(rung.arrivals) == round(rung.rate * rung.duration_s)
        offsets = [arrival.offset_s for arrival in rung.arrivals]
        assert offsets == sorted(offsets)
        for arrival in rung.arrivals:
            assert 0 <= arrival.offset_s < rung.duration_s
            assert len(set(arrival.pair_indices)) == inputs.PAIRS_PER_REQUEST
            assert all(0 <= i < CANDIDATES for i in arrival.pair_indices)
            assert 0 <= arrival.session < inputs.SERVE_SESSIONS
    assert len(drift_script(0)) == inputs.DRIFT_DELTAS


def test_every_seed_drifts_the_same_op_mix():
    def kinds(seed: int) -> Counter:
        return Counter(op["op"] for delta in drift_script(seed) for op in delta["operations"])

    assert kinds(0) == kinds(1) == kinds(2)
    assert kinds(0) == {"rename": 80, "add": 40, "retype": 40, "drop": 40}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert spec["paths"] == ["benchmarks/e2e"]
