"""Every library name the end-to-end benchmark reaches for must exist.

The traced benchmark run wraps each ``(owner, attribute)`` pair from
``benchmarks/e2e/layers.py``'s ``entry_points()`` with ``getattr``, and
its workloads call a few sequential-encode helpers and the serving
service directly.  Deleting or changing one of those names in ``src/``
would otherwise show up only when a benchmark run crashes.
"""

from __future__ import annotations

import asyncio
import importlib.util
import sys
from pathlib import Path

import numpy as np
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


def test_serve_names_the_ladder_workload_calls():
    from repro.featurizers.bert import score_encoded_batch
    from repro.serve import AdmissionError, ModelResidency, ServeService
    from repro.serve.load import apply_swap

    assert callable(score_encoded_batch)
    assert callable(apply_swap)
    assert issubclass(AdmissionError, Exception)
    for name in (
        "publish",
        "open_session",
        "close_session",
        "submit_nowait",
        "metrics_snapshot",
        "__aenter__",
        "__aexit__",
    ):
        assert callable(getattr(ServeService, name, None)), name
    assert callable(ModelResidency.latest_key)
    assert callable(ModelResidency.close)


def test_serve_ladder_round_trip():
    """One tiny request the way the serve_ladder workload sends it:
    ``submit_nowait(handle, list[EncodedPair])`` on the tenant's latest
    published key, scored like the workload's re-score check."""
    from repro.engine.batching import plan_microbatches
    from repro.featurizers.bert import score_encoded_batch
    from repro.serve import ServeService
    from repro.serve.load import apply_swap, build_tenant_stack, make_script

    from ..serve.conftest import make_pairs

    model, classifier, special_ids = build_tenant_stack(
        make_script(seed=5, n_tenants=1, n_sessions=1, n_requests=1), 0
    )
    apply_swap(model, classifier, 7)
    pairs = make_pairs(3, 3)
    expected = np.empty(len(pairs))
    for microbatch in plan_microbatches(pairs):
        expected[list(microbatch.indices)] = score_encoded_batch(
            model, classifier, special_ids, microbatch.batch
        )

    async def scenario():
        service = ServeService()
        key = service.publish("t0", model, classifier, special_ids)
        async with service:
            handle = service.open_session("t0")
            assert service.residency.latest_key(handle.tenant) == key
            scores = await service.submit_nowait(handle, pairs)
            metrics = service.metrics_snapshot()
            service.close_session(handle)
        service.backend.close()
        service.residency.close()
        return scores, metrics

    scores, metrics = asyncio.run(scenario())
    np.testing.assert_allclose(scores, expected, atol=1e-8, rtol=0)
    assert metrics
