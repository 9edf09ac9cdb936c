"""A label update's bits depend neither on the engine's threads nor on OpenBLAS's.

Two label updates from one pretrained featurizer, in four settings: the
engine on one and on two threads, each with every mapped OpenBLAS set to
one and to two threads.  The trained weights and the scores of every
candidate pair must agree bit for bit.  The weight-gradient GEMMs of a
step reduce over ``B * T`` (about a thousand rows here), and OpenBLAS on
two threads splits that reduction and rounds differently, so an update
that left BLAS threading alone would fail this.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine import EngineConfig, blas
from repro.featurizers import BertFeaturizer, BertFeaturizerConfig, PairBatch, make_pair_view
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.nn import state_dict
from repro.schema import AttributeRef

MAX_LENGTH = 32
LABELS = [
    (("Orders", "qty"), ("Transaction", "quantity"), 1),
    (("Item", "ean"), ("Product", "european_article_number"), 1),
    (("Orders", "disc"), ("Transaction", "price_change_percentage"), 1),
    (("Orders", "qty"), ("Transaction", "tax_amount"), 0),
]


@contextmanager
def openblas_threads(count: int):
    """Set every mapped OpenBLAS to ``count`` threads; restore on exit."""
    controls = blas.openblas_controls()
    saved = [(setter, getter()) for getter, setter in controls]
    for _getter, setter in controls:
        setter(count)
    try:
        yield
    finally:
        for setter, previous in saved:
            setter(previous)


def updated_state(tokenizer, source, target, n_workers):
    """Weights and candidate scores after two updates on ``n_workers`` threads."""
    model = MiniBert(
        BertConfig(
            vocab_size=len(tokenizer.vocab),
            hidden_size=64,
            num_layers=2,
            num_heads=4,
            intermediate_size=128,
            max_position=MAX_LENGTH,
        ),
        seed=5,
    )
    config = BertFeaturizerConfig(
        max_length=MAX_LENGTH, pretrain_epochs=1, update_epochs=1, batch_size=64, seed=0
    )
    featurizer = BertFeaturizer(
        tokenizer, model, config, engine_config=EngineConfig(n_workers=n_workers)
    )
    try:
        featurizer.pretrain(target)
        views = [
            make_pair_view(source, target, AttributeRef(*s), AttributeRef(*t))
            for s, t, _ in LABELS
        ]
        labels = [label for _, _, label in LABELS]
        featurizer.update(views[:2], labels[:2])
        featurizer.update(views, labels)
        candidates = PairBatch.from_views(
            [
                make_pair_view(source, target, s, t)
                for s in source.attribute_refs()
                for t in target.attribute_refs()
            ]
        )
        scores = featurizer.score_pairs(candidates)
        weights = {
            **{f"bert.{k}": v for k, v in state_dict(featurizer.model).items()},
            **{f"classifier.{k}": v for k, v in state_dict(featurizer.classifier).items()},
        }
        return weights, scores
    finally:
        featurizer.close()


def test_updates_are_bit_identical_across_engine_and_blas_threads(
    tiny_artifacts, source_schema, target_schema
):
    if not blas.openblas_controls():
        pytest.skip("no OpenBLAS thread control mapped into the process")
    results = {}
    for blas_threads in (1, 2):
        with openblas_threads(blas_threads):
            for n_workers in (1, 2):
                results[n_workers, blas_threads] = updated_state(
                    tiny_artifacts.tokenizer, source_schema, target_schema, n_workers
                )
    (weights, scores), *others = results.values()
    for (other_weights, other_scores), setting in zip(others, list(results)[1:]):
        assert other_weights.keys() == weights.keys()
        for name, value in weights.items():
            np.testing.assert_array_equal(other_weights[name], value, err_msg=f"{setting} {name}")
        np.testing.assert_array_equal(other_scores, scores, err_msg=str(setting))
