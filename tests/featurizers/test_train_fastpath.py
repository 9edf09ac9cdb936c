"""Training fast path of the BERT featurizer: dtype hygiene + warm updates.

Two properties of this repo's incremental training loop:

* the whole step stays in float32 -- parameters, gradients, labels, weights
  and the classifier features never silently promote to float64;
* warm Adam updates (moment state + encoded samples persisted across
  ``update()`` calls) are an optimisation, not a behaviour change: the first
  update is identical to a cold start, and on the public datasets the
  rankings after repeated warm updates match a cold retrain, one that
  drops the optimiser state before every update.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import PUBLIC_NAMES, load_dataset
from repro.featurizers import (
    BertFeaturizer,
    BertFeaturizerConfig,
    PairBatch,
    make_pair_view,
)
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import WordPieceTokenizer
from repro.lm.vocab import build_vocab
from repro.nn import state_dict
from repro.schema import AttributeRef
from repro.text.corpus import build_corpus

MAX_LENGTH = 24


def _make_featurizer(task, tokenizer=None, model=None) -> BertFeaturizer:
    """Featurizer over a small untrained encoder -- training behaviour, not
    model quality, is under test (same trick as the engine parity suite)."""
    if tokenizer is None or model is None:
        corpus = build_corpus(schemata=[task.target], seed=0)
        vocab = build_vocab(corpus, target_size=300)
        tokenizer = WordPieceTokenizer(vocab)
        model = MiniBert(
            BertConfig(
                vocab_size=len(vocab),
                hidden_size=32,
                num_layers=1,
                num_heads=2,
                intermediate_size=64,
                max_position=MAX_LENGTH,
            ),
            seed=1,
        )
    config = BertFeaturizerConfig(
        max_length=MAX_LENGTH,
        pretrain_epochs=1,
        update_epochs=1,
        batch_size=16,
        seed=0,
    )
    return BertFeaturizer(tokenizer, model, config)


def _labeled_views(task, count: int):
    pairs = list(task.ground_truth.items())[:count]
    views = [
        make_pair_view(task.source, task.target, source, target)
        for source, target in pairs
    ]
    return views, [1] * len(views)


def _all_views(task, limit: int = 200):
    views = [
        make_pair_view(task.source, task.target, source_ref, target_ref)
        for source_ref in task.source.attribute_refs()
        for target_ref in task.target.attribute_refs()
    ]
    stride = max(1, len(views) // limit)
    return views[::stride][:limit]


class TestDtypeStability:
    def test_update_keeps_everything_float32(self, tiny_artifacts, source_schema, target_schema):
        featurizer = BertFeaturizer(
            tiny_artifacts.tokenizer,
            tiny_artifacts.bert,
            BertFeaturizerConfig(
                max_length=MAX_LENGTH, pretrain_epochs=1, update_epochs=2, seed=0
            ),
        )
        featurizer.pretrain(target_schema)
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "qty"),
            AttributeRef("Transaction", "quantity"),
        )
        featurizer.update([view], [1])

        for module in (featurizer.model, featurizer.classifier):
            for name, value in state_dict(module).items():
                assert value.dtype == np.float32, name
            for name, parameter in module.parameters().items():
                assert parameter.grad.dtype == np.float32, name

        from repro.lm.tokenizer import stack_encoded

        halves = featurizer.encode_plane.halves(
            view.source_name, view.source_description,
            view.target_name, view.target_description,
        )
        batch = stack_encoded([featurizer.encode_plane.assemble_one(halves)])
        features, _ = featurizer._forward_features(batch)  # noqa: SLF001
        assert features.dtype == np.float32


@pytest.fixture(scope="module", params=PUBLIC_NAMES)
def public_task(request):
    return load_dataset(request.param)


class TestWarmUpdates:
    def test_first_update_matches_cold_start(self, public_task):
        """Pretraining leaves no optimiser state behind, so the first update
        starts cold: its optimisers have taken exactly its own steps."""
        views, labels = _labeled_views(public_task, 2)
        featurizer = _make_featurizer(public_task)
        featurizer.pretrain(public_task.target)
        assert featurizer._warm_optimizers is None  # noqa: SLF001
        steps_before = featurizer.train_stats.steps
        featurizer.update(views, labels)
        update_steps = featurizer.train_stats.steps - steps_before
        assert update_steps > 0
        assert featurizer.train_stats.warm_starts == 0
        for optimizer in featurizer._warm_optimizers:  # noqa: SLF001
            assert optimizer._step_count == update_steps  # noqa: SLF001
        featurizer.close()

    def test_warm_rankings_match_cold_retrain(self, public_task):
        """After repeated updates the warm path may differ in the low-order
        bits of the weights, but the per-source candidate *rankings* -- the
        matcher's actual output -- must agree with a cold retrain, which
        drops the optimiser state before every update."""
        views, labels = _labeled_views(public_task, 3)
        top1 = {}
        for warm in (False, True):
            featurizer = _make_featurizer(public_task)
            featurizer.pretrain(public_task.target)
            for round_end in (1, 2, 3):
                if not warm:
                    featurizer._warm_optimizers = None  # noqa: SLF001
                featurizer.update(views[:round_end], labels[:round_end])
            assert (featurizer.train_stats.warm_starts == 2) == warm
            target_refs = list(public_task.target.attribute_refs())
            ranking = {}
            for source_ref in list(public_task.source.attribute_refs())[:12]:
                candidates = [
                    make_pair_view(public_task.source, public_task.target, source_ref, t)
                    for t in target_refs
                ]
                ranking[source_ref] = int(
                    np.argmax(featurizer.score_pairs(PairBatch.from_views(candidates)))
                )
            top1[warm] = ranking
            featurizer.close()
        agreement = np.mean(
            [top1[True][ref] == top1[False][ref] for ref in top1[True]]
        )
        assert agreement >= 0.9, (agreement, top1)

    def test_warm_state_persists_across_updates(self, public_task):
        views, labels = _labeled_views(public_task, 2)
        featurizer = _make_featurizer(public_task)
        featurizer.pretrain(public_task.target)
        featurizer.update(views[:1], labels[:1])
        assert featurizer._warm_optimizers is not None  # noqa: SLF001
        first_steps = featurizer._warm_optimizers[0]._step_count  # noqa: SLF001
        token_hits = featurizer.encode_plane.stats.token_cache_hits

        featurizer.update(views, labels)
        assert featurizer.train_stats.warm_starts == 1
        # The optimiser continued stepping rather than restarting from zero.
        assert featurizer._warm_optimizers[0]._step_count > first_steps  # noqa: SLF001
        # Overlapping samples' token ids were served from the plane's store.
        assert featurizer.encode_plane.stats.token_cache_hits > token_hits
        featurizer.close()


class TestFrozenTrunk:
    """A label update trains only the encoder's top block and pooler: every
    trunk parameter -- embeddings, the embedding LayerNorm and the blocks
    below the top -- keeps its pretrained bits, and no backward reaches its
    gradient (nothing would ever clear or read one)."""

    def test_trunk_stays_pretrained(self, public_task):
        views, labels = _labeled_views(public_task, 2)
        featurizer = _make_featurizer(public_task)
        featurizer.pretrain(public_task.target)
        model = featurizer.model
        top = model.top_parameters()
        trunk = {name: p for name, p in model.parameters().items() if name not in top}
        assert "token_embedding.table" in trunk and "embedding_norm.gamma" in trunk
        pretrained = {name: p.value.copy() for name, p in model.parameters().items()}
        steps_before = featurizer.train_stats.steps
        featurizer.update(views[:1], labels[:1])
        featurizer.update(views, labels)
        featurizer.close()

        assert featurizer.train_stats.steps > steps_before
        for name, parameter in trunk.items():
            np.testing.assert_array_equal(parameter.value, pretrained[name], err_msg=name)
            assert not parameter.grad.any(), name
        assert any(not np.array_equal(p.value, pretrained[n]) for n, p in top.items())
