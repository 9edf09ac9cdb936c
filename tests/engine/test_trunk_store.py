"""The engine's trunk store: a rescore after a label update runs only the top.

A label update trains MiniBERT's top block, its pooler and the classifier;
the trunk below keeps its bits.  The first rescore after such an update
stores each row's trunk output at its real length, and every later one
rebuilds all-hit micro-batches from the store as zero-padded blocks and runs
only the top block.  These tests pin down, in-process and on threads:

* over three updates the store's rescore equals, bit for bit, a store-less
  engine scoring the same rows with the same plan, and every all-hit block
  is zero at pad positions and the trunk's own output elsewhere;
* more scoring threads than cores, filling the store under a short switch
  interval, lose no row;
* a first predict with no update stores nothing;
* with a tiny byte cap, rows past it score identically, count as misses and
  fire ``engine.trunk_store_full``;
* a weight change outside the top (``invalidate_model()``) empties it;
* rows a drift delta drops leave the store at the next rescore, and rows it
  re-adds are stored again at their own length; batch composition differs
  from the store-less plan there, so that case is checked at the drift
  workload's top-1 tie tolerance.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import obs
from repro.engine import EngineConfig, ScoringEngine
from repro.featurizers import BertFeaturizer, BertFeaturizerConfig, PairBatch, make_pair_view
from repro.featurizers import bert as bert_module
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.nn import inference_scope
from repro.schema import AttributeRef
from tests.engine.test_serving_parity import mutate_weights

MAX_LENGTH = 24

#: Score tolerance where only batch composition differs (the drift
#: workload's top-1 tie tolerance).
DRIFT_ATOL = 1e-6

LABELS = [
    (("Orders", "qty"), ("Transaction", "quantity"), 1),
    (("Item", "ean"), ("Product", "european_article_number"), 1),
    (("Orders", "disc"), ("Transaction", "price_change_percentage"), 1),
    (("Orders", "qty"), ("Transaction", "tax_amount"), 0),
]


def make_featurizer(tiny_artifacts, target_schema, n_workers: int) -> BertFeaturizer:
    """A pretrained featurizer over a two-block encoder (the trunk holds a
    transformer block), scoring small micro-batches on ``n_workers`` threads."""
    model = MiniBert(
        BertConfig(
            vocab_size=len(tiny_artifacts.tokenizer.vocab),
            hidden_size=32,
            num_layers=2,
            num_heads=2,
            intermediate_size=64,
            max_position=MAX_LENGTH,
        ),
        seed=3,
    )
    config = BertFeaturizerConfig(
        max_length=MAX_LENGTH,
        pretrain_epochs=1,
        update_epochs=1,
        batch_size=16,
        iss_subsample_per_update=48,
        seed=0,
    )
    engine_config = EngineConfig(microbatch_size=8, n_workers=n_workers)
    featurizer = BertFeaturizer(tiny_artifacts.tokenizer, model, config, engine_config)
    featurizer.pretrain(target_schema)
    return featurizer


@pytest.fixture(params=[1, 3], ids=["inprocess", "threaded"])
def featurizer(request, tiny_artifacts, target_schema):
    featurizer = make_featurizer(tiny_artifacts, target_schema, request.param)
    yield featurizer
    featurizer.close()


@pytest.fixture()
def views(source_schema, target_schema):
    """Every source x target pair.  Some share their text (an ``item_id``
    on both source entities), so their rows share one fingerprint."""
    return [
        make_pair_view(source_schema, target_schema, source, target)
        for source in source_schema.attribute_refs()
        for target in target_schema.attribute_refs()
    ]


def distinct(views):
    """One view per distinct row text."""
    by_text = {
        (v.source_name, v.source_description, v.target_name, v.target_description): v
        for v in views
    }
    return list(by_text.values())


def label_views(source_schema, target_schema, count):
    labeled = [
        make_pair_view(source_schema, target_schema, AttributeRef(*s), AttributeRef(*t))
        for s, t, _ in LABELS[:count]
    ]
    return labeled, [label for _, _, label in LABELS[:count]]


def store_less(featurizer, batch: PairBatch) -> np.ndarray:
    """The same rows scored by a fresh engine on the live weights: the same
    micro-batch plan, every forward running the whole trunk."""
    engine = ScoringEngine(
        featurizer.model,
        featurizer.classifier,
        sorted(featurizer.tokenizer.vocab.special_ids()),
        EngineConfig(microbatch_size=featurizer.engine.config.microbatch_size, n_workers=1),
    )
    try:
        halves = featurizer._batch_halves(batch)  # noqa: SLF001
        return engine.score_halves(halves, featurizer.encode_plane)
    finally:
        engine.close()


def record_trunks(monkeypatch) -> list[tuple]:
    """``(batch, trunk_hidden)`` of every engine forward."""
    calls: list[tuple] = []
    forward = bert_module.score_encoded_batch

    def recording(model, classifier, special_ids, batch, trunk_hidden=None):
        calls.append((batch, trunk_hidden))
        return forward(model, classifier, special_ids, batch, trunk_hidden=trunk_hidden)

    monkeypatch.setattr(bert_module, "score_encoded_batch", recording)
    return calls


def trunk_events(tracer) -> list[dict]:
    return [
        record
        for record in tracer.records
        if record["kind"] == "event" and record["name"] == "engine.trunk_store_full"
    ]


def test_rescore_after_updates_equals_store_less_forward(
    featurizer, views, source_schema, target_schema, monkeypatch
):
    batch = PairBatch.from_views(views)
    stats, store = featurizer.engine.stats, featurizer.engine.trunks
    featurizer.score_pairs(batch)
    for update in range(3):
        featurizer.update(*label_views(source_schema, target_schema, 2 + update))
        calls = record_trunks(monkeypatch)
        hits, misses = stats.trunk_hits, stats.trunk_misses
        scores = featurizer.score_pairs(batch)
        monkeypatch.undo()
        np.testing.assert_array_equal(scores, store_less(featurizer, batch), err_msg=f"{update=}")
        assert len(calls) > 2
        if update == 0:  # the first rescore after an update fills the store
            assert (stats.trunk_hits - hits, stats.trunk_misses - misses) == (0, len(views))
            assert all(trunk is not None for _, trunk in calls)
        else:
            assert (stats.trunk_hits - hits, stats.trunk_misses - misses) == (len(views), 0)
            for encoded, trunk in calls:
                mask = encoded.attention_mask.astype(bool)
                assert trunk.shape[:2] == encoded.input_ids.shape
                assert not trunk[~mask].any()  # pad positions are zero-filled
                with inference_scope():
                    expected = featurizer.model.forward_trunk(encoded)
                np.testing.assert_array_equal(trunk[mask], expected[mask])
        assert len(store) == len(distinct(views)) < len(views)
        assert stats.trunk_bytes == store.nbytes > 0


def test_threaded_fill_loses_no_row(tiny_artifacts, views, source_schema, target_schema):
    views = distinct(views)
    batch = PairBatch.from_views(views)
    featurizer = make_featurizer(tiny_artifacts, target_schema, n_workers=4)
    engine = featurizer.engine
    interval = sys.getswitchinterval()
    try:
        featurizer.score_pairs(batch)
        featurizer.update(*label_views(source_schema, target_schema, 2))
        sys.setswitchinterval(1e-6)
        featurizer.score_pairs(batch)
    finally:
        sys.setswitchinterval(interval)
        featurizer.close()
    halves = featurizer._batch_halves(batch)  # noqa: SLF001
    assert len(engine.trunks) == len(views)
    row_bytes = featurizer.model.config.hidden_size * 4
    assert engine.trunks.nbytes == int(halves.lengths.sum()) * row_bytes
    assert engine.stats.threaded_batches > 0


def test_first_predict_without_update_stores_nothing(featurizer, views, monkeypatch):
    calls = record_trunks(monkeypatch)
    featurizer.score_pairs(PairBatch.from_views(views))
    stats = featurizer.engine.stats
    assert calls and all(trunk is None for _, trunk in calls)
    assert len(featurizer.engine.trunks) == 0
    assert (stats.trunk_hits, stats.trunk_misses, stats.trunk_bytes) == (0, 0, 0)


def test_tiny_cap_refuses_rows_that_then_score_identically(
    featurizer, views, source_schema, target_schema
):
    views = distinct(views)
    batch = PairBatch.from_views(views)
    store, stats = featurizer.engine.trunks, featurizer.engine.stats
    # Room for about a dozen rows of the 96.
    store.capacity_bytes = 12 * 16 * featurizer.model.config.hidden_size * 4
    featurizer.score_pairs(batch)
    for update in range(2):
        featurizer.update(*label_views(source_schema, target_schema, 2 + update))
        tracer = obs.Tracer()
        hits, misses = stats.trunk_hits, stats.trunk_misses
        with obs.activated(tracer):
            scores = featurizer.score_pairs(batch)
        np.testing.assert_array_equal(scores, store_less(featurizer, batch), err_msg=f"{update=}")
        assert 0 < store.nbytes <= store.capacity_bytes
        assert 0 < len(store) < len(views)
        new_hits, new_misses = stats.trunk_hits - hits, stats.trunk_misses - misses
        assert new_hits + new_misses == len(views)
        events = trunk_events(tracer)
        if update == 0:
            assert new_hits == 0
            assert len(events) == 1
            assert events[0]["attrs"]["reason"]
            assert events[0]["attrs"]["rows_refused"] == len(views) - len(store)
        else:
            # Refused rows miss again, with their micro-batches; all-hit
            # micro-batches run only the top.
            assert 0 < new_misses < len(views)
            assert len(events) == 1


def test_weight_change_outside_the_top_clears_the_store(
    featurizer, views, source_schema, target_schema, monkeypatch
):
    views = distinct(views)
    batch = PairBatch.from_views(views)
    engine = featurizer.engine
    featurizer.score_pairs(batch)
    featurizer.update(*label_views(source_schema, target_schema, 2))
    featurizer.score_pairs(batch)
    assert len(engine.trunks) == len(views)

    mutate_weights(featurizer.model, featurizer.classifier, seed=7)
    engine.invalidate_model()
    assert len(engine.trunks) == 0 and engine.stats.trunk_bytes == 0
    calls = record_trunks(monkeypatch)
    hits = engine.stats.trunk_hits
    scores = featurizer.score_pairs(batch)
    monkeypatch.undo()
    np.testing.assert_array_equal(scores, store_less(featurizer, batch))
    assert all(trunk is None for _, trunk in calls)
    assert engine.stats.trunk_hits == hits
    assert len(engine.trunks) == 0


def test_drift_drops_rows_from_the_store_and_restores_readded_rows(
    featurizer, views, source_schema, target_schema
):
    views = distinct(views)
    engine, store = featurizer.engine, featurizer.engine.trunks
    full = PairBatch.from_views(views)
    keys = featurizer._batch_halves(full).fingerprint_keys()  # noqa: SLF001
    lengths = featurizer._batch_halves(full).lengths  # noqa: SLF001
    dropped = set(range(0, len(views), 3))
    kept = [i for i in range(len(views)) if i not in dropped]
    survivors = PairBatch.from_views([views[i] for i in kept])

    featurizer.score_pairs(full)
    featurizer.update(*label_views(source_schema, target_schema, 2))
    featurizer.score_pairs(full)
    assert len(store) == len(views)

    # A delta drops a third of the rows: the next rescore drops them too.
    featurizer.update(*label_views(source_schema, target_schema, 3))
    scores = featurizer.score_pairs(survivors)
    np.testing.assert_allclose(scores, store_less(featurizer, survivors), atol=DRIFT_ATOL, rtol=0)
    assert len(store) == len(kept)
    rows = store._rows  # noqa: SLF001
    assert all((keys[i] in rows) == (i not in dropped) for i in range(len(views)))

    # Re-added rows miss, run the whole trunk and are stored again at their
    # own length, so a later rescore rebuilds them at the width bucket_key
    # gives that length, as before the drop.
    featurizer.update(*label_views(source_schema, target_schema, 4))
    misses = engine.stats.trunk_misses
    scores = featurizer.score_pairs(full)
    np.testing.assert_allclose(scores, store_less(featurizer, full), atol=DRIFT_ATOL, rtol=0)
    assert engine.stats.trunk_misses - misses >= len(dropped)
    assert len(store) == len(views)
    for i in dropped:
        assert rows[keys[i]].shape == (lengths[i], featurizer.model.config.hidden_size)
