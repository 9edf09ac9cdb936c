"""Differential test of the candidate store's per-row feature columns.

``LearnedSchemaMatcher.predict()`` rescores only dirty rows (new, re-added,
or of a renamed source) and, after a BERT update, the whole BERT column.
Random scripts interleave every drift kind (including a column dropped and
re-added under the same name with new text, and a rename followed by a
rename back), accepted matches, rejections of pruned targets (which re-add
rows) and BERT updates.  After every ``predict()`` the column block must
equal the per-pair reference (``tests/featurizers/pair_reference.py``) over
every row's current view, bit for bit, and that BERT reference pass must
score no new pair: every clean row's value then came from the live engine
cache under the reference's own fingerprint, so a stale column or key
cannot hide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LearnedSchemaMatcher, LsmConfig
from repro.engine import EngineConfig
from repro.featurizers.bert import BertFeaturizerConfig

from ..featurizers.pair_reference import reference_column
from repro.schema import (
    AddColumn,
    Attribute,
    AttributeRef,
    DataType,
    DropColumn,
    RenameColumn,
    RetypeColumn,
    SchemaDelta,
)

OPS = (
    "add",
    "rename",
    "rename_back",
    "retype",
    "drop",
    "drop_readd",
    "match",
    "reject_pruned",
    "predict",
)
WORDS = ("total", "units", "code", "label", "shipped", "value", "origin", "batch")
DTYPES = (DataType.INTEGER, DataType.DECIMAL, DataType.STRING, DataType.DATE)


def make_matcher(tiny_artifacts, source_schema, target_schema) -> LearnedSchemaMatcher:
    config = LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        # Every second accepted match triggers a BERT update.
        update_bert_every=2,
        max_candidates_per_source=4,
        engine=EngineConfig(persist_scores=False, microbatch_size=8),
        seed=0,
    )
    return LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )


def assert_columns_match_full_rescore(matcher: LearnedSchemaMatcher) -> None:
    store = matcher.store
    views = store.views(range(store.num_pairs))
    assert not store.dirty.any()
    stats = matcher.bert_featurizer.engine.stats
    for column, featurizer in enumerate(matcher.pipeline.featurizers):
        scored_before = stats.pairs_scored
        reference = reference_column(featurizer, views)
        if featurizer is matcher.bert_featurizer:
            assert stats.pairs_scored == scored_before, "a clean BERT row was stale"
        np.testing.assert_array_equal(store.features[:, column], reference)


class Script:
    """Applies one drawn operation to a live matcher."""

    def __init__(self, matcher: LearnedSchemaMatcher) -> None:
        self.matcher = matcher
        #: (current ref, name to rename it back to)
        self.renamed: list[tuple[AttributeRef, str]] = []
        self.counter = 0

    def _refs(self) -> list[AttributeRef]:
        return self.matcher.source_schema.attribute_refs()

    def _droppable(self) -> list[AttributeRef]:
        schema = self.matcher.source_schema
        return [
            ref
            for ref in self._refs()
            if len(schema.entity(ref.entity).attributes) > 1
        ]

    def _fresh_name(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}_v{self.counter}"

    def _text(self, pick: int) -> str:
        return f"{WORDS[pick % len(WORDS)]} {WORDS[(pick // 7) % len(WORDS)]}"

    def _delta(self, *ops) -> None:
        self.matcher.apply_delta(SchemaDelta(tuple(ops)))

    def apply(self, op: str, pick: int) -> None:
        matcher = self.matcher
        refs = self._refs()
        ref = refs[pick % len(refs)]
        if op == "add":
            entities = [entity.name for entity in matcher.source_schema.entities]
            attribute = Attribute(
                self._fresh_name("extra"), DTYPES[pick % len(DTYPES)], self._text(pick)
            )
            self._delta(AddColumn(entities[pick % len(entities)], attribute))
        elif op == "rename":
            new_name = self._fresh_name(ref.attribute)
            self._delta(RenameColumn(ref, new_name))
            self.renamed.append((AttributeRef(ref.entity, new_name), ref.attribute))
        elif op == "rename_back":
            live = set(refs)
            for current, old_name in reversed(self.renamed):
                if current in live and AttributeRef(current.entity, old_name) not in live:
                    self._delta(RenameColumn(current, old_name))
                    self.renamed.remove((current, old_name))
                    return
        elif op == "retype":
            dtype = matcher.source_schema.attribute(ref).dtype
            choices = [d for d in DTYPES if d != dtype]
            self._delta(RetypeColumn(ref, choices[pick % len(choices)]))
        elif op == "drop":
            droppable = self._droppable()
            if droppable:
                self._delta(DropColumn(droppable[pick % len(droppable)]))
        elif op == "drop_readd":
            droppable = self._droppable()
            if droppable:
                victim = droppable[pick % len(droppable)]
                old = matcher.source_schema.attribute(victim)
                self._delta(DropColumn(victim))
                self._delta(
                    AddColumn(
                        victim.entity,
                        Attribute(old.name, old.dtype, self._text(pick + 1) + " revised"),
                    )
                )
        elif op == "match":
            unmatched = matcher.store.unmatched_sources()
            if unmatched:
                source = unmatched[pick % len(unmatched)]
                targets = matcher.store.target_refs
                matcher.record_match(source, targets[(pick // 3) % len(targets)])
        elif op == "reject_pruned":
            store = matcher.store
            pruned = [t for t in store.target_refs if store.pair_id(ref, t) is None]
            if pruned:
                start = pick % len(pruned)
                matcher.record_rejected(ref, pruned[start : start + 2])
        else:
            matcher.predict()
            assert_columns_match_full_rescore(matcher)


steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=10**6)),
    min_size=4,
    max_size=14,
)


@settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=steps)
def test_columns_equal_full_rescore(script, tiny_artifacts, source_schema, target_schema):
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    try:
        runner = Script(matcher)
        matcher.predict()
        assert_columns_match_full_rescore(matcher)
        for op, pick in script:
            runner.apply(op, pick)
        matcher.predict()
        assert_columns_match_full_rescore(matcher)
    finally:
        matcher.close()


@pytest.mark.parametrize(
    "script",
    [
        # Rename, then rename back with a prediction in between.
        [("rename", 2), ("predict", 0), ("rename_back", 0)],
        # Drop a column and re-add it under the same name with new text.
        [("drop_readd", 3), ("predict", 0), ("drop_readd", 3)],
        # Matches re-add pruned pairs and trigger a BERT update.
        [("match", 1), ("reject_pruned", 4), ("match", 5), ("predict", 0), ("match", 2)],
        [("add", 1), ("retype", 5), ("drop", 2), ("rename", 7)],
    ],
)
def test_named_scripts(script, tiny_artifacts, source_schema, target_schema):
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    try:
        runner = Script(matcher)
        matcher.predict()
        for op, pick in script:
            runner.apply(op, pick)
        matcher.predict()
        assert_columns_match_full_rescore(matcher)
    finally:
        matcher.close()


def test_clean_predict_scores_nothing(tiny_artifacts, source_schema, target_schema):
    """A second predict with no change scores no row, yet counts every BERT
    row as requested and skipped."""
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    try:
        matcher.predict()
        stats = matcher.bert_featurizer.engine.stats
        calls = dict(matcher.pipeline.stage_calls)
        requested, skipped = stats.pairs_requested, stats.pairs_skipped
        matcher.predict()
        assert matcher.pipeline.stage_calls == calls
        assert stats.pairs_requested - requested == matcher.store.num_pairs
        assert stats.pairs_skipped - skipped == matcher.store.num_pairs
    finally:
        matcher.close()


def targets_of(store, source: AttributeRef) -> set[int]:
    rows = store.pairs_of_source_index(store.source_index(source))
    return set(store.pair_target[rows].tolist())


@pytest.mark.parametrize(
    "max_candidates, reject_first",
    [
        (None, False),
        # Retrieval regenerates the renamed source's candidate set: rows it
        # drops were marked dirty first and must not count.
        (4, False),
        # A rejection re-adds a pruned row before the delta; that pending
        # row is rescored too, but it is not the delta's doing.
        (4, True),
    ],
    ids=["full-product", "retrieval", "retrieval-pending-row"],
)
def test_trace_explains_the_rescore(
    tmp_path, tiny_artifacts, source_schema, target_schema, max_candidates, reject_first
):
    """``drift.applied`` carries the rows a delta dirtied and the next
    ``lsm.featurize`` span shows exactly those rows rescored."""
    from repro import obs

    trace_path = tmp_path / "drift.ndjson"
    config = LsmConfig(
        trace_path=str(trace_path),
        bert=BertFeaturizerConfig(max_length=24, pretrain_epochs=1, seed=0),
        update_bert_every=10**9,
        max_candidates_per_source=max_candidates,
        engine=EngineConfig(persist_scores=False),
        seed=0,
    )
    matcher = LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )
    qty = AttributeRef("Orders", "qty")
    renamed = AttributeRef("Orders", "brand_label")
    try:
        matcher.predict()
        store = matcher.store
        if reject_first:
            other = next(ref for ref in store.source_refs if ref != qty)
            pruned = next(t for t in store.target_refs if store.pair_id(other, t) is None)
            matcher.record_rejected(other, [pruned])
        pending = int(np.count_nonzero(store.dirty))
        assert pending == (1 if reject_first else 0)
        before = targets_of(store, qty)
        report = matcher.apply_delta(SchemaDelta((RenameColumn(qty, renamed.attribute),)))
        renamed_rows = store.pairs_of_source_index(store.source_index(renamed))
        after = targets_of(store, renamed)
        matcher.predict()
        num_pairs = store.num_pairs
    finally:
        matcher.close()

    if max_candidates is not None:
        assert before != after, "the rename must change the candidate set"
    assert report.rows_dirtied == len(renamed_rows) > 0
    records = obs.load_trace(trace_path)
    featurize = [r["attrs"] for r in records if r.get("name") == "lsm.featurize"]
    applied = [r["attrs"] for r in records if r.get("name") == "drift.applied"]
    assert [attrs["rows_dirtied"] for attrs in applied] == [report.rows_dirtied]
    first, second = featurize
    assert first["rows_clean"] == 0
    rescored = report.rows_dirtied + pending
    assert set(second["rows_dirty"].values()) == {rescored}
    assert second["rows_clean"] == num_pairs - rescored


def test_delta_before_first_predict(tiny_artifacts, source_schema, target_schema):
    """Every row is still dirty before the first ``predict()``; a delta then
    dirties only the pairs its regenerated candidate set adds."""
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    qty = AttributeRef("Orders", "qty")
    renamed = AttributeRef("Orders", "brand_label")
    try:
        before = targets_of(matcher.store, qty)
        report = matcher.apply_delta(
            SchemaDelta(
                (
                    DropColumn(AttributeRef("Orders", "disc")),
                    RenameColumn(qty, renamed.attribute),
                )
            )
        )
        assert report.rows_dirtied == len(targets_of(matcher.store, renamed) - before)
        matcher.predict()
        assert_columns_match_full_rescore(matcher)
    finally:
        matcher.close()


def test_bert_rescore_after_update_on_a_large_store(tiny_artifacts):
    """More rows than the old 8,192-entry pair-halves LRU: a rescore after a
    BERT update used to scan an LRU smaller than the scan and hit nothing.
    Halves are built from per-attribute tables now, so the update's full
    rescore hashes each row exactly once, and the column still equals a
    cold rescore."""
    from repro.schema import Entity, Schema

    def schema(name: str, count: int) -> Schema:
        attributes = [
            Attribute(f"{WORDS[i % 8]}_{WORDS[(i // 8) % 8]}_{i}", DTYPES[i % 4], WORDS[i % 5])
            for i in range(count)
        ]
        return Schema(name, [Entity(f"{name}_entity", attributes)])

    source, target = schema("wide_source", 91), schema("wide_target", 91)
    config = LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=12, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        update_bert_every=1,
        engine=EngineConfig(persist_scores=False, microbatch_size=256),
        seed=0,
    )
    matcher = LearnedSchemaMatcher(source, target, config=config, artifacts=tiny_artifacts)
    try:
        store = matcher.store
        assert store.num_pairs > 8192
        matcher.predict()
        bert = matcher.bert_featurizer
        stats = bert.encode_plane.stats
        fingerprints = stats.fingerprints
        version = bert.model_version
        refs = source.attribute_refs(), target.attribute_refs()
        matcher.record_match(refs[0][0], refs[1][0])
        matcher.predict()
        assert bert.model_version > version, "the label must trigger a BERT update"
        assert stats.fingerprints - fingerprints == store.num_pairs
        column = matcher.pipeline.feature_names.index("bert")
        bert.engine.clear_cached_scores()
        scored = bert.engine.stats.pairs_scored
        cold = reference_column(bert, store.views(range(store.num_pairs)))
        assert bert.engine.stats.pairs_scored - scored == store.num_pairs
        np.testing.assert_array_equal(store.features[:, column], cold)
    finally:
        matcher.close()
