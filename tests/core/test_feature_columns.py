"""Differential test of the candidate store's per-row feature columns.

``LearnedSchemaMatcher.predict()`` rescores only dirty rows (new, re-added,
or of a renamed source) and, after a BERT update, the live rows: those of
unmatched sources plus the informative labelled rows.  A matched source's
implied negatives keep the value of the model that last scored them;
only the meta-learner's fit reads them.  Before the first label, BERT
leaves the dtype-incompatible rows out (stage 0, differentially tested in
``tests/core/test_dtype_skip.py``); the first predict that holds a label
scores those the label froze before any update, and the rest as stale live
rows.  Random scripts interleave every drift kind
(including a column dropped and re-added under the same name with new
text, and a rename followed by a rename back), accepted matches,
rejections of pruned targets (which re-add rows) and BERT updates.  After
every ``predict()`` every live row that is not filtered must be current,
each pass must hand BERT exactly its dirty rows plus its stale live rows
(less the filtered ones, plus the frozen ones the filter left unscored),
and every current
row must equal the per-pair reference
(``tests/featurizers/pair_reference.py``) over its current view, bit for
bit.  That BERT reference pass must score no new pair: every clean current
row's value then came from the live engine cache under the reference's own
fingerprint, so a stale column or key cannot hide.
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


def make_matcher(
    tiny_artifacts, source_schema, target_schema, update_bert_every: int = 2
) -> LearnedSchemaMatcher:
    config = LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        # By default every second accepted match triggers a BERT update.
        update_bert_every=update_bert_every,
        max_candidates_per_source=4,
        engine=EngineConfig(microbatch_size=8),
        seed=0,
    )
    return LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )


def expected_live(store) -> np.ndarray:
    """Rows of sources with no positive, plus positives and explicit
    rejections, derived from the labels alone."""
    matched = np.unique(store.pair_source[store.labels == 1])
    return (
        ~np.isin(store.pair_source, matched)
        | (store.labels == 1)
        | ((store.labels == 0) & store.label_explicit)
    )


def expected_filtered(store) -> np.ndarray:
    """Rows stage 0 leaves out of BERT: the dtype-incompatible ones, while
    the store holds no label, derived from the schemas alone."""
    if (store.labels >= 0).any():
        return np.zeros(store.num_pairs, dtype=bool)
    source = [store.source_schema.attribute(ref).dtype for ref in store.source_refs]
    target = [store.target_schema.attribute(ref).dtype for ref in store.target_refs]
    return np.fromiter(
        (
            not source[s].is_compatible(target[t])
            for s, t in zip(store.pair_source, store.pair_target)
        ),
        dtype=bool,
        count=store.num_pairs,
    )


def current_rows(matcher: LearnedSchemaMatcher) -> np.ndarray:
    """Rows scored under the BERT model's current version."""
    store = matcher.store
    assert store.scored_version == matcher.bert_featurizer.model_version
    return store.current.copy()


def assert_columns_match_full_rescore(matcher: LearnedSchemaMatcher) -> None:
    store = matcher.store
    assert not store.dirty.any()
    current = current_rows(matcher)
    live = expected_live(store) & ~expected_filtered(store)
    assert current[live].all(), "a live row is stale"
    rows = np.flatnonzero(current)
    views = store.views(rows)
    stats = matcher.bert_featurizer.engine.stats
    for column, featurizer in enumerate(matcher.featurizers):
        scored_before = stats.pairs_scored
        reference = reference_column(featurizer, views)
        if featurizer is matcher.bert_featurizer:
            assert stats.pairs_scored == scored_before, "a clean BERT row was stale"
        np.testing.assert_array_equal(store.features[rows, column], reference)


def record_scored_rows(matcher: LearnedSchemaMatcher) -> dict[str, list[int]]:
    """Wrap each featurizer's ``score_pairs`` to log the rows it is handed."""
    handed: dict[str, list[int]] = {}

    def logging(name, score):
        def logged(batch):
            handed.setdefault(name, []).append(len(batch))
            return score(batch)

        return logged

    for featurizer in matcher.featurizers:
        featurizer.score_pairs = logging(featurizer.name, featurizer.score_pairs)
    return handed


def predict_and_check_rescore(
    matcher: LearnedSchemaMatcher, handed, filtered_pending: bool = False
) -> bool:
    """One ``predict()``: BERT is handed exactly the dirty rows plus the
    live rows its version moved past, less the filtered rows.  On the first
    predict that holds a label after a pass filtered rows
    (``filtered_pending``), it is also handed the unscored rows that are no
    longer live, before any update.  Returns the new ``filtered_pending``."""
    store = matcher.store
    bert = matcher.bert_featurizer
    dirty, live = store.dirty.copy(), expected_live(store)
    current, version = store.current.copy(), store.scored_version
    filtered = expected_filtered(store)
    labelled = not filtered.any() and (store.labels >= 0).any()
    frozen_unscored = np.zeros_like(dirty)
    if filtered_pending and labelled:
        frozen_unscored = ~current & ~dirty & ~live
        filtered_pending = False
    handed.clear()
    matcher.predict()
    if bert.model_version != version:
        current[:] = False
    stale = dirty | (live & ~current)
    expected = np.count_nonzero(stale & ~filtered) + np.count_nonzero(frozen_unscored)
    assert sum(handed.get(bert.name, [])) == int(expected)
    assert_columns_match_full_rescore(matcher)
    return filtered_pending or bool((stale & filtered).any())


class Script:
    """Applies one drawn operation to a live matcher."""

    def __init__(self, matcher: LearnedSchemaMatcher) -> None:
        self.matcher = matcher
        self.handed = record_scored_rows(matcher)
        #: Whether a pass left filtered rows unscored and no predict with a
        #: label has run since.
        self.filtered_pending = False
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
            self.predict_and_check()

    def predict_and_check(self) -> None:
        self.filtered_pending = predict_and_check_rescore(
            self.matcher, self.handed, self.filtered_pending
        )


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
        runner.predict_and_check()
        for op, pick in script:
            runner.apply(op, pick)
        runner.predict_and_check()
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
        runner.predict_and_check()
        for op, pick in script:
            runner.apply(op, pick)
        runner.predict_and_check()
    finally:
        matcher.close()


def test_clean_predict_scores_nothing(tiny_artifacts, source_schema, target_schema):
    """A second predict with no change scores no row, yet counts every BERT
    row that is not filtered as requested and skipped; the filtered rows
    count as filtered again."""
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    try:
        matcher.predict()
        stats = matcher.bert_featurizer.engine.stats
        handed = record_scored_rows(matcher)
        requested, skipped = stats.pairs_requested, stats.pairs_skipped
        filtered_before = stats.pairs_filtered
        matcher.predict()
        filtered = int(np.count_nonzero(expected_filtered(matcher.store)))
        assert filtered > 0
        assert handed == {}
        assert stats.pairs_requested - requested == matcher.store.num_pairs - filtered
        assert stats.pairs_skipped - skipped == matcher.store.num_pairs - filtered
        assert stats.pairs_filtered - filtered_before == filtered
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
        # The rows of qty the first pass filtered.
        qty_filtered = int(
            np.count_nonzero(expected_filtered(store)[store.pairs_of_source(qty)])
        )
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
        filtered_rows = expected_filtered(store)
        renamed_filtered = int(np.count_nonzero(filtered_rows[renamed_rows]))
        filtered = int(np.count_nonzero(filtered_rows))
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
    assert second["rows_dirty"]["lexical"] == second["rows_dirty"]["embedding"] == rescored
    if reject_first:
        # The rejection is the first label: the second pass filters
        # nothing, and BERT also scores every row the first pass filtered
        # that the rename left clean.
        assert second["rows_filtered"] == 0
        bert = rescored + first["rows_filtered"] - qty_filtered
    else:
        # Before any label BERT skips the renamed rows that are filtered.
        bert = rescored - renamed_filtered
    assert second["rows_dirty"]["bert"] == bert
    assert second["rows_frozen"] == 0
    assert (
        second["rows_clean"] + second["rows_dirty"]["bert"] + second["rows_filtered"]
        == num_pairs
    )
    assert second["rows_filtered"] == (0 if reject_first else filtered)


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
    """More live rows than the old 8,192-entry pair-halves LRU: a rescore
    after a BERT update used to scan an LRU smaller than the scan and hit
    nothing.  Halves are built from per-attribute tables now, so the
    update's rescore hashes each live row exactly once, and every current
    row still equals a cold rescore."""
    from repro.schema import Entity, Schema

    def schema(name: str, count: int) -> Schema:
        attributes = [
            Attribute(f"{WORDS[i % 8]}_{WORDS[(i // 8) % 8]}_{i}", DTYPES[i % 4], WORDS[i % 5])
            for i in range(count)
        ]
        return Schema(name, [Entity(f"{name}_entity", attributes)])

    width = 92
    source, target = schema("wide_source", width), schema("wide_target", width)
    config = LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=12, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        update_bert_every=1,
        engine=EngineConfig(microbatch_size=256),
        seed=0,
    )
    matcher = LearnedSchemaMatcher(source, target, config=config, artifacts=tiny_artifacts)
    try:
        store = matcher.store
        matcher.predict()
        bert = matcher.bert_featurizer
        stats = bert.encode_plane.stats
        fingerprints = stats.fingerprints
        version = bert.model_version
        refs = source.attribute_refs(), target.attribute_refs()
        # The matched source's rows the first pass filtered are hashed once,
        # when they are scored before the update.
        prescored = int(
            np.count_nonzero(expected_filtered(store)[store.pairs_of_source(refs[0][0])])
        )
        assert prescored > 0
        matcher.record_match(refs[0][0], refs[1][0])
        matcher.predict()
        assert bert.model_version > version, "the label must trigger a BERT update"
        # The matched source's width - 1 implied negatives stay frozen.
        live = store.num_pairs - width + 1
        assert live > 8192
        assert stats.fingerprints - fingerprints == live + prescored
        current = current_rows(matcher)
        assert int(np.count_nonzero(current)) == live
        rows = np.flatnonzero(current)
        column = matcher.feature_names.index("bert")
        bert.engine.clear_cached_scores()
        scored = bert.engine.stats.pairs_scored
        cold = reference_column(bert, store.views(rows))
        assert bert.engine.stats.pairs_scored - scored == live
        np.testing.assert_array_equal(store.features[rows, column], cold)
    finally:
        matcher.close()


def spy_fit(matcher: LearnedSchemaMatcher) -> list[int]:
    """Wrap ``meta.fit`` to log how many rows each fit reads."""
    fitted: list[int] = []
    fit = matcher.meta.fit

    def logged(features, labels):
        fitted.append(int(features.shape[0]))
        return fit(features, labels)

    matcher.meta.fit = logged
    return fitted


def label_script(matcher: LearnedSchemaMatcher) -> list[tuple[AttributeRef, AttributeRef]]:
    """Four (source, target) matches, each on a distinct source."""
    store = matcher.store
    return [
        (store.source_refs[i], store.target_refs[(3 * i) % store.num_targets])
        for i in range(4)
    ]


def test_frozen_rows_keep_their_value_and_stay_in_the_fit(
    tiny_artifacts, source_schema, target_schema
):
    """Matches alone, each triggering a BERT update (the default
    ``update_bert_every=1``): every update freezes the matched sources'
    implied negatives at the value of the model that last scored them, and
    the fit still reads every row, so it keeps its negative class and a
    fitted model instead of falling back to the prior."""
    matcher = make_matcher(
        tiny_artifacts, source_schema, target_schema, update_bert_every=1
    )
    try:
        fitted = spy_fit(matcher)
        store = matcher.store
        matcher.predict()
        for source, target in label_script(matcher):
            matcher.record_match(source, target)
            before = store.features.copy()
            version = matcher.bert_featurizer.model_version
            matcher.predict()
            assert matcher.bert_featurizer.model_version > version
            frozen = ~current_rows(matcher)
            assert frozen.any(), "the update must freeze the implied negatives"
            assert not (frozen & expected_live(store)).any()
            np.testing.assert_array_equal(store.features[frozen], before[frozen])
            assert fitted[-1] == store.num_pairs
            assert matcher.meta.model is not None
    finally:
        matcher.close()


def test_ranking_never_reads_a_frozen_row(
    tiny_artifacts, source_schema, target_schema
):
    """NaN in every frozen row's features, as the scoring pass after the
    fit reads them, changes no suggestion, confidence, meta weight or
    other row's score: only the fit reads a frozen row."""
    plain = make_matcher(tiny_artifacts, source_schema, target_schema)
    poisoned = make_matcher(tiny_artifacts, source_schema, target_schema)
    meta_predict = poisoned.meta.predict
    frozen_seen = []

    def predict_with_frozen_rows_poisoned(features):
        frozen = ~current_rows(poisoned)
        frozen_seen.append(frozen)
        features = features.copy()
        features[frozen] = np.nan
        return meta_predict(features)

    poisoned.meta.predict = predict_with_frozen_rows_poisoned
    try:
        script = label_script(plain)
        for matches in ([], script[:2], script[2:]):
            for matcher in (plain, poisoned):
                for source, target in matches:
                    matcher.record_match(source, target)
            expected, got = plain.predict(), poisoned.predict()
            assert got.suggestions == expected.suggestions
            assert got.confidences == expected.confidences
            kept = ~frozen_seen[-1]
            np.testing.assert_array_equal(got.scores[kept], expected.scores[kept])
            if matches:
                assert plain.meta.model is not None
                np.testing.assert_array_equal(
                    poisoned.meta.model.weights, plain.meta.model.weights
                )
        assert frozen_seen[-1].any(), "the script must freeze some rows"
    finally:
        plain.close()
        poisoned.close()


def test_one_shot_labels_score_every_row_once(
    tiny_artifacts, source_schema, target_schema
):
    """Labels recorded before the first ``predict()`` (the Table IV path):
    every row is dirty, so each is scored once after the update, and the
    fit reads every row."""
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    try:
        handed = record_scored_rows(matcher)
        fitted = spy_fit(matcher)
        for source, target in label_script(matcher):
            matcher.record_match(source, target)
        version = matcher.bert_featurizer.model_version
        matcher.predict()
        num_pairs = matcher.store.num_pairs
        assert matcher.bert_featurizer.model_version > version
        assert matcher.bert_featurizer.engine.stats.pairs_scored == num_pairs
        assert {name: sum(counts) for name, counts in handed.items()} == {
            name: num_pairs for name in matcher.feature_names
        }
        assert fitted == [num_pairs]
    finally:
        matcher.close()


def test_renamed_matched_source_is_rescored(
    tiny_artifacts, source_schema, target_schema
):
    """A rename dirties a matched source's frozen rows: the next pass
    rescores them at the current version, and they equal a cold rescore."""
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema)
    try:
        handed = record_scored_rows(matcher)
        matcher.predict()
        script = label_script(matcher)
        for source, target in script[:2]:
            matcher.record_match(source, target)
        matcher.predict()  # a BERT update
        for source, target in script[2:]:
            matcher.record_match(source, target)
        matcher.predict()  # another update: the first two sources freeze
        store = matcher.store
        source = script[0][0]
        assert not current_rows(matcher)[store.pairs_of_source(source)].all()

        renamed = AttributeRef(source.entity, source.attribute + "_renamed")
        matcher.apply_delta(SchemaDelta((RenameColumn(source, renamed.attribute),)))
        predict_and_check_rescore(matcher, handed)
        assert current_rows(matcher)[store.pairs_of_source(renamed)].all()
    finally:
        matcher.close()
