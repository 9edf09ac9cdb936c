"""Differential test of stage 0: no BERT score for a dtype-filtered pair
before the first label.

While the store holds no label, ``ScoreAdjuster.adjust`` zeroes every
dtype-incompatible pair, and the only other reader of such a row's BERT
cell is the meta-learner's prior mean of that same row.  So
``LearnedSchemaMatcher._featurize`` leaves those rows out of BERT's row
set, and the first predict that holds a label scores them under the model
the full pass would have scored them with.  The skip must change no bit:

* every predict's scores, suggestions and confidences equal those of the
  same script with the skip patched off, bit for bit;
* so does every BERT cell the skip did not leave unscored, and after the
  first label every BERT cell, frozen rows included;
* NaN written into the unscored rows' BERT cells before every predict
  without a label changes no output.

Random mixed-dtype source schemas run label scripts that start with a match
or with rejections only, at ``update_bert_every`` 1 and 4, and drift
scripts that retype a column to ``UNKNOWN`` (its pairs turn compatible) or
to ``BINARY`` (its pairs turn incompatible), before and after the first
label.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import LearnedSchemaMatcher, LsmConfig
from repro.engine import EngineConfig
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import (
    Attribute,
    DataType,
    Entity,
    RetypeColumn,
    Schema,
    SchemaDelta,
)

WORDS = ("total", "units", "code", "label", "shipped", "value", "origin", "batch")
#: Source dtypes: the tiny target has integers, decimals, strings and dates,
#: so a boolean source column is incompatible with every target.
DTYPES = (
    DataType.INTEGER,
    DataType.DECIMAL,
    DataType.STRING,
    DataType.DATE,
    DataType.BOOLEAN,
)
#: Retypes: ``UNKNOWN`` is compatible with everything, ``BINARY`` with no
#: target of the tiny schema.
RETYPES = {"retype_compatible": DataType.UNKNOWN, "retype_incompatible": DataType.BINARY}


def make_matcher(
    tiny_artifacts, source, target, update_bert_every: int, skip: bool, trace_path=None
) -> LearnedSchemaMatcher:
    config = LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        update_bert_every=update_bert_every,
        max_candidates_per_source=6,
        engine=EngineConfig(microbatch_size=8),
        trace_path=trace_path,
        seed=0,
    )
    matcher = LearnedSchemaMatcher(source, target, config=config, artifacts=tiny_artifacts)
    if not skip:
        matcher._filtered_rows = lambda: None
    return matcher


def has_label(matcher: LearnedSchemaMatcher) -> bool:
    return bool((matcher.store.labels >= 0).any())


class Pair:
    """The same script on a matcher with the skip and one without."""

    def __init__(self, tiny_artifacts, source, target, update_bert_every: int) -> None:
        self.skip = make_matcher(tiny_artifacts, source, target, update_bert_every, True)
        self.full = make_matcher(tiny_artifacts, source, target, update_bert_every, False)
        self.bert_column = self.skip.feature_names.index("bert")
        self.scored_rows_before_first_label: list[int] = []
        #: Rows the first predict with a label scores before any update.
        self.frozen_scored_before_update = 0

    def close(self) -> None:
        self.skip.close()
        self.full.close()

    def both(self, action) -> None:
        action(self.skip)
        action(self.full)

    def apply(self, op: str, pick: int) -> None:
        store = self.skip.store
        if op == "predict":
            self.predict()
        elif op == "match":
            unmatched = store.unmatched_sources()
            if not has_label(self.skip):
                # The first match goes to a source with a row the skip left
                # unscored, so the label freezes one.
                unscored = np.unique(store.pair_source[~store.current])
                unmatched = [store.source_refs[int(index)] for index in unscored]
            if unmatched:
                source = unmatched[pick % len(unmatched)]
                target = store.target_refs[(pick // 3) % store.num_targets]
                self.both(lambda matcher: matcher.record_match(source, target))
        elif op == "reject":
            unmatched = store.unmatched_sources()
            if unmatched:
                source = unmatched[pick % len(unmatched)]
                start = (pick // 3) % store.num_targets
                targets = store.target_refs[start : start + 2]
                self.both(lambda matcher: matcher.record_rejected(source, targets))
        else:
            schema = self.skip.source_schema
            refs = schema.attribute_refs()
            ref = refs[pick % len(refs)]
            if schema.attribute(ref).dtype is not RETYPES[op]:
                delta = SchemaDelta((RetypeColumn(ref, RETYPES[op]),))
                self.both(lambda matcher: matcher.apply_delta(delta))

    def predict(self) -> None:
        skip, full = self.skip, self.full
        unlabelled = not has_label(skip)
        if unlabelled:
            # Poison every BERT cell the skip may have left unscored: no
            # output may read it before the first label.
            skip.store.features[~skip.store.current, self.bert_column] = np.nan
        scored_before = skip.bert_featurizer.engine.stats.pairs_scored
        if not unlabelled and skip._filtered_pending:
            store = skip.store
            self.frozen_scored_before_update = int(
                np.count_nonzero(~store.current & ~store.dirty & ~store.live_mask())
            )
        got, expected = skip.predict(), full.predict()
        np.testing.assert_array_equal(got.scores, expected.scores)
        assert got.suggestions == expected.suggestions
        assert got.confidences == expected.confidences
        cells, reference = skip.store.features, full.store.features
        if unlabelled:
            scored = skip.store.current
            mask = skip.adjuster.dtype_mask()
            assert not (~scored & mask).any(), "only dtype-filtered rows skip BERT"
            self.scored_rows_before_first_label.append(
                skip.bert_featurizer.engine.stats.pairs_scored - scored_before
            )
        else:
            scored = np.ones(skip.store.num_pairs, dtype=bool)
        np.testing.assert_array_equal(cells[scored], reference[scored])
        assert skip.bert_featurizer.model_version == full.bert_featurizer.model_version


def run_script(
    tiny_artifacts, source, target, update_bert_every: int, first: str, before, after
) -> Pair:
    """predict, ``before`` ops, the first label (``first``), predict, ``after`` ops, predict."""
    pair = Pair(tiny_artifacts, source, target, update_bert_every)
    try:
        pair.predict()
        for op, pick in before:
            pair.apply(op, pick)
        pair.predict()
        assert not has_label(pair.skip)
        pair.apply(first, 1)
        pair.predict()
        for op, pick in after:
            pair.apply(op, pick)
        pair.predict()
    finally:
        pair.close()
    return pair


@st.composite
def source_schemas(draw) -> Schema:
    entities = []
    for entity in range(draw(st.integers(min_value=1, max_value=2))):
        count = draw(st.integers(min_value=2, max_value=4))
        words = draw(st.lists(st.sampled_from(WORDS), min_size=count, max_size=count))
        dtypes = draw(st.lists(st.sampled_from(DTYPES), min_size=count, max_size=count))
        attributes = [
            Attribute(f"{word}_{index}", dtype, f"the {word} of the record")
            for index, (word, dtype) in enumerate(zip(words, dtypes))
        ]
        entities.append(Entity(f"Source{entity}", attributes))
    return Schema("mixed_source", entities)


drift_ops = st.tuples(
    st.sampled_from(("retype_compatible", "retype_incompatible")),
    st.integers(min_value=0, max_value=10**6),
)
after_ops = st.tuples(
    st.sampled_from(("match", "reject", "predict", "retype_compatible", "retype_incompatible")),
    st.integers(min_value=0, max_value=10**6),
)


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=source_schemas(),
    update_bert_every=st.sampled_from((1, 4)),
    first=st.sampled_from(("match", "reject")),
    before=st.lists(drift_ops, max_size=2),
    after=st.lists(after_ops, max_size=5),
)
def test_skip_changes_no_bit(
    tiny_artifacts, target_schema, source, update_bert_every, first, before, after
):
    run_script(tiny_artifacts, source, target_schema, update_bert_every, first, before, after)


@pytest.mark.parametrize("update_bert_every", (1, 4))
@pytest.mark.parametrize(
    "first, before, after",
    [
        ("match", [], [("match", 5), ("predict", 0), ("match", 8)]),
        ("reject", [], [("reject", 4), ("predict", 0), ("match", 2)]),
        ("match", [("retype_compatible", 2)], [("retype_incompatible", 3)]),
        ("reject", [("retype_incompatible", 1)], [("retype_compatible", 0), ("match", 1)]),
    ],
    ids=["match-first", "reject-first", "retype-compatible", "retype-incompatible"],
)
def test_named_scripts(
    tiny_artifacts, source_schema, target_schema, update_bert_every, first, before, after
):
    pair = run_script(
        tiny_artifacts, source_schema, target_schema, update_bert_every, first, before, after
    )
    filtered = pair.skip.bert_featurizer.engine.stats.pairs_filtered
    assert filtered > 0, "the script must filter some rows"
    assert pair.full.bert_featurizer.engine.stats.pairs_filtered == 0
    # The first predict scores only the dtype-compatible rows.
    assert pair.scored_rows_before_first_label[0] < pair.skip.store.num_pairs
    if first == "match":
        assert pair.frozen_scored_before_update > 0


def test_first_label_scores_frozen_rows_before_the_update(
    tiny_artifacts, source_schema, target_schema
):
    """A first match with ``update_bert_every=1``: the matched source's
    filtered rows are scored under the model before the update, and its
    compatible rows keep their value; both stay frozen after the update."""
    matcher = make_matcher(tiny_artifacts, source_schema, target_schema, 1, True)
    try:
        store = matcher.store
        column = matcher.feature_names.index("bert")
        bert = matcher.bert_featurizer
        matcher.predict()
        unscored = ~store.current.copy()
        source = next(
            ref
            for ref in store.source_refs
            if unscored[store.pairs_of_source(ref)].any()
        )
        rows = store.pairs_of_source(source)
        target = store.target_refs[int(store.pair_target[rows[0]])]
        version = bert.model_version
        matcher.record_match(source, target)
        matcher.predict()
        assert bert.model_version > version
        frozen = rows[store.labels[rows] == 0]
        assert unscored[frozen].any(), "the match must freeze a filtered row"
        assert not np.isnan(store.features[frozen, column]).any()
        assert not store.current[frozen].any()
        # The value of the model before the update: a fresh matcher without
        # the skip scores every row under that model on its first predict.
        reference = make_matcher(tiny_artifacts, source_schema, target_schema, 1, False)
        try:
            reference.predict()
            np.testing.assert_array_equal(
                store.features[frozen, column],
                reference.store.features[frozen, column],
            )
        finally:
            reference.close()
    finally:
        matcher.close()


def test_featurize_span_counts_every_row(tmp_path, tiny_artifacts, source_schema, target_schema):
    """``rows_clean + rows_dirty["bert"] + rows_frozen + rows_filtered`` is
    every row on each pass, and ``engine.pairs_filtered`` sums the filtered
    rows, which count as neither requested nor skipped."""
    trace_path = tmp_path / "skip.ndjson"
    matcher = make_matcher(
        tiny_artifacts, source_schema, target_schema, 1, True, trace_path=str(trace_path)
    )
    try:
        stats = matcher.bert_featurizer.engine.stats
        matcher.predict()
        first_requested = stats.pairs_requested
        matcher.predict()
        refs = matcher.store.source_refs, matcher.store.target_refs
        matcher.record_match(refs[0][0], refs[1][0])
        matcher.predict()
        filtered = stats.pairs_filtered
    finally:
        matcher.close()
    records = obs.load_trace(trace_path)
    passes = [r["attrs"] for r in records if r.get("name") == "lsm.featurize"]
    assert len(passes) == 3
    for attrs in passes:
        assert (
            attrs["rows_clean"]
            + attrs["rows_dirty"]["bert"]
            + attrs["rows_frozen"]
            + attrs["rows_filtered"]
            == attrs["pairs"]
        )
    unlabelled = [attrs["rows_filtered"] for attrs in passes[:2]]
    assert unlabelled[0] == unlabelled[1] > 0
    assert passes[2]["rows_filtered"] == 0
    assert filtered == sum(unlabelled)
    assert first_requested == passes[0]["pairs"] - unlabelled[0]
