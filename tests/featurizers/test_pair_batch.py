"""Columnar pair batches against the per-pair reference.

The candidate store hands featurizers a :class:`~repro.featurizers.PairBatch`
of per-attribute tables, and the BERT featurizer keys its rows with
fingerprints and truncated lengths computed from those tables.  Here every row of a batch built from
random schemas must match what the per-pair path computes for it: the
sequential ``encode_attribute_pair`` row and its ``fingerprint_encoded``
digest, and each featurizer's per-pair score
(``tests/featurizers/pair_reference.py``), bit for bit -- with descriptions
and without, and in every regime of the pair truncation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateStore
from repro.engine import EngineConfig
from repro.engine.engine import fingerprint_encoded
from repro.featurizers import (
    BertFeaturizer,
    BertFeaturizerConfig,
    EmbeddingFeaturizer,
    LexicalFeaturizer,
)
from repro.schema import Attribute, DataType, Entity, Schema

from .pair_reference import reference_column

NAME = st.text(alphabet="abcdeimnoprstuz_", min_size=1, max_size=16)
DESC = st.one_of(st.just(""), st.text(alphabet="abcdeimnoprstuz ", max_size=60))
ATTRS = st.lists(st.tuples(NAME, DESC), min_size=1, max_size=5, unique_by=lambda a: a[0])


def schema_of(name: str, *entities: list[tuple[str, str]]) -> Schema:
    return Schema(
        name,
        [
            Entity(f"E{i}", [Attribute(n, DataType.STRING, d) for n, d in attrs])
            for i, attrs in enumerate(entities)
        ],
    )


@pytest.fixture(scope="module")
def featurizers(tiny_artifacts):
    """One BERT featurizer per max_length (keys need no forward)."""
    made: dict[int, BertFeaturizer] = {}

    def get(max_length: int) -> BertFeaturizer:
        if max_length not in made:
            made[max_length] = BertFeaturizer(
                tiny_artifacts.tokenizer,
                tiny_artifacts.bert,
                BertFeaturizerConfig(max_length=max_length, seed=0),
                engine_config=EngineConfig(persist_scores=False, n_workers=1),
            )
        return made[max_length]

    yield get
    for featurizer in made.values():
        featurizer.close()


def assert_keys_match_sequential(featurizer, store: CandidateStore) -> None:
    rows = np.arange(store.num_pairs)
    halves = featurizer._batch_halves(store.pair_batch(rows))
    max_length = featurizer.config.max_length
    for row in rows.tolist():
        source = store.source_schema.attribute(store.source_refs[store.pair_source[row]])
        target = store.target_schema.attribute(store.target_refs[store.pair_target[row]])
        keep = store.use_descriptions
        encoded = featurizer.tokenizer.encode_attribute_pair(
            source.name, source.description if keep else "",
            target.name, target.description if keep else "",
            max_length=max_length,
        )
        assert halves.fingerprints[row].tobytes() == fingerprint_encoded(encoded)
        real = encoded.attention_mask.astype(bool)
        len_b = int(encoded.segment_ids[real].sum()) - 1
        len_a = int(real.sum()) - len_b - 3
        assert [halves.len_a[row], halves.len_b[row]] == [len_a, len_b]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    source=ATTRS,
    target_a=ATTRS,
    target_b=ATTRS,
    max_length=st.integers(min_value=4, max_value=40),
    use_descriptions=st.booleans(),
)
def test_keys_equal_sequential_fingerprints(
    featurizers, source, target_a, target_b, max_length, use_descriptions
):
    store = CandidateStore(
        schema_of("s", source),
        schema_of("t", target_a, target_b),
        use_descriptions=use_descriptions,
    )
    assert_keys_match_sequential(featurizers(max_length), store)


LONG = "price amount discount quantity brand status order line date name " * 3


@pytest.mark.parametrize(
    "source, target, max_length, use_descriptions, regime",
    [
        (("qty", ""), ("quantity", "the quantity"), 40, True, "fits"),
        (("qty", ""), ("quantity", LONG), 12, True, "a_short"),
        (("qty", LONG), ("quantity", ""), 12, True, "b_short"),
        (("qty", LONG), ("quantity", LONG), 12, True, "both_long"),
        (("qty", ""), ("quantity", ""), 8, True, "empty_descriptions"),
        (("qty", LONG), ("quantity", LONG), 12, False, "fits"),
    ],
)
def test_every_truncation_regime(
    featurizers, source, target, max_length, use_descriptions, regime
):
    featurizer = featurizers(max_length)
    store = CandidateStore(
        schema_of("s", [source]), schema_of("t", [target]), use_descriptions=use_descriptions
    )
    tokens = featurizer.encode_plane.tokens
    keep = use_descriptions
    size_a = tokens.ids_for(source[0], source[1] if keep else "").size
    size_b = tokens.ids_for(target[0], target[1] if keep else "").size
    budget = max_length - 3
    if regime in ("fits", "empty_descriptions"):
        assert size_a + size_b <= budget
    elif regime == "a_short":
        assert size_a + size_b > budget and size_a <= budget // 2
    elif regime == "b_short":
        assert size_a + size_b > budget and size_b <= budget - budget // 2 < size_a
    else:
        assert size_a > budget // 2 and size_b > budget - budget // 2
    assert_keys_match_sequential(featurizer, store)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    source=ATTRS,
    target_a=ATTRS,
    target_b=ATTRS,
    use_descriptions=st.booleans(),
)
# One canonical name, three token splits: the embedding featurizer must
# share work by tokens, the lexical one by canonical name.
@example(
    source=[("order_id", ""), ("orderid", "")],
    target_a=[("order_id", "the order")],
    target_b=[("OrderID", ""), ("order_i_d", "")],
    use_descriptions=True,
)
def test_columns_equal_per_pair_reference(
    featurizers, tiny_artifacts, source, target_a, target_b, use_descriptions
):
    """Duplicate names across entities share table keys; each column must
    still equal the per-pair score of every row."""
    store = CandidateStore(
        schema_of("s", source),
        schema_of("t", target_a, target_b),
        use_descriptions=use_descriptions,
    )
    bert = featurizers(16)
    rows = np.arange(store.num_pairs)
    batch = store.pair_batch(rows)
    views = store.views(rows)
    for featurizer in (
        LexicalFeaturizer(),
        EmbeddingFeaturizer(embeddings=tiny_artifacts.embeddings),
        bert,
    ):
        np.testing.assert_array_equal(
            featurizer.score_pairs(batch), reference_column(featurizer, views)
        )


def test_tables_cover_only_touched_attributes(source_schema, target_schema):
    store = CandidateStore(source_schema, target_schema)
    rows = store.pairs_of_source_index(1)[:3]
    batch = store.pair_batch(rows)
    assert len(batch.sources) == 1
    assert len(batch.targets) == 3
