"""Tests for the dtype filter and new-entity penalty."""

import numpy as np
import pytest

from repro.core import CandidateStore, ScoreAdjuster, entity_penalty
from repro.core.scoring import dtype_compatibility_mask
from repro.schema import (
    Attribute,
    AttributeRef,
    DataType,
    Entity,
    RetypeColumn,
    Schema,
    SchemaDelta,
)
from repro.schema.drift import apply_delta as apply_schema_delta

from ..conftest import top_k_sets


@pytest.fixture()
def store(source_schema, target_schema):
    return CandidateStore(source_schema, target_schema)


class TestEntityPenaltyFormula:
    def test_zero_distance_no_penalty(self):
        assert entity_penalty(0) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        values = [entity_penalty(d) for d in range(6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_paper_formula(self):
        assert entity_penalty(1) == pytest.approx(1.0 / (1.0 + np.log(2.0)))


class TestDtypeFilter:
    def test_incompatible_pairs_zeroed(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema, apply_entity_penalty=False)
        scores = np.ones(store.num_pairs)
        adjusted = adjuster.adjust(scores)
        # qty (decimal) vs product_name (string) must be zeroed.
        pair_id = store.pair_id(
            AttributeRef("Orders", "qty"), AttributeRef("Product", "product_name")
        )
        assert adjusted[pair_id] == 0.0
        # qty vs quantity (decimal) survives.
        pair_id = store.pair_id(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        assert adjusted[pair_id] == 1.0

    def test_filter_can_be_disabled(self, store, target_schema):
        adjuster = ScoreAdjuster(
            store, target_schema, apply_dtype_filter=False, apply_entity_penalty=False
        )
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert (adjusted == 1.0).all()

    def test_input_not_mutated(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema)
        scores = np.ones(store.num_pairs)
        adjuster.adjust(scores)
        assert (scores == 1.0).all()

    def test_mask_recomputed_after_ensure_pair(self, store, target_schema, rng):
        adjuster = ScoreAdjuster(store, target_schema, apply_entity_penalty=False)
        adjuster.adjust(np.ones(store.num_pairs))
        store.apply_candidate_sets(
            top_k_sets(store, 2, rng.random(store.num_pairs))
        )
        store.ensure_pair(
            AttributeRef("Orders", "qty"), AttributeRef("Brand", "brand_name")
        )
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert adjusted.shape[0] == store.num_pairs

    def test_mask_recomputed_after_count_preserving_mutation(
        self, store, target_schema, rng
    ):
        """Regression: the mask cache was keyed on pair *count*, so a
        mutation that drops one pair and re-adds another (same count, shifted
        row layout) silently zeroed the wrong candidates."""
        adjuster = ScoreAdjuster(store, target_schema, apply_entity_penalty=False)
        adjuster.adjust(np.ones(store.num_pairs))  # populate the mask cache
        stale_mask = adjuster._current_dtype_mask().copy()
        before = store.num_pairs

        all_pairs = set(zip(store.pair_source.tolist(), store.pair_target.tolist()))
        store.apply_candidate_sets(
            top_k_sets(store, store.num_targets - 1, rng.random(store.num_pairs))
        )
        kept = set(zip(store.pair_source.tolist(), store.pair_target.tolist()))
        for source_index, target_index in sorted(all_pairs - kept):
            store.ensure_pair(
                store.source_refs[source_index], store.target_refs[target_index]
            )
        assert store.num_pairs == before  # same count...
        fresh_mask = dtype_compatibility_mask(store)
        assert not np.array_equal(stale_mask, fresh_mask)  # ...different layout

        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        np.testing.assert_array_equal(adjusted, np.where(fresh_mask, 1.0, 0.0))


def reference_dtype_mask(store: CandidateStore) -> np.ndarray:
    """The per-pair ``DataType.is_compatible`` double loop (test oracle)."""
    compatibility = np.zeros((store.num_sources, store.num_targets), dtype=bool)
    for i, source_ref in enumerate(store.source_refs):
        source_dtype = store.source_schema.attribute(source_ref).dtype
        for j, target_ref in enumerate(store.target_refs):
            target_dtype = store.target_schema.attribute(target_ref).dtype
            compatibility[i, j] = source_dtype.is_compatible(target_dtype)
    return compatibility[store.pair_source, store.pair_target]


def random_schema(name: str, rng: np.random.Generator) -> Schema:
    dtypes = list(DataType)  # includes UNKNOWN
    entities = [
        Entity(
            f"{name}{e}",
            [
                Attribute(f"c{a}", dtypes[int(rng.integers(len(dtypes)))])
                for a in range(int(rng.integers(1, 7)))
            ],
        )
        for e in range(int(rng.integers(1, 5)))
    ]
    return Schema(name, entities)


class TestDtypeMaskParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        source, target = random_schema("S", rng), random_schema("T", rng)
        store = CandidateStore(source, target)
        if seed % 2:  # a pruned, non-product pair layout
            keep = max(store.num_targets // 2, 1)
            store.apply_candidate_sets(
                top_k_sets(store, keep, rng.random(store.num_pairs))
            )
        adjuster = ScoreAdjuster(store, target, apply_entity_penalty=False)
        expected = reference_dtype_mask(store)
        np.testing.assert_array_equal(dtype_compatibility_mask(store), expected)
        np.testing.assert_array_equal(adjuster._current_dtype_mask(), expected)

        # Retype one source column to a type of another family (or to or
        # from UNKNOWN) and the invalidated adjuster must follow it.
        retyped = store.source_refs[int(rng.integers(store.num_sources))]
        old = source.attribute(retyped).dtype
        new = DataType.UNKNOWN if old is not DataType.UNKNOWN else DataType.BOOLEAN
        evolved, effect = apply_schema_delta(
            source, SchemaDelta((RetypeColumn(retyped, new),))
        )
        store.apply_delta(evolved, effect)
        adjuster.invalidate_dtype_mask()
        expected = reference_dtype_mask(store)
        np.testing.assert_array_equal(dtype_compatibility_mask(store), expected)
        np.testing.assert_array_equal(adjuster._current_dtype_mask(), expected)


class TestEntityPenalty:
    def test_no_penalty_without_matches(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema, apply_dtype_filter=False)
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert (adjusted == 1.0).all()

    def test_unmatched_entities_penalised_by_distance(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema, apply_dtype_filter=False)
        store.set_positive(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        # Transaction is matched: factor 1.  Product at distance 1, Brand 2.
        in_matched = store.pair_id(
            AttributeRef("Orders", "disc"),
            AttributeRef("Transaction", "price_change_percentage"),
        )
        one_hop = store.pair_id(
            AttributeRef("Orders", "disc"), AttributeRef("Product", "product_id")
        )
        two_hops = store.pair_id(
            AttributeRef("Orders", "disc"), AttributeRef("Brand", "brand_id")
        )
        assert adjusted[in_matched] == pytest.approx(1.0)
        assert adjusted[one_hop] == pytest.approx(entity_penalty(1))
        assert adjusted[two_hops] == pytest.approx(entity_penalty(2))
        assert adjusted[in_matched] > adjusted[one_hop] > adjusted[two_hops]
