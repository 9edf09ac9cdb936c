"""CandidateStore drift + staleness regression tests.

Covers the store state a schema delta must keep current:

* renamed columns' rows (they turn dirty, and their views read the new
  name);
* the batched pair-growth path (per-pair ``np.append`` chains silently
  promoted the ``intp``/``int8`` arrays and were O(n^2));
* ``apply_delta``: the store-level incremental evolution contract.
"""

import numpy as np
import pytest

from repro.core.candidates import UNLABELED, CandidateStore
from repro.schema import (
    AttributeRef,
    DropColumn,
    RenameColumn,
    RetypeColumn,
    SchemaDelta,
    apply_delta,
)

from ..conftest import (
    full_product_store,
    make_source_schema,
    make_target_schema,
    top_k_sets,
)


def ref(text: str) -> AttributeRef:
    return AttributeRef.parse(text)


@pytest.fixture()
def store() -> CandidateStore:
    return full_product_store(make_source_schema(), make_target_schema())


class TestViewInvalidation:
    def test_invalidate_views_drops_only_named_pairs(self, store):
        a = store.pair_id(ref("Orders.qty"), ref("Transaction.quantity"))
        b = store.pair_id(ref("Orders.disc"), ref("Transaction.tax_amount"))
        store.dirty[:] = False
        store.mark_dirty([a, a])
        assert np.flatnonzero(store.dirty).tolist() == [a]
        assert not store.dirty[b]

    def test_invalidate_views_of_source(self, store):
        source = ref("Orders.qty")
        store.dirty[:] = False
        store.mark_source_dirty(store.source_index(source))
        np.testing.assert_array_equal(
            np.flatnonzero(store.dirty), np.sort(store.pairs_of_source(source))
        )

    def test_rename_delta_rebuilds_views_with_new_name(self, store):
        """A view read after a rename shows the new name, and the renamed
        source's rows, and only those, turn dirty."""
        target = ref("Transaction.quantity")
        pair_id = store.pair_id(ref("Orders.qty"), target)
        assert store.view(pair_id).source_name == "qty"
        store.dirty[:] = False
        evolved, effect = apply_delta(
            store.source_schema,
            SchemaDelta((RenameColumn(ref("Orders.qty"), "quantity_sold"),)),
        )
        store.apply_delta(evolved, effect)
        renamed = ref("Orders.quantity_sold")
        assert store.dirty.sum() == len(store.pairs_of_source(renamed)) > 0
        assert store.dirty[store.pairs_of_source(renamed)].all()
        fresh = store.pair_id(renamed, target)
        assert store.view(fresh).source_name == "quantity_sold"


class TestBatchedGrowth:
    def test_ensure_pairs_single_growth_and_dtypes(self, store):
        scores = np.zeros(store.num_pairs)
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        missing = [
            (ref("Orders.qty"), ref("Transaction.tax_amount")),
            (ref("Orders.qty"), ref("Brand.brand_name")),
            (ref("Orders.qty"), ref("Transaction.tax_amount")),  # duplicate
        ]
        before = store.num_pairs
        ids = store.ensure_pairs(missing)
        assert store.num_pairs == before + 2
        assert ids[0] == ids[2]
        assert store.pair_source.dtype == np.intp
        assert store.pair_target.dtype == np.intp
        assert store.labels.dtype == np.int8
        assert store.label_explicit.dtype == bool
        # Idempotent: nothing grows the second time.
        assert store.ensure_pairs(missing) == ids
        assert store.num_pairs == before + 2

    def test_ensure_pair_matches_pair_id(self, store):
        pair = (ref("Item.ean"), ref("Product.european_article_number"))
        assert store.ensure_pair(*pair) == store.pair_id(*pair)

    def test_set_negatives_batched(self, store):
        source = ref("Orders.qty")
        targets = [ref("Transaction.tax_amount"), ref("Brand.brand_name")]
        store.set_negatives(source, targets)
        for target in targets:
            assert store.labels[store.pair_id(source, target)] != UNLABELED


class TestStoreApplyDelta:
    def _evolve(self, store, *operations):
        evolved, effect = apply_delta(store.source_schema, SchemaDelta(operations))
        return store.apply_delta(evolved, effect), evolved

    def test_rename_keeps_pairs_and_labels(self, store):
        source, target = ref("Orders.qty"), ref("Transaction.quantity")
        store.set_positive(source, target)
        pairs_before = store.num_pairs
        report, evolved = self._evolve(
            store, RenameColumn(source, "quantity_sold")
        )
        assert store.source_schema is evolved
        assert store.num_pairs == pairs_before
        assert report.pairs_dropped == 0
        assert report.labels_dropped == 0
        assert report.labels_preserved > 0
        new_ref = ref("Orders.quantity_sold")
        assert store.matched_target_of(new_ref) == target
        assert report.renamed_sources == [store.source_index(new_ref)]

    def test_drop_removes_pairs_and_counts_labels(self, store):
        source = ref("Orders.disc")
        store.set_positive(source, ref("Transaction.price_change_percentage"))
        per_source = store.num_targets
        pairs_before = store.num_pairs
        report, _ = self._evolve(store, DropColumn(source))
        assert report.pairs_dropped == per_source
        assert store.num_pairs == pairs_before - per_source
        assert report.labels_dropped > 0
        assert report.dropped_sources == [source]
        assert source not in store.source_refs
        # Remaining pair indices are consistent after the renumbering.
        for i, (s, t) in enumerate(zip(store.pair_source, store.pair_target)):
            assert store.pair_id(store.source_ref(s), store.target_ref(t)) == i

    def test_retype_reports_source_without_touching_pairs(self, store):
        from repro.schema import DataType

        pairs_before = store.num_pairs
        report, _ = self._evolve(
            store, RetypeColumn(ref("Orders.qty"), DataType.STRING)
        )
        assert store.num_pairs == pairs_before
        assert report.retyped_sources == [store.source_index(ref("Orders.qty"))]
        assert report.affected_sources() == report.retyped_sources

    def test_add_full_product_appends_new_source_pairs(self, store):
        from repro.schema import AddColumn, Attribute, DataType

        evolved, effect = apply_delta(
            store.source_schema,
            SchemaDelta((AddColumn("Orders", Attribute("upc", DataType.STRING)),)),
        )
        report = store.apply_delta(evolved, effect)
        new_index = store.source_index(ref("Orders.upc"))
        assert report.added_sources == [new_index]
        assert report.affected_sources() == [new_index]
        every_target = np.arange(store.num_targets)
        added, removed = store.apply_candidate_sets_for_sources(
            report.affected_sources(), [every_target]
        )
        assert (added, removed) == (store.num_targets, 0)
        rows = store.pairs_of_source_index(new_index)
        np.testing.assert_array_equal(store.pair_target[rows], every_target)
        assert store.dirty[rows].all() and (store.labels[rows] == UNLABELED).all()
        for i, (s, t) in enumerate(zip(store.pair_source, store.pair_target)):
            assert store.pair_id(store.source_ref(s), store.target_ref(t)) == i

    def test_add_without_full_product_defers_to_retrieval(self, store):
        from repro.schema import AddColumn, Attribute, DataType

        evolved, effect = apply_delta(
            store.source_schema,
            SchemaDelta((AddColumn("Orders", Attribute("upc", DataType.STRING)),)),
        )
        report = store.apply_delta(evolved, effect)
        assert report.pairs_added == 0
        assert len(store.pairs_of_source(ref("Orders.upc"))) == 0
