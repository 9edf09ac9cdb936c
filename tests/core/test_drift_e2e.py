"""End-to-end schema-drift tests on the tiny synthetic task.

Drive real deltas through a live matcher/session (full pipeline, small
model) and pin the incremental-rematch contract: labels survive renames,
renamed columns are re-encoded, retypes refresh the dtype mask, unaffected
pairs are served from the fingerprint score cache, and the incremental
path lands on the same matches as a from-scratch rebuild.
"""

import numpy as np
import pytest

from repro.core import (
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
)
from repro.core.scoring import dtype_compatibility_mask
from repro.datasets import DriftConfig, generate_drift_sequence
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import (
    AddColumn,
    Attribute,
    AttributeRef,
    DataType,
    DropColumn,
    RenameColumn,
    RetypeColumn,
    SchemaDelta,
    remap_ground_truth,
)


def ref(text: str) -> AttributeRef:
    return AttributeRef.parse(text)


@pytest.fixture()
def config():
    return LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        update_bert_every=10**9,  # freeze the model: isolate drift effects
        seed=0,
    )


@pytest.fixture()
def matcher(source_schema, target_schema, config, tiny_artifacts):
    with LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    ) as m:
        yield m


class TestRenameDrift:
    def test_labeled_rename_survives_and_reencodes(self, matcher, ground_truth):
        matcher.predict()
        source, target = ref("Orders.qty"), ground_truth[ref("Orders.qty")]
        matcher.record_match(source, target)

        report = matcher.apply_delta(
            SchemaDelta((RenameColumn(source, "quantity_sold"),))
        )
        new_ref = ref("Orders.quantity_sold")
        # The label rode the rename: still matched, under the new ref.
        assert matcher.store.matched_target_of(new_ref) == target
        assert report.store.labels_preserved > 0
        assert report.store.labels_dropped == 0
        # The renamed column's rows were marked dirty for re-encoding, and
        # no other row was.
        renamed_rows = matcher.store.pairs_of_source(new_ref)
        assert report.rows_dirtied == len(renamed_rows) > 0
        assert matcher.store.dirty[renamed_rows].all()
        assert int(matcher.store.dirty.sum()) == len(renamed_rows)

        predictions = matcher.predict()
        # Matched sources stay out of the suggestion set; everything else
        # is ranked against the new name without errors.
        assert new_ref not in predictions.suggestions
        assert source not in predictions.suggestions
        assert matcher.result().target_for(new_ref) == target

    def test_rescore_only_touches_drifted_pairs(self, matcher):
        matcher.predict()
        matcher.apply_delta(
            SchemaDelta((RenameColumn(ref("Orders.qty"), "quantity_sold"),))
        )
        matcher.predict()
        per_source = len(matcher.store.pairs_of_source(ref("Orders.quantity_sold")))
        assert matcher.drift_stats.pairs_rescored <= per_source
        assert matcher.drift_stats.pairs_reused > 0

    def test_drop_only_delta_reruns_nothing(self, matcher):
        matcher.predict()
        matcher.apply_delta(SchemaDelta((DropColumn(ref("Orders.disc")),)))
        matcher.predict()
        assert matcher.drift_stats.pairs_rescored == 0
        assert matcher.drift_stats.pairs_reused > 0
        assert not matcher.source_schema.has_attribute(ref("Orders.disc"))


class TestRetypeDrift:
    def test_retype_refreshes_dtype_mask(self, matcher):
        matcher.predict()
        mask_before = dtype_compatibility_mask(matcher.store)
        # DECIMAL -> DATE moves qty out of the numeric family: its numeric
        # targets become incompatible and must now be zeroed.
        report = matcher.apply_delta(
            SchemaDelta((RetypeColumn(ref("Orders.qty"), DataType.DATE),))
        )
        assert report.store.retyped_sources
        mask_after = dtype_compatibility_mask(matcher.store)
        pair_id = matcher.store.pair_id(
            ref("Orders.qty"), ref("Transaction.quantity")
        )
        assert bool(mask_before[pair_id]) is True
        assert bool(mask_after[pair_id]) is False

        predictions = matcher.predict()
        incompatible = predictions.scores[~mask_after]
        assert incompatible.size > 0
        assert np.count_nonzero(incompatible) == 0


class TestIncrementalParity:
    @pytest.mark.parametrize("retrieval_k", [None, 6])
    def test_matches_fresh_matcher_after_drift(
        self, source_schema, target_schema, config, tiny_artifacts, retrieval_k
    ):
        from dataclasses import replace

        if retrieval_k is not None:
            config = replace(config, max_candidates_per_source=retrieval_k)
        deltas = generate_drift_sequence(
            source_schema, DriftConfig(num_deltas=2, ops_per_delta=2, seed=5)
        )
        with LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        ) as incremental:
            incremental.predict()
            for delta in deltas:
                incremental.apply_delta(delta)
            evolved = incremental.source_schema
            incremental_predictions = incremental.predict()
            incremental_top1 = {
                source: ranked[0][0]
                for source, ranked in incremental_predictions.suggestions.items()
                if ranked
            }

        with LearnedSchemaMatcher(
            evolved, target_schema, config=config, artifacts=tiny_artifacts
        ) as fresh:
            fresh_predictions = fresh.predict()
            fresh_top1 = {
                source: ranked[0][0]
                for source, ranked in fresh_predictions.suggestions.items()
                if ranked
            }

        assert incremental_top1 == fresh_top1


class TestDriftStats:
    def test_counters_and_metrics_registration(self, matcher):
        matcher.predict()
        matcher.apply_delta(
            SchemaDelta(
                (
                    RenameColumn(ref("Orders.qty"), "quantity_sold"),
                    RetypeColumn(ref("Orders.order_date"), DataType.STRING),
                )
            )
        )
        matcher.predict()
        stats = matcher.drift_stats.as_dict()
        assert stats["deltas_applied"] == 1
        assert stats["columns_renamed"] == 1
        assert stats["columns_retyped"] == 1
        assert stats["pairs_rescored"] + stats["pairs_reused"] > 0
        assert "drift" in matcher.metrics.snapshot()


class TestAddDrift:
    def test_full_product_added_source_is_scored_against_every_target(
        self, matcher, target_schema
    ):
        matcher.predict()
        new_ref = ref("Orders.units_shipped")
        report = matcher.apply_delta(
            SchemaDelta((AddColumn("Orders", Attribute("units_shipped", DataType.INTEGER)),))
        )
        new_index = matcher.store.source_index(new_ref)
        assert report.regenerated_sources == [new_index]
        assert report.store.pairs_added == target_schema.num_attributes
        predictions = matcher.predict()
        store = matcher.store
        rows = store.pairs_of_source_index(new_index)
        np.testing.assert_array_equal(
            np.sort(store.pair_target[rows]), np.arange(target_schema.num_attributes)
        )
        # Before the first label BERT skips the dtype-incompatible rows.
        scored = rows[matcher.adjuster.dtype_mask()[rows]]
        assert 0 < scored.size < rows.size
        assert store.current[scored].all() and not np.isnan(store.features[scored]).any()
        bert = matcher.feature_names.index("bert")
        static = [column for column in range(len(matcher.feature_names)) if column != bert]
        assert not np.isnan(store.features[np.ix_(rows, static)]).any()
        assert len(predictions.suggestions[new_ref]) == matcher.config.top_k


class TestSessionDrift:
    def test_session_completes_after_mid_run_drift(
        self, source_schema, target_schema, config, tiny_artifacts, ground_truth
    ):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        delta = SchemaDelta(
            (
                RenameColumn(ref("Orders.qty"), "quantity_sold"),
                RenameColumn(ref("Item.ean"), "barcode"),
            )
        )
        with MatchingSession(matcher, oracle) as session:
            session.predict()
            report = session.apply_delta(delta)
            result = session.run()
        assert result.completed
        remapped = remap_ground_truth(ground_truth, report.effect)
        assert result.result.accuracy_against(remapped) == pytest.approx(1.0)

    def test_oracle_truth_follows_rename(self, ground_truth, target_schema):
        oracle = GroundTruthOracle(ground_truth, target_schema)
        from repro.schema import apply_delta as apply_schema_delta
        from ..conftest import make_source_schema

        _, effect = apply_schema_delta(
            make_source_schema(),
            SchemaDelta((RenameColumn(ref("Orders.qty"), "quantity_sold"),)),
        )
        oracle.apply_drift(effect)
        assert oracle.has_truth(ref("Orders.quantity_sold"))
        assert not oracle.has_truth(ref("Orders.qty"))
        assert oracle.label(ref("Orders.quantity_sold")) == ground_truth[
            ref("Orders.qty")
        ]
