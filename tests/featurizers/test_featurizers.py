"""Tests for the lexical, embedding and pipeline featurizers."""

import numpy as np
import pytest

from repro.featurizers import (
    AttributePairView,
    EmbeddingFeaturizer,
    FeaturizerPipeline,
    LexicalFeaturizer,
    PairBatch,
    make_pair_view,
)
from repro.schema import AttributeRef


def view(source_schema, target_schema, source, target, use_descriptions=True):
    return make_pair_view(
        source_schema,
        target_schema,
        AttributeRef.parse(source),
        AttributeRef.parse(target),
        use_descriptions=use_descriptions,
    )


class TestMakePairView:
    def test_fields(self, source_schema, target_schema):
        v = view(source_schema, target_schema, "Orders.qty", "Transaction.quantity")
        assert v.source_name == "qty"
        assert v.target_name == "quantity"
        assert v.target_tokens == ("quantity",)
        assert v.target_description  # tiny target schema has descriptions

    def test_description_ablation(self, source_schema, target_schema):
        v = view(
            source_schema,
            target_schema,
            "Orders.disc",
            "Transaction.price_change_percentage",
            use_descriptions=False,
        )
        assert v.source_description == ""
        assert v.target_description == ""


class TestLexicalFeaturizer:
    def test_abbreviation_scores_one(self, source_schema, target_schema):
        featurizer = LexicalFeaturizer()
        v = view(source_schema, target_schema, "Orders.qty", "Transaction.quantity")
        assert featurizer.score_pairs(PairBatch.from_views([v]))[0] == pytest.approx(1.0)

    def test_unrelated_scores_low(self, source_schema, target_schema):
        featurizer = LexicalFeaturizer()
        v = view(source_schema, target_schema, "Orders.qty", "Brand.brand_name")
        assert featurizer.score_pairs(PairBatch.from_views([v]))[0] < 0.5

    def test_separator_insensitive(self, source_schema, target_schema):
        featurizer = LexicalFeaturizer()
        a = view(source_schema, target_schema, "Item.brand_name", "Brand.brand_name")
        assert featurizer.score_pairs(PairBatch.from_views([a]))[0] == pytest.approx(1.0)

    def test_scores_are_pure(self, source_schema, target_schema):
        """No cache: a pair scores the same alone, repeated or in a batch,
        and the featurizer keeps no per-pair state."""
        featurizer = LexicalFeaturizer()
        v = view(source_schema, target_schema, "Orders.qty", "Transaction.quantity")
        w = view(source_schema, target_schema, "Item.ean", "Brand.brand_name")
        state = dict(vars(featurizer))
        first = featurizer.score_pairs(PairBatch.from_views([v]))
        batch = featurizer.score_pairs(PairBatch.from_views([w, v, v]))
        assert np.array_equal(batch[1:], np.repeat(first, 2))
        assert batch[0] == featurizer.score_pairs(PairBatch.from_views([w]))[0]
        assert vars(featurizer) == state

    def test_update_is_noop(self, source_schema, target_schema):
        featurizer = LexicalFeaturizer()
        v = view(source_schema, target_schema, "Orders.qty", "Transaction.quantity")
        featurizer.update([v], [1])  # must not raise


class TestEmbeddingFeaturizer:
    def test_scores_in_unit_interval(self, source_schema, target_schema, tiny_artifacts):
        featurizer = EmbeddingFeaturizer(embeddings=tiny_artifacts.embeddings)
        views = [
            view(source_schema, target_schema, "Orders.qty", "Transaction.quantity"),
            view(source_schema, target_schema, "Orders.qty", "Brand.brand_name"),
        ]
        scores = featurizer.score_pairs(PairBatch.from_views(views))
        assert ((0.0 <= scores) & (scores <= 1.0)).all()

    def test_synonym_beats_unrelated(self, source_schema, target_schema, tiny_artifacts):
        featurizer = EmbeddingFeaturizer(embeddings=tiny_artifacts.embeddings)
        synonym = view(
            source_schema,
            target_schema,
            "Orders.disc",
            "Transaction.price_change_percentage",
            use_descriptions=False,
        )
        unrelated = view(
            source_schema,
            target_schema,
            "Orders.disc",
            "Transaction.transaction_date",
            use_descriptions=False,
        )
        scores = featurizer.score_pairs(PairBatch.from_views([synonym, unrelated]))
        assert scores[0] > scores[1]

    def test_requires_embeddings(self):
        with pytest.raises((ValueError, TypeError)):
            EmbeddingFeaturizer(embeddings=None)


class TestPipeline:
    def test_feature_matrix_shape(self, source_schema, target_schema, tiny_artifacts):
        pipeline = FeaturizerPipeline(
            [
                LexicalFeaturizer(),
                EmbeddingFeaturizer(embeddings=tiny_artifacts.embeddings),
            ]
        )
        views = [
            view(source_schema, target_schema, "Orders.qty", "Transaction.quantity"),
            view(source_schema, target_schema, "Orders.qty", "Brand.brand_name"),
        ]
        matrix = np.column_stack(
            [
                pipeline.score(featurizer, PairBatch.from_views(views))
                for featurizer in pipeline.featurizers
            ]
        )
        assert matrix.shape == (2, 2)
        assert pipeline.feature_names == ["lexical", "embedding"]
        assert pipeline.stage_calls == {"lexical": 1, "embedding": 1}
        for column, featurizer in enumerate(pipeline.featurizers):
            np.testing.assert_array_equal(
                matrix[:, column], featurizer.score_pairs(PairBatch.from_views(views))
            )

    def test_empty_views(self, tiny_artifacts):
        pipeline = FeaturizerPipeline([LexicalFeaturizer()])
        empty = PairBatch.from_views([])
        assert pipeline.score(pipeline.featurizers[0], empty).shape == (0,)

    def test_rejects_empty_pipeline(self):
        with pytest.raises(ValueError):
            FeaturizerPipeline([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            FeaturizerPipeline([LexicalFeaturizer(), LexicalFeaturizer()])
