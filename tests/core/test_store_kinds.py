"""The artifact store holds per-vertical artefacts only.

A customer's scores and retrieval index are recomputed from the vertical's
artefacts, so nothing keyed by one customer may reach the store: not after
a label update, a schema delta or a re-predict, and not from a second
matcher on a store the first one warmed.
"""

from __future__ import annotations

import pytest

from repro import store
from repro.core import GroundTruthOracle, LearnedSchemaMatcher, LsmConfig, MatchingSession
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import AttributeRef, RenameColumn, SchemaDelta

#: Every kind the library writes: vocabulary, MLM-pretrained MiniBERT,
#: embeddings, the featurizer's ISS pre-training and generic embeddings.
VERTICAL_KINDS = {"vocab", "bert", "embeddings", "bert-pretrain", "generic-emb"}


@pytest.fixture()
def config() -> LsmConfig:
    return LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        max_candidates_per_source=4,
        update_bert_every=1,
        seed=0,
    )


def stored_entries(root) -> dict[str, int]:
    """``{entry file name: mtime_ns}`` of every entry under the store root."""
    return {
        path.name: path.stat().st_mtime_ns
        for path in (root / "v1").iterdir()
        if path.suffix in {".npz", ".json"}
    }


def entry_kind(name: str) -> str:
    """``bert-pretrain-<key>.npz`` -> ``bert-pretrain``."""
    return name.split(".", 1)[0].rsplit("-", 1)[0]


def test_no_customer_entry_reaches_the_store(
    tiny_artifacts, source_schema, target_schema, ground_truth, config, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    matcher = LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )
    oracle = GroundTruthOracle(dict(ground_truth), target_schema)
    with MatchingSession(matcher, oracle, max_iterations=2) as session:
        session.run()
        session.apply_delta(
            SchemaDelta((RenameColumn(AttributeRef("Orders", "qty"), "quantity_sold"),))
        )
        session.predict()
        # Pretraining plus at least one label update.
        assert matcher.bert_featurizer.engine.stats.invalidations >= 2

    entries = stored_entries(tmp_path)
    kinds = {entry_kind(name) for name in entries}
    assert "bert-pretrain" in kinds
    assert kinds <= VERTICAL_KINDS, sorted(kinds - VERTICAL_KINDS)

    writes = store.cache_stats().writes
    with LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    ) as again:
        again.predict()
        source = AttributeRef("Orders", "disc")
        again.record_match(source, ground_truth[source])
        again.predict()
    assert store.cache_stats().writes == writes
    assert stored_entries(tmp_path) == entries
