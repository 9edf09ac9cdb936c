"""Tests for LsmConfig validation and artefact building/caching."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import store
from repro.core import ArtifactConfig, LsmConfig, build_artifacts
from repro.core.artifacts import initialize_token_embeddings
from repro.core.matcher import LABELS_PER_ITERATION
from repro.embeddings.ppmi import PpmiConfig
from repro.eval import experiments
from repro.eval.experiments import generic_embeddings_for
from repro.nn.stats import TrainStats


class TestLsmConfig:
    def test_defaults_match_paper(self):
        config = LsmConfig()
        assert config.top_k == 3
        assert LABELS_PER_ITERATION == 1
        assert config.selection_strategy == "least_confident_anchor"
        assert config.apply_dtype_filter and config.apply_entity_penalty

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 0},
            {"selection_strategy": "nope"},
            {"selection_strategy": "Least_Confident_Anchor"},
            {"use_bert": False, "use_embedding": False, "use_lexical": False},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LsmConfig(**kwargs)


class TestArtifacts:
    def test_build_without_cache(self, target_schema):
        config = ArtifactConfig(
            vocab_size=300,
            hidden_size=16,
            num_layers=1,
            num_heads=2,
            intermediate_size=32,
            mlm_epochs=1,
            ppmi=PpmiConfig(dim=16),
        )
        artifacts = build_artifacts(target_schema, config=config, use_cache=False)
        assert len(artifacts.tokenizer.vocab) > 10
        assert artifacts.bert.config.hidden_size == 16
        assert artifacts.embeddings.dim == 16
        assert artifacts.corpus

    def test_cache_round_trip(self, target_schema, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = ArtifactConfig(
            vocab_size=300,
            hidden_size=16,
            num_layers=1,
            num_heads=2,
            intermediate_size=32,
            mlm_epochs=1,
            ppmi=PpmiConfig(dim=16),
        )
        first = build_artifacts(target_schema, config=config, use_cache=True)
        mlm_stats = TrainStats()
        second = build_artifacts(
            target_schema, config=config, use_cache=True, mlm_stats=mlm_stats
        )
        assert mlm_stats.steps == 0  # loaded, not rebuilt
        assert first.cache_key == second.cache_key
        assert np.allclose(
            first.bert.token_embedding.table.value,
            second.bert.token_embedding.table.value,
        )
        assert np.allclose(first.embeddings.input_table, second.embeddings.input_table)
        # The loaded table gives the trained vectors bit for bit: training
        # and the load read the same word-row weight.
        words = [[word] for word in first.embeddings.vocab.words]
        np.testing.assert_array_equal(
            second.embeddings.phrase_matrix(words), first.embeddings.phrase_matrix(words)
        )

    def test_generic_embeddings_warm_load_equals_cold_build(
        self, target_schema, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = SimpleNamespace(target=target_schema)
        loaded = []
        for expect_cold in (True, False):
            monkeypatch.setattr(experiments, "_GENERIC_EMBEDDINGS", {})
            writes = store.cache_stats().writes
            loaded.append(generic_embeddings_for(task))
            assert (store.cache_stats().writes > writes) == expect_cold
        cold, warm = loaded
        words = [[word] for word in cold.vocab.words]
        np.testing.assert_array_equal(warm.phrase_matrix(words), cold.phrase_matrix(words))

    def test_generic_embeddings_key_covers_the_ppmi_constants(
        self, target_schema, tmp_path, monkeypatch
    ):
        """A stored table trained under another word-row weight is not
        loaded: the key hashes ``PpmiConfig().describe()``."""
        from repro.embeddings import subword

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = SimpleNamespace(target=target_schema)
        for weight in (subword.WORD_ROW_WEIGHT, 0.5):
            monkeypatch.setattr(subword, "WORD_ROW_WEIGHT", weight)
            monkeypatch.setattr(experiments, "_GENERIC_EMBEDDINGS", {})
            writes = store.cache_stats().writes
            generic_embeddings_for(task)
            assert store.cache_stats().writes > writes, "a stale table was loaded"

    def test_token_embedding_seeding(self, tiny_artifacts):
        from repro.lm import BertConfig, MiniBert

        vocab = tiny_artifacts.tokenizer.vocab
        model = MiniBert(
            BertConfig(vocab_size=len(vocab), hidden_size=32, num_layers=1, num_heads=2,
                       intermediate_size=32, max_position=32),
            seed=9,
        )
        seeded = initialize_token_embeddings(model, vocab, tiny_artifacts.embeddings)
        assert seeded > len(vocab) * 0.5
        # Seeded rows have the canonical norm.
        norms = np.linalg.norm(model.token_embedding.table.value, axis=1)
        non_special = norms[5:]
        assert np.isclose(non_special[non_special > 0.05], 0.16, atol=0.02).mean() > 0.9
