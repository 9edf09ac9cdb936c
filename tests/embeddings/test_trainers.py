"""Tests for the PPMI-SVD embedding trainer."""

import numpy as np
import pytest

from repro.embeddings import PpmiConfig, train_ppmi_embeddings


def synonym_corpus():
    """Corpus with two 3-member synonym groups co-occurring pairwise.

    Three members per group give every pair of synonyms a *shared* context
    word (the third member), so both first-order and second-order similarity
    point the same way -- like the real lexicon templates.
    """
    groups = [["alpha", "beta", "epsilon"], ["gamma", "delta", "zeta"]]
    sentences = []
    for _ in range(30):
        for group in groups:
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    sentences.append([a, b])
                    sentences.append([b, a])
    return sentences


class TestPpmiTrainer:
    def test_synonym_geometry(self):
        embeddings = train_ppmi_embeddings(
            synonym_corpus(), config=PpmiConfig(dim=8)
        )
        same_group = embeddings.similarity(["alpha"], ["beta"])
        cross_group = embeddings.similarity(["alpha"], ["delta"])
        assert same_group > cross_group

    def test_deterministic(self):
        config = PpmiConfig(dim=8)
        a = train_ppmi_embeddings(synonym_corpus(), config=config)
        b = train_ppmi_embeddings(synonym_corpus(), config=config)
        assert np.allclose(a.input_table, b.input_table)

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError):
            train_ppmi_embeddings([["one"]], config=PpmiConfig(dim=4))

    def test_dim_padding_when_rank_deficient(self):
        corpus = [["a", "b"], ["b", "c"], ["c", "a"]] * 5
        embeddings = train_ppmi_embeddings(corpus, config=PpmiConfig(dim=16))
        assert embeddings.dim == 16

    def test_padding_row_stays_zero(self):
        embeddings = train_ppmi_embeddings(synonym_corpus(), config=PpmiConfig(dim=8))
        assert np.allclose(
            embeddings.input_table[embeddings.vocab.padding_row], 0.0
        )
