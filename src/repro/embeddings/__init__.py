"""FastText-style subword embeddings, trained from scratch by PPMI + SVD."""

from .subword import (
    SubwordEmbeddings,
    SubwordVocab,
    character_ngrams_of_word,
    fnv1a,
)
from .ppmi import PpmiConfig, train_ppmi_embeddings

__all__ = [
    "PpmiConfig",
    "train_ppmi_embeddings",
    "SubwordEmbeddings",
    "SubwordVocab",
    "character_ngrams_of_word",
    "fnv1a",
]
