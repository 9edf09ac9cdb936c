"""LSM featurizers: lexical, word-embedding and fine-tuned BERT."""

from .base import (
    AttributePairView,
    AttributeTable,
    Featurizer,
    PairBatch,
    StaticFeaturizer,
    make_pair_view,
)
from .lexical import LexicalFeaturizer
from .embedding import EmbeddingFeaturizer
from .bert import (
    BertFeaturizer,
    BertFeaturizerConfig,
    MatchingClassifier,
    TrainingSample,
    compute_match_features,
    generate_pretraining_samples,
    score_encoded_batch,
    segment_content_masks,
)
from .pipeline import FeaturizerPipeline

__all__ = [
    "AttributePairView",
    "AttributeTable",
    "BertFeaturizer",
    "BertFeaturizerConfig",
    "EmbeddingFeaturizer",
    "Featurizer",
    "FeaturizerPipeline",
    "LexicalFeaturizer",
    "MatchingClassifier",
    "PairBatch",
    "StaticFeaturizer",
    "TrainingSample",
    "compute_match_features",
    "generate_pretraining_samples",
    "make_pair_view",
    "score_encoded_batch",
    "segment_content_masks",
]
