"""MiniBERT language model: vocab, tokeniser, encoder, MLM pre-training."""

from .vocab import (
    CLS_TOKEN,
    MASK_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    WordPieceVocab,
    build_vocab,
)
from .tokenizer import EncodedPair, WordPieceTokenizer, encoded_length, stack_encoded
from .encode_plane import (
    AttributeTokenStore,
    BatchHalves,
    EncodePlane,
    EncodeStats,
    LruDict,
    PairHalves,
    truncate_pair_lengths,
)
from .config import BertConfig
from .attention import MultiHeadSelfAttention, UnfusedAttentionReference
from .encoder import TransformerBlock
from .bert import MiniBert
from .mlm import (
    IGNORE_INDEX,
    MlmHead,
    MlmTrainResult,
    mask_tokens,
    mask_tokens_with_redraw,
    pretrain_mlm,
)

__all__ = [
    "AttributeTokenStore",
    "BatchHalves",
    "BertConfig",
    "CLS_TOKEN",
    "EncodePlane",
    "EncodeStats",
    "EncodedPair",
    "IGNORE_INDEX",
    "LruDict",
    "MASK_TOKEN",
    "MiniBert",
    "MlmHead",
    "MlmTrainResult",
    "MultiHeadSelfAttention",
    "PAD_TOKEN",
    "PairHalves",
    "SEP_TOKEN",
    "SPECIAL_TOKENS",
    "TransformerBlock",
    "UNK_TOKEN",
    "UnfusedAttentionReference",
    "WordPieceTokenizer",
    "WordPieceVocab",
    "build_vocab",
    "encoded_length",
    "mask_tokens",
    "mask_tokens_with_redraw",
    "pretrain_mlm",
    "stack_encoded",
    "truncate_pair_lengths",
]
