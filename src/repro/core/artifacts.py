"""Per-vertical pre-trained artefacts: corpus, vocab, MiniBERT, embeddings.

The paper pre-trains once per ISS ("per vertical") and reuses the result for
every customer.  :func:`build_artifacts` performs that step offline: it
assembles the synthetic domain corpus from the ISS plus the built-in lexicon,
learns a WordPiece vocabulary, MLM-pre-trains MiniBERT, and trains the
FastText-style subword embeddings.  Results are cached on disk keyed by the
content of all inputs, so repeated experiments over the same ISS pay the
cost once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..embeddings.ppmi import PpmiConfig, train_ppmi_embeddings
from ..embeddings.subword import SubwordEmbeddings, SubwordVocab
from ..lm.bert import MiniBert
from ..lm.config import BertConfig
from ..lm.mlm import pretrain_mlm
from ..lm.tokenizer import WordPieceTokenizer
from ..lm.vocab import WordPieceVocab, build_vocab
from ..nn.serialize import load_state_dict, state_dict
from ..nn.stats import TrainStats
from ..schema.model import Schema
from .. import store as cache
from ..text.corpus import build_corpus
from ..text.lexicon import SynonymLexicon

#: MLM pre-training learning rate.
MLM_LR = 5e-4
#: MLM pre-training truncates corpus sentences to this many tokens.
MLM_MAX_LENGTH = 24


@dataclass
class ArtifactConfig:
    """Sizing/training knobs for the per-vertical artefacts."""

    vocab_size: int = 1500
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    intermediate_size: int = 128
    max_position: int = 64
    mlm_epochs: int = 2
    mlm_batch_size: int = 32
    ppmi: PpmiConfig = field(default_factory=PpmiConfig)
    seed: int = 0

    def bert_config(self, vocab_size: int) -> BertConfig:
        return BertConfig(
            vocab_size=vocab_size,
            hidden_size=self.hidden_size,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            intermediate_size=self.intermediate_size,
            max_position=self.max_position,
        )

    def describe(self) -> dict:
        """Every value the build reads, for the artefact content key."""
        payload = self.__dict__.copy()
        payload["mlm_lr"] = MLM_LR
        payload["mlm_max_length"] = MLM_MAX_LENGTH
        payload["ppmi"] = self.ppmi.describe()
        return payload


@dataclass
class DomainArtifacts:
    """Everything LSM needs that depends only on the ISS (not the customer)."""

    tokenizer: WordPieceTokenizer
    bert: MiniBert
    embeddings: SubwordEmbeddings
    corpus: list[list[str]]
    cache_key: str


def build_artifacts(
    target_schema: Schema,
    config: ArtifactConfig | None = None,
    lexicon: SynonymLexicon | None = None,
    use_cache: bool = True,
    mlm_stats: TrainStats | None = None,
) -> DomainArtifacts:
    """Build (or load from cache) the per-vertical pre-trained artefacts.

    ``mlm_stats`` (a :class:`repro.nn.TrainStats`) accumulates the MLM
    pre-training stage timings when the artefacts are built rather than
    loaded from cache.
    """
    config = config or ArtifactConfig()
    corpus = build_corpus(
        schemata=[target_schema], lexicon=lexicon, seed=config.seed
    )
    key = cache.content_key(
        "artifacts-v2", target_schema.name, corpus, config.describe()
    )

    vocab: WordPieceVocab | None = None
    bert: MiniBert | None = None
    embeddings: SubwordEmbeddings | None = None
    if use_cache:
        vocab_payload = cache.load_json("vocab", key)
        bert_state = cache.load_arrays("bert", key)
        embedding_state = cache.load_arrays("embeddings", key)
        if vocab_payload is not None and bert_state is not None and embedding_state is not None:
            vocab = WordPieceVocab(vocab_payload)
            bert = MiniBert(config.bert_config(len(vocab)), seed=config.seed)
            load_state_dict(bert, bert_state)
            bert.eval()
            embeddings = SubwordEmbeddings(
                SubwordVocab(corpus), embedding_state["input_table"]
            )

    if vocab is None or bert is None or embeddings is None:
        vocab = build_vocab(corpus, target_size=config.vocab_size)
        tokenizer = WordPieceTokenizer(vocab)
        embeddings = train_ppmi_embeddings(corpus, config=config.ppmi)
        bert = MiniBert(config.bert_config(len(vocab)), seed=config.seed)
        initialize_token_embeddings(bert, vocab, embeddings)
        pretrain_mlm(
            bert,
            tokenizer,
            corpus,
            epochs=config.mlm_epochs,
            batch_size=config.mlm_batch_size,
            lr=MLM_LR,
            max_length=MLM_MAX_LENGTH,
            seed=config.seed,
            stats=mlm_stats,
        )
        if use_cache:
            cache.save_json("vocab", key, vocab.tokens)
            cache.save_arrays("bert", key, state_dict(bert))
            cache.save_arrays("embeddings", key, {"input_table": embeddings.input_table})

    return DomainArtifacts(
        tokenizer=WordPieceTokenizer(vocab),
        bert=bert,
        embeddings=embeddings,
        corpus=corpus,
        cache_key=key,
    )


def initialize_token_embeddings(
    bert: MiniBert,
    vocab: WordPieceVocab,
    embeddings: SubwordEmbeddings,
    row_norm: float = 0.16,
) -> int:
    """Seed MiniBERT's token-embedding table from the trained word vectors.

    Real BERT arrives with distributionally meaningful token embeddings from
    web-scale pre-training; a randomly initialised MiniBERT does not.  This
    transfers the PPMI geometry (including its synonym structure)
    into the encoder before MLM pre-training refines it.  Rows are scaled to
    ``row_norm`` -- the typical norm of the original random init -- so
    optimisation dynamics stay unchanged.  Returns the number of rows seeded.
    """
    table = bert.token_embedding.table.value
    hidden = table.shape[1]
    seeded = 0
    special = vocab.special_ids()
    for token_id, token in enumerate(vocab.tokens):
        if token_id in special:
            continue
        word = token.removeprefix("##")
        vector = embeddings.word_vector(word)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            continue
        row = np.zeros(hidden, dtype=table.dtype)
        length = min(hidden, vector.shape[0])
        row[:length] = vector[:length] / norm * row_norm
        table[token_id] = row
        seeded += 1
    return seeded


def phrase_matrix(embeddings: SubwordEmbeddings, token_lists: list[list[str]]) -> np.ndarray:
    """Stacked L2-normalised phrase vectors (rows) for fast cosine blocks."""
    return embeddings.phrase_matrix(token_lists)
