"""Per-pair reference scoring: the oracle for the columnar featurizers.

Featurizers score a :class:`~repro.featurizers.base.PairBatch` of
per-attribute tables.  These functions score one
:class:`~repro.featurizers.base.AttributePairView` at a time the plain way
-- a cosine of two phrase vectors, an LCS of two canonical names, BERT
halves truncated by the pop loop and a fingerprint fed piecewise to blake2b
-- so a column computed from tables must equal them bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.featurizers import BertFeaturizer, EmbeddingFeaturizer, LexicalFeaturizer
from repro.lm.encode_plane import BatchHalves, PairHalves
from repro.text.metrics import lcs_ratio


def lexical_score(view) -> float:
    source = "".join(view.source_tokens) or view.source_name.lower()
    target = "".join(view.target_tokens) or view.target_name.lower()
    return lcs_ratio(source, target)


def embedding_score(embeddings, view) -> float:
    cosine = embeddings.similarity(list(view.source_tokens), list(view.target_tokens))
    return (cosine + 1.0) / 2.0


def bert_halves(plane, view) -> PairHalves:
    """One pair's halves: per-pair token lookups, the pop-loop truncation
    and a digest fed the assembled row piece by piece."""
    ids_a = plane.tokens.ids_for(view.source_name, view.source_description)
    ids_b = plane.tokens.ids_for(view.target_name, view.target_description)
    len_a, len_b = ids_a.size, ids_b.size
    while len_a + len_b > plane.max_length - 3:
        if len_a >= len_b:
            len_a -= 1
        else:
            len_b -= 1
    vocab = plane.tokenizer.vocab
    pad = plane.max_length - (len_a + len_b + 3)
    word = lambda value: np.int64(value).tobytes()  # noqa: E731
    digest = hashlib.blake2b(digest_size=16)
    for piece in (
        word(vocab.cls_id), ids_a[:len_a].tobytes(), word(vocab.sep_id),
        ids_b[:len_b].tobytes(), word(vocab.sep_id), word(vocab.pad_id) * pad,
        b"\x00", bytes(8 * (len_a + 2)), word(1) * (len_b + 1), bytes(8 * pad),
    ):
        digest.update(piece)
    return PairHalves(ids_a, ids_b, len_a, len_b, digest.digest())


def reference_column(featurizer, views) -> np.ndarray:
    """``featurizer``'s column over ``views``, one pair at a time."""
    if isinstance(featurizer, LexicalFeaturizer):
        return np.array([lexical_score(view) for view in views], dtype=np.float64)
    if isinstance(featurizer, EmbeddingFeaturizer):
        embeddings = featurizer.embeddings
        return np.array([embedding_score(embeddings, v) for v in views], dtype=np.float64)
    assert isinstance(featurizer, BertFeaturizer)
    if not views:
        return np.zeros(0, dtype=np.float64)
    plane = featurizer.encode_plane
    halves = BatchHalves.of_pairs([bert_halves(plane, view) for view in views])
    return featurizer.engine.score_halves(halves, plane)
