"""Featurizer interface and the columnar pair batch it consumes.

Step 1 of the LSM pipeline (Fig. 2) converts candidate pairs into numerical
vectors through a *modular* set of featurizers.  Every featurizer maps a
candidate pair to a similarity score in ``[0, 1]``; the matcher stores the
scores as the feature columns the meta-learner trains on.

Featurizers score a :class:`PairBatch`: one :class:`AttributeTable` per side
holding the text of each distinct attribute the batch touches, plus per-row
index arrays into the two tables.  Work that depends on one attribute
(tokens, phrase vectors, WordPiece ids) therefore runs once per attribute,
not once per pair it takes part in.  The candidate store builds batches for
the rows being scored (:meth:`repro.core.candidates.CandidateStore.pair_batch`).

The module also defines :class:`AttributePairView` -- the textual view of one
pair -- which the label path (:meth:`repro.featurizers.bert.BertFeaturizer.update`)
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Protocol, Sequence

import numpy as np

from ..schema.model import AttributeRef, Schema
from ..text.tokenize import split_identifier


@dataclass(frozen=True)
class AttributePairView:
    """The textual view of one candidate pair ``(a_s, a_t)``."""

    source_ref: AttributeRef
    target_ref: AttributeRef
    source_name: str
    target_name: str
    source_description: str
    target_description: str
    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]

    @property
    def key(self) -> tuple[AttributeRef, AttributeRef]:
        return (self.source_ref, self.target_ref)


def make_pair_view(
    source_schema: Schema,
    target_schema: Schema,
    source_ref: AttributeRef,
    target_ref: AttributeRef,
    use_descriptions: bool = True,
) -> AttributePairView:
    """Materialise the textual view of a candidate pair.

    ``use_descriptions=False`` implements the paper's description-ablation
    (§V-E): descriptions are blanked for every featurizer at once.
    """
    source = source_schema.attribute(source_ref)
    target = target_schema.attribute(target_ref)
    return AttributePairView(
        source_ref=source_ref,
        target_ref=target_ref,
        source_name=source.name,
        target_name=target.name,
        source_description=source.description if use_descriptions else "",
        target_description=target.description if use_descriptions else "",
        source_tokens=tuple(split_identifier(source.name)),
        target_tokens=tuple(split_identifier(target.name)),
    )


def canonical_name(name: str, tokens: Sequence[str]) -> str:
    """Separator-free lower-case form of an identifier."""
    return "".join(tokens) if tokens else name.lower()


@lru_cache(maxsize=65536)
def _name_words(name: str) -> tuple[tuple[str, ...], str]:
    """A name's ``split_identifier`` tokens and canonical form, memoised:
    the same names recur in every batch of a session."""
    tokens = tuple(split_identifier(name))
    return tokens, canonical_name(name, tokens)


@dataclass(frozen=True)
class AttributeTable:
    """The text of the distinct attributes one side of a batch touches."""

    names: tuple[str, ...]
    #: Blank when the matcher runs without descriptions.
    descriptions: tuple[str, ...]
    #: ``split_identifier`` tokens of each name.
    tokens: tuple[tuple[str, ...], ...]
    #: :func:`canonical_name` of each name.
    canonical: tuple[str, ...]

    @classmethod
    def from_text(
        cls, names: Sequence[str], descriptions: Sequence[str]
    ) -> "AttributeTable":
        words = [_name_words(name) for name in names]
        return cls(
            names=tuple(names),
            descriptions=tuple(descriptions),
            tokens=tuple(tokens for tokens, _ in words),
            canonical=tuple(canonical for _, canonical in words),
        )

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class PairBatch:
    """Candidate pairs as index arrays over two per-side attribute tables.

    Row ``i`` pairs ``sources[source_index[i]]`` with
    ``targets[target_index[i]]``.
    """

    sources: AttributeTable
    targets: AttributeTable
    source_index: np.ndarray
    target_index: np.ndarray

    def __len__(self) -> int:
        return int(self.source_index.size)

    @classmethod
    def from_views(cls, views: Sequence[AttributePairView]) -> "PairBatch":
        """A batch of explicit pairs, one table entry per view and side."""
        return cls(
            sources=AttributeTable.from_text(
                [view.source_name for view in views],
                [view.source_description for view in views],
            ),
            targets=AttributeTable.from_text(
                [view.target_name for view in views],
                [view.target_description for view in views],
            ),
            source_index=np.arange(len(views), dtype=np.intp),
            target_index=np.arange(len(views), dtype=np.intp),
        )

    def distinct_pairs(
        self, source_keys: Sequence[Hashable], target_keys: Sequence[Hashable]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows grouped by ``(source key, target key)``.

        Returns the source and target table entries of each distinct key
        pair and, per row, the position of its pair: a featurizer whose
        score depends only on the keys scores each distinct pair once and
        gathers the column with ``values[inverse]``.
        """
        source_codes, _ = _codes(source_keys)
        target_codes, num_target_codes = _codes(target_keys)
        row_codes = (
            source_codes[self.source_index] * num_target_codes
            + target_codes[self.target_index]
        )
        _, first, inverse = np.unique(row_codes, return_index=True, return_inverse=True)
        return self.source_index[first], self.target_index[first], inverse.reshape(-1)


def _codes(keys: Sequence[Hashable]) -> tuple[np.ndarray, int]:
    """Dense integer code per key (equal keys share a code) and the count."""
    index: dict[Hashable, int] = {}
    codes = np.fromiter(
        (index.setdefault(key, len(index)) for key in keys),
        dtype=np.intp,
        count=len(keys),
    )
    return codes, max(len(index), 1)


class Featurizer(Protocol):
    """One similarity signal over candidate pairs.

    ``score_pairs`` must be pure given the featurizer's current state.  The
    lexical and embedding featurizers have none; BERT's changes only through
    its label update, which the matcher calls directly.
    """

    @property
    def name(self) -> str: ...

    def score_pairs(self, batch: PairBatch) -> np.ndarray: ...
