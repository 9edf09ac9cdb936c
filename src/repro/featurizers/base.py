"""Featurizer interface and the attribute-pair view it consumes.

Step 1 of the LSM pipeline (Fig. 2) converts candidate pairs into numerical
vectors through a *modular* featurizer pipeline.  Every featurizer maps a
candidate pair to a similarity score in ``[0, 1]``; the pipeline stacks the
scores into the feature matrix the meta-learner trains on.

The module also defines :class:`AttributePairView` -- a flyweight exposing
exactly the fields featurizers need (names, descriptions, tokens) without
tying them to schema internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

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


class Featurizer(Protocol):
    """One similarity signal over candidate pairs.

    ``score_pairs`` must be pure given the featurizer's current state;
    ``update`` lets stateful featurizers (the BERT featurizer) learn from the
    labels collected so far and is a no-op by default.
    """

    @property
    def name(self) -> str: ...

    def score_pairs(self, pairs: Sequence[AttributePairView]) -> np.ndarray: ...

    def update(
        self,
        labeled_pairs: Sequence[AttributePairView],
        labels: Sequence[int],
    ) -> None: ...


@dataclass
class StaticFeaturizer:
    """Convenience base for stateless featurizers (update is a no-op).

    ``score_pairs`` is pure: it keeps no cache.  Reuse across re-predicts
    lives in the candidate store's per-row feature columns, which score only
    new or invalidated rows.
    """

    def update(
        self,
        labeled_pairs: Sequence[AttributePairView],
        labels: Sequence[int],
    ) -> None:
        """Stateless featurizers ignore labels."""

    def score_pairs(self, pairs: Sequence[AttributePairView]) -> np.ndarray:
        return np.fromiter(
            (self._score(pair) for pair in pairs), dtype=np.float64, count=len(pairs)
        )

    def _score(self, pair: AttributePairView) -> float:
        raise NotImplementedError
