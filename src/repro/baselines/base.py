"""Shared infrastructure for the six state-of-the-art baselines (Section III).

Every baseline produces a dense score matrix of shape
``(num source attributes, num target attributes)`` -- "all the methods that
we study generate a matching score for each pair of attributes".  Baselines
may expose named hyper-parameter *variants*; the evaluation harness grid
searches them and reports the best, exactly as the paper tunes its baselines
("we search the best-performing weights ... and report only the best
results").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..schema.model import AttributeRef, Schema
from ..text.abbrev import expand_tokens
from ..text.tokenize import split_identifier


@dataclass(frozen=True)
class AttributeText:
    """Precomputed textual forms of one attribute, shared by all baselines."""

    ref: AttributeRef
    name: str
    canonical: str  # separator-free lower-case name
    tokens: tuple[str, ...]
    expanded_tokens: tuple[str, ...]
    description: str
    dtype_value: str


def attribute_texts(schema: Schema) -> list[AttributeText]:
    """Textual views for every attribute of a schema, in schema order."""
    texts: list[AttributeText] = []
    for ref, attribute in schema.iter_attributes():
        tokens = tuple(split_identifier(attribute.name))
        texts.append(
            AttributeText(
                ref=ref,
                name=attribute.name,
                canonical="".join(tokens) or attribute.name.lower(),
                tokens=tokens,
                expanded_tokens=tuple(expand_tokens(list(tokens))),
                description=attribute.description,
                dtype_value=attribute.dtype.value,
            )
        )
    return texts


@dataclass
class ScoredMatrix:
    """A baseline's output: the score matrix plus the axis references."""

    scores: np.ndarray
    source_refs: list[AttributeRef]
    target_refs: list[AttributeRef]

    def top_k(self, source: AttributeRef, k: int = 3) -> list[AttributeRef]:
        row = self.source_refs.index(source)
        order = np.argsort(-self.scores[row], kind="stable")[:k]
        return [self.target_refs[int(i)] for i in order]

    def top_k_accuracy(
        self,
        truth: Mapping[AttributeRef, AttributeRef],
        k: int = 3,
        sources: Sequence[AttributeRef] | None = None,
    ) -> float:
        """Fraction of ground-truth sources whose target is in the top-k."""
        source_index = {ref: i for i, ref in enumerate(self.source_refs)}
        considered = sources if sources is not None else list(truth)
        considered = [ref for ref in considered if ref in truth and ref in source_index]
        if not considered:
            return 0.0
        hits = 0
        for source in considered:
            row = self.scores[source_index[source]]
            order = np.argsort(-row, kind="stable")[:k]
            top = {self.target_refs[int(i)] for i in order}
            if truth[source] in top:
                hits += 1
        return hits / len(considered)


class Baseline:
    """Base class for the six reimplemented matchers."""

    name: str = "baseline"
    #: True for learners that consume ground-truth training examples (LSD).
    requires_training: bool = False

    def variants(self) -> dict[str, dict]:
        """Named hyper-parameter settings to grid search (default: one)."""
        return {"default": {}}

    def score_matrix(
        self,
        source_schema: Schema,
        target_schema: Schema,
        **params,
    ) -> ScoredMatrix:
        raise NotImplementedError

    def _empty_matrix(
        self, source_schema: Schema, target_schema: Schema
    ) -> ScoredMatrix:
        source_refs = source_schema.attribute_refs()
        target_refs = target_schema.attribute_refs()
        return ScoredMatrix(
            scores=np.zeros((len(source_refs), len(target_refs))),
            source_refs=source_refs,
            target_refs=target_refs,
        )


@dataclass
class TrainTestSplit:
    """A ground-truth split for training-based baselines (LSD)."""

    train: dict[AttributeRef, AttributeRef] = field(default_factory=dict)
    test: dict[AttributeRef, AttributeRef] = field(default_factory=dict)


def split_ground_truth(
    truth: Mapping[AttributeRef, AttributeRef],
    train_fraction: float = 0.5,
    seed: int = 0,
) -> TrainTestSplit:
    """Random train/test split of the ground truth (LSD uses 50/50, §III)."""
    rng = np.random.default_rng(seed)
    sources = sorted(truth, key=str)
    order = rng.permutation(len(sources))
    cut = int(round(train_fraction * len(sources)))
    split = TrainTestSplit()
    for position, index in enumerate(order):
        source = sources[int(index)]
        if position < cut:
            split.train[source] = truth[source]
        else:
            split.test[source] = truth[source]
    return split
