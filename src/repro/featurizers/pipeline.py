"""The modular featurization pipeline (Step 1 of the LSM matching loop).

Stacks any number of featurizers into a feature matrix.  The design mirrors
the paper's: "a modular featurization pipeline with currently three
featurizers plugged in, but our design allows for easy incorporation of more
featurizers in the future."

The pipeline also keeps per-featurizer wall-clock accounting so the scoring
engine's stage timers extend across the whole featurization step (surfaced
by ``repro engine stats``).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .base import AttributePairView, Featurizer


class FeaturizerPipeline:
    """Ordered collection of featurizers producing one feature column each."""

    def __init__(self, featurizers: Sequence[Featurizer]) -> None:
        if not featurizers:
            raise ValueError("pipeline needs at least one featurizer")
        names = [featurizer.name for featurizer in featurizers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate featurizer names: {names}")
        self.featurizers = list(featurizers)
        #: Cumulative seconds spent inside each featurizer's ``score_pairs``.
        self.stage_seconds: dict[str, float] = {name: 0.0 for name in names}
        #: ``featurize`` invocations per featurizer.
        self.stage_calls: dict[str, int] = {name: 0 for name in names}

    @property
    def feature_names(self) -> list[str]:
        return [featurizer.name for featurizer in self.featurizers]

    @property
    def num_features(self) -> int:
        return len(self.featurizers)

    def featurize(self, pairs: Sequence[AttributePairView]) -> np.ndarray:
        """Feature matrix of shape (num_pairs, num_features)."""
        if not pairs:
            return np.zeros((0, self.num_features), dtype=np.float64)
        columns = []
        for featurizer in self.featurizers:
            start = time.perf_counter()
            columns.append(featurizer.score_pairs(pairs))
            self.stage_seconds[featurizer.name] += time.perf_counter() - start
            self.stage_calls[featurizer.name] += 1
        return np.column_stack(columns)

    def update(
        self,
        labeled_pairs: Sequence[AttributePairView],
        labels: Sequence[int],
    ) -> None:
        """Propagate the current labels to every stateful featurizer."""
        for featurizer in self.featurizers:
            featurizer.update(labeled_pairs, labels)

    def invalidate_refs(self, refs: set) -> dict[str, int]:
        """Drop per-featurizer cache entries touching the given refs.

        Schema drift retires refs (renames, drops); each featurizer that
        caches by ref pair must shed those entries.  Returns dropped counts
        by featurizer name (featurizers without ref caches are skipped).
        """
        dropped: dict[str, int] = {}
        if not refs:
            return dropped
        for featurizer in self.featurizers:
            invalidate = getattr(featurizer, "invalidate_refs", None)
            if callable(invalidate):
                dropped[featurizer.name] = int(invalidate(refs))
        return dropped

    def timings(self) -> dict[str, float]:
        """Per-featurizer cumulative seconds (copy; safe to mutate)."""
        return dict(self.stage_seconds)

    def close(self) -> None:
        """Release any featurizer-held resources (scoring threads)."""
        for featurizer in self.featurizers:
            closer = getattr(featurizer, "close", None)
            if callable(closer):
                closer()
