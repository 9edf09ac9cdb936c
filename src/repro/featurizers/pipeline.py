"""The modular featurization pipeline (Step 1 of the LSM matching loop).

Orders any number of featurizers, one feature column each; the candidate
store holds the columns and the matcher fills their dirty rows through
:meth:`FeaturizerPipeline.score`.  The design mirrors
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

from .base import AttributePairView, Featurizer, PairBatch


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
        #: ``score`` invocations per featurizer.
        self.stage_calls: dict[str, int] = {name: 0 for name in names}

    @property
    def feature_names(self) -> list[str]:
        return [featurizer.name for featurizer in self.featurizers]

    def score(self, featurizer: Featurizer, batch: PairBatch) -> np.ndarray:
        """One featurizer's column over ``batch``, timed into its stage."""
        start = time.perf_counter()
        column = featurizer.score_pairs(batch)
        self.stage_seconds[featurizer.name] += time.perf_counter() - start
        self.stage_calls[featurizer.name] += 1
        return column

    def update(
        self,
        labeled_pairs: Sequence[AttributePairView],
        labels: Sequence[int],
    ) -> None:
        """Propagate the current labels to every stateful featurizer."""
        for featurizer in self.featurizers:
            featurizer.update(labeled_pairs, labels)

    def timings(self) -> dict[str, float]:
        """Per-featurizer cumulative seconds (copy; safe to mutate)."""
        return dict(self.stage_seconds)

    def close(self) -> None:
        """Release any featurizer-held resources (scoring threads)."""
        for featurizer in self.featurizers:
            closer = getattr(featurizer, "close", None)
            if callable(closer):
                closer()
