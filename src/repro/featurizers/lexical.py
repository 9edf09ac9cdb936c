"""The paper's lexical featurizer (Section IV-C2).

Score of a pair ``(a_s, a_t)``:

    lsc(a_s.name, a_t.name) / min(len(a_s.name), len(a_t.name))

where ``lsc`` is the longest-common-subsequence length.  Normalising by the
*shorter* name makes the metric abbreviation-friendly: every character of
``qty`` appears in order inside ``quantity``, so the pair scores 1.0.

Names are case-folded and separator-stripped before comparison so that
``TotalOrderLineAmount`` and ``total_order_line_amount`` are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..text.metrics import lcs_ratio
from .base import PairBatch


@dataclass
class LexicalFeaturizer:
    """LCS-over-shorter-length lexical similarity."""

    @property
    def name(self) -> str:
        return "lexical"

    def score_pairs(self, batch: PairBatch) -> np.ndarray:
        """LCS once per distinct ``(canonical source, canonical target)``."""
        if not len(batch):
            return np.zeros(0, dtype=np.float64)
        sources, targets = batch.sources.canonical, batch.targets.canonical
        source_rows, target_rows, inverse = batch.distinct_pairs(sources, targets)
        values = np.fromiter(
            (
                lcs_ratio(sources[source], targets[target])
                for source, target in zip(source_rows.tolist(), target_rows.tolist())
            ),
            dtype=np.float64,
            count=source_rows.size,
        )
        return values[inverse]
