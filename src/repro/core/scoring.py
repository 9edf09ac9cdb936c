"""Post-prediction score adjustments (Section IV-D).

Two schema-level corrections are applied to the meta-learner's raw
probabilities:

* **Data-type filter** -- ``score <- 0`` when the pair's data types are
  incompatible ("in nearly all correct matches, the source and target
  attributes have compatible data types").
* **New-entity penalty** -- ``score <- z * score`` with
  ``z = 1 / (1 + log(1 + sp(a_t, M)))`` when the candidate target's entity is
  not yet part of the matched set ``M``; ``sp`` is the shortest-path distance
  on the ISS join graph.  The heuristic keeps the mapping concentrated on a
  concise, join-connected subset of the ISS.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..schema.graph import JoinGraph
from ..schema.model import AttributeRef, DataType, Schema
from .candidates import CandidateStore

#: One integer per :attr:`DataType.family`, so the mask is an integer
#: compare per pair; :meth:`DataType.is_compatible` is the rule it encodes.
_FAMILY_CODES = {
    family: code
    for code, family in enumerate(sorted({dtype.family for dtype in DataType}))
}
_UNKNOWN_CODE = _FAMILY_CODES[DataType.UNKNOWN.family]


def dtype_family_codes(schema: Schema, refs: list[AttributeRef]) -> np.ndarray:
    """The dtype family code of each ref's attribute, in ``refs`` order."""
    return np.fromiter(
        (_FAMILY_CODES[schema.attribute(ref).dtype.family] for ref in refs),
        dtype=np.int8,
        count=len(refs),
    )


def dtype_compatibility_mask(
    store: CandidateStore, target_codes: np.ndarray | None = None
) -> np.ndarray:
    """Boolean mask, True where the pair's data types are compatible.

    Types are compatible when their families match or either is
    ``UNKNOWN``.  ``target_codes`` (from :func:`dtype_family_codes`) lets a
    caller reuse the target side, which no schema delta changes.
    """
    if target_codes is None:
        target_codes = dtype_family_codes(store.target_schema, store.target_refs)
    source = dtype_family_codes(store.source_schema, store.source_refs)[
        store.pair_source
    ]
    target = target_codes[store.pair_target]
    return (source == target) | (source == _UNKNOWN_CODE) | (target == _UNKNOWN_CODE)


def entity_penalty(distance: int) -> float:
    """The paper's penalisation term ``z = 1 / (1 + log(1 + sp))``."""
    return 1.0 / (1.0 + np.log1p(float(distance)))


class ScoreAdjuster:
    """Applies the dtype filter and the new-entity penalty to raw scores."""

    def __init__(
        self,
        store: CandidateStore,
        target_schema: Schema,
        apply_dtype_filter: bool = True,
        apply_entity_penalty: bool = True,
    ) -> None:
        self.store = store
        self.apply_dtype_filter = apply_dtype_filter
        self.apply_entity_penalty = apply_entity_penalty
        self._dtype_mask: np.ndarray | None = None
        self._dtype_mask_key: tuple[bytes, bytes] | None = None
        self._join_graph = JoinGraph(target_schema) if apply_entity_penalty else None
        self._target_entities = [ref.entity for ref in store.target_refs]
        self._target_dtype_codes = dtype_family_codes(
            store.target_schema, store.target_refs
        )

    def _pair_fingerprint(self) -> tuple[bytes, bytes]:
        """Identity of the store's current pair layout (order-sensitive)."""
        return (self.store.pair_source.tobytes(), self.store.pair_target.tobytes())

    def dtype_mask(self) -> np.ndarray:
        """Dtype mask aligned with the store's current pair layout.

        True where the pair's dtypes are compatible; :meth:`adjust` zeroes
        the other rows, and the matcher leaves them out of BERT's passes
        before the first label.  Keyed on the pair index arrays themselves,
        not their length: a count-preserving mutation (prune one pair,
        ``ensure_pair`` another) changes which pair sits at each row, and a
        length-keyed cache would silently zero the wrong candidates.
        """
        key = self._pair_fingerprint()
        if self._dtype_mask is None or key != self._dtype_mask_key:
            self._dtype_mask = dtype_compatibility_mask(
                self.store, self._target_dtype_codes
            )
            self._dtype_mask_key = key
        return self._dtype_mask

    def invalidate_dtype_mask(self) -> None:
        """Force a dtype-mask rebuild on the next :meth:`adjust`.

        The mask key is the pair *index* arrays, which cannot see a retyped
        column: the pair layout is unchanged while the compatibility matrix
        is not.  Schema drift must call this explicitly or retyped columns
        keep filtering against their old dtype.
        """
        self._dtype_mask = None
        self._dtype_mask_key = None

    def adjust(self, scores: np.ndarray) -> np.ndarray:
        """Return the adjusted copy of ``scores`` (input is not mutated)."""
        adjusted = scores.astype(np.float64).copy()
        if self.apply_dtype_filter:
            adjusted[~self.dtype_mask()] = 0.0
        if self._join_graph is not None:
            matched_entities = self.store.matched_target_entities()
            if matched_entities:
                penalties = {
                    entity: entity_penalty(
                        self._join_graph.distance_to_set(entity, matched_entities)
                    )
                    for entity in set(self._target_entities)
                    if entity not in matched_entities
                }
                if penalties:
                    factor = np.asarray(
                        [
                            penalties.get(self._target_entities[int(t)], 1.0)
                            for t in self.store.pair_target
                        ]
                    )
                    adjusted *= factor
        if obs.enabled() and self.apply_dtype_filter:
            mask = self.dtype_mask()
            obs.check(
                "scoring.dtype_mask_aligned",
                mask.shape[0] == self.store.num_pairs,
                mask_rows=int(mask.shape[0]),
                num_pairs=int(self.store.num_pairs),
            )
            incompatible_nonzero = int(np.count_nonzero(adjusted[~mask]))
            obs.check(
                "scoring.incompatible_pairs_zeroed",
                incompatible_nonzero == 0,
                nonzero=incompatible_nonzero,
            )
        return adjusted
