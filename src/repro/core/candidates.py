"""Candidate-pair store: the candidate pairs between two schemas, with labels.

The preparation phase of the pipeline (Section IV-B) produces the
candidate pairs and initialises each label to -1 (unlabeled).  The store
is built from per-source candidate sets: every target for each source
gives the paper's full product ``P = A_s x A_t``, and the retrieval
layer's top-k gives a blocked subset.  Labels move to 1 (correct match)
or 0 (incorrect) through user feedback.  The store keeps flat numpy index
arrays so the training/prediction phases can slice by label state without
Python loops.  Featurizers score a :class:`PairBatch` built for the rows
being scored (:meth:`CandidateStore.pair_batch`): per-side tables of the
attributes those rows touch plus index arrays into them.  The label path
reads one :class:`AttributePairView` per labeled pair, built from the
current schemas on every read.

After a schema delta the matcher reshapes the drifted sources' pair sets
to fresh candidate sets (:meth:`CandidateStore.apply_candidate_sets_for_sources`).
Two invariants hold through every reshaping:

* feedback is never lost: labeled pairs survive reshaping, and labeling an
  absent pair (``set_positive``/``set_negative``) adds it first;
* labels record their provenance: ``label_explicit`` distinguishes labels
  the user actively produced from the sibling negatives ``set_positive``
  mass-implies, so training can select the informative subset.

The store also carries the featurizers' per-row scores: one float64 column
per featurizer, a ``current`` mask of the rows scored under the BERT model
version ``scored_version``, and a ``dirty`` mask.  A row is dirty when it
is new, re-added, or its source was renamed; every reshaping path carries
the columns along, so a re-predict scores only the dirty rows and the live
rows a model update left stale (see DESIGN.md, "Per-row feature columns").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..featurizers.base import AttributePairView, AttributeTable, PairBatch, make_pair_view
from ..schema.drift import DeltaEffect
from ..schema.model import AttributeRef, Schema

UNLABELED = -1
NEGATIVE = 0
POSITIVE = 1


@dataclass
class StoreDeltaReport:
    """What :meth:`CandidateStore.apply_delta` did, in new-layout indices."""

    #: Source indices (post-delta layout) of columns added by the delta.
    added_sources: list[int] = field(default_factory=list)
    #: Source indices (post-delta layout) of renamed columns.
    renamed_sources: list[int] = field(default_factory=list)
    #: Source indices (post-delta layout) of retyped columns.
    retyped_sources: list[int] = field(default_factory=list)
    #: Refs of dropped columns (they have no post-delta index).
    dropped_sources: list[AttributeRef] = field(default_factory=list)
    pairs_dropped: int = 0
    pairs_added: int = 0
    #: Labels that survived the delta / were lost with dropped columns.
    labels_preserved: int = 0
    labels_dropped: int = 0

    def affected_sources(self) -> list[int]:
        """Post-delta indices whose candidate sets need regeneration."""
        return sorted(
            set(self.added_sources)
            | set(self.renamed_sources)
            | set(self.retyped_sources)
        )


class CandidateStore:
    """All candidate pairs between a source and a target schema."""

    def __init__(
        self,
        source_schema: Schema,
        target_schema: Schema,
        per_source_targets: Sequence[np.ndarray],
        use_descriptions: bool = True,
    ) -> None:
        """Lay out the pairs of the given candidate sets.

        ``per_source_targets[i]`` lists the target indices of source ``i``
        (in any order).  Rows are laid out row-major by ``(source,
        target)``.
        """
        self.source_schema = source_schema
        self.target_schema = target_schema
        self.use_descriptions = use_descriptions

        self.source_refs: list[AttributeRef] = source_schema.attribute_refs()
        self.target_refs: list[AttributeRef] = target_schema.attribute_refs()
        self._source_index = {ref: i for i, ref in enumerate(self.source_refs)}
        self._target_index = {ref: i for i, ref in enumerate(self.target_refs)}

        self.pair_source = np.empty(0, dtype=np.intp)
        self.pair_target = np.empty(0, dtype=np.intp)
        self.labels = np.empty(0, dtype=np.int8)
        #: True where the label came from a direct user action (accept/reject)
        #: rather than the sibling negatives ``set_positive`` mass-implies.
        self.label_explicit = np.empty(0, dtype=bool)
        #: Dense ``(source, target) -> pair id`` lookup, -1 where the pair is
        #: absent.
        self._pair_lookup = np.full(
            (self.num_sources, self.num_targets), -1, dtype=np.int32
        )
        #: Featurizer names of the ``features`` columns (see
        #: :meth:`set_feature_names`).
        self.feature_names: tuple[str, ...] = ()
        #: Per-row feature scores, shape ``(num_pairs, len(feature_names))``.
        self.features = np.empty((0, 0), dtype=np.float64)
        #: The BERT model version the ``current`` rows were scored under
        #: (None: nothing scored yet).  The other featurizers never change,
        #: so only BERT has a version.
        self.scored_version: int | None = None
        #: Rows whose BERT value was scored under ``scored_version``; after
        #: a BERT update every row is stale until it is scored again.
        self.current = np.empty(0, dtype=bool)
        #: Rows whose feature columns must be recomputed.
        self.dirty = np.empty(0, dtype=bool)
        #: Lazily built per-source pair-id lists; invalidated whenever the
        #: pair arrays change shape (candidate sets / ensure_pair).
        self._groups: list[np.ndarray] | None = None
        self.apply_candidate_sets(per_source_targets)

    # -- sizes / lookups ---------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        return self.pair_source.shape[0]

    @property
    def num_sources(self) -> int:
        return len(self.source_refs)

    @property
    def num_targets(self) -> int:
        return len(self.target_refs)

    def source_ref(self, source_index: int) -> AttributeRef:
        return self.source_refs[source_index]

    def target_ref(self, target_index: int) -> AttributeRef:
        return self.target_refs[target_index]

    def source_index(self, ref: AttributeRef) -> int:
        return self._source_index[ref]

    def target_index(self, ref: AttributeRef) -> int:
        return self._target_index[ref]

    def pair_id(self, source: AttributeRef, target: AttributeRef) -> int | None:
        """Flat index of the pair, or None if it was pruned away."""
        pair_id = int(
            self._pair_lookup[self._source_index[source], self._target_index[target]]
        )
        return None if pair_id < 0 else pair_id

    def view(self, pair_id: int) -> AttributePairView:
        """The pair's textual view, read from the current schemas."""
        return make_pair_view(
            self.source_schema,
            self.target_schema,
            self.source_refs[int(self.pair_source[pair_id])],
            self.target_refs[int(self.pair_target[pair_id])],
            use_descriptions=self.use_descriptions,
        )

    def views(self, pair_ids: Iterable[int]) -> list[AttributePairView]:
        return [self.view(int(pair_id)) for pair_id in pair_ids]

    def _table(self, schema: Schema, refs: Sequence[AttributeRef], entries) -> AttributeTable:
        attributes = [schema.attribute(refs[entry]) for entry in entries.tolist()]
        return AttributeTable.from_text(
            [attribute.name for attribute in attributes],
            [a.description if self.use_descriptions else "" for a in attributes],
        )

    def pair_batch(self, rows) -> PairBatch:
        """The featurizers' input for ``rows``: tables cover only the
        attributes those rows touch, so a few dirty rows cost O(their
        attributes), not O(schema)."""
        rows = np.asarray(rows, dtype=np.intp)
        sources, source_index = np.unique(self.pair_source[rows], return_inverse=True)
        targets, target_index = np.unique(self.pair_target[rows], return_inverse=True)
        return PairBatch(
            sources=self._table(self.source_schema, self.source_refs, sources),
            targets=self._table(self.target_schema, self.target_refs, targets),
            source_index=source_index.reshape(-1),
            target_index=target_index.reshape(-1),
        )

    def mark_dirty(self, pair_ids: Iterable[int]) -> None:
        """Mark ``pair_ids`` dirty: their feature columns were scored from
        text that changed (a renamed or re-described column).
        :meth:`apply_delta` routes through here; so must any future
        mutator of attribute metadata."""
        self.dirty[np.fromiter(pair_ids, dtype=np.intp)] = True

    def mark_source_dirty(self, source_index: int) -> None:
        """Mark every pair of one source attribute dirty."""
        self.mark_dirty(self.pairs_of_source_index(source_index))

    # -- feature columns ---------------------------------------------------------

    def set_feature_names(self, names: Sequence[str]) -> None:
        """Lay out one unscored feature column per name."""
        self.feature_names = tuple(names)
        self.features = np.full((self.num_pairs, len(names)), np.nan)
        self.current = np.zeros(self.num_pairs, dtype=bool)

    def live_mask(self) -> np.ndarray:
        """Rows whose score can still change an answer.

        Every row of a source with no confirmed match (ranking reads them),
        plus the informative labelled rows (:meth:`informative_ids`).  The
        implied negatives of a matched source are not live: no ranking
        reads them, and they reach only the meta-learner's fit.
        """
        matched = np.zeros(self.num_sources, dtype=bool)
        matched[self.pair_source[self.labels == POSITIVE]] = True
        return ~matched[self.pair_source] | self._informative_mask()

    def _source_groups(self) -> list[np.ndarray]:
        """Per-source pair-id lists, built once per pair-array shape.

        A single stable argsort over ``pair_source`` plus ``searchsorted``
        boundaries replaces the per-source ``flatnonzero`` scan that made the
        ranking loop O(sources x pairs).  The cache is dropped by
        ``_apply_mask``/``ensure_pair``; label changes do not affect it.
        """
        if self._groups is None:
            order = np.argsort(self.pair_source, kind="stable")
            sorted_sources = self.pair_source[order]
            bounds = np.searchsorted(sorted_sources, np.arange(self.num_sources + 1))
            self._groups = [
                order[bounds[i] : bounds[i + 1]] for i in range(self.num_sources)
            ]
        return self._groups

    def pairs_of_source_index(self, source_index: int) -> np.ndarray:
        """Flat indices of all pairs of one source attribute (cached)."""
        return self._source_groups()[int(source_index)]

    def pairs_of_source(self, source: AttributeRef) -> np.ndarray:
        """Flat indices of all pairs whose source is ``source``."""
        return self.pairs_of_source_index(self._source_index[source])

    # -- candidate sets -----------------------------------------------------------

    def apply_candidate_sets(
        self, per_source_targets: Sequence[np.ndarray]
    ) -> tuple[int, int]:
        """Reshape the pair set to per-source candidate sets.

        ``per_source_targets[i]`` lists the allowed target indices for source
        ``i`` (one row per source attribute).  Pairs outside the sets are
        dropped -- except labeled ones, which always survive -- and allowed
        pairs that are currently absent are added, row-major by ``(source,
        target)``.  Returns ``(added, removed)``.
        """
        return self.apply_candidate_sets_for_sources(
            range(self.num_sources), per_source_targets
        )

    def apply_candidate_sets_for_sources(
        self,
        source_indices: Sequence[int],
        per_source_targets: Sequence[np.ndarray],
    ) -> tuple[int, int]:
        """Reshape only the listed sources' pair sets; others are untouched.

        The incremental form of :meth:`apply_candidate_sets`: after a schema
        delta, only the drifted sources' candidate sets change, so only their
        unlabeled out-of-set pairs are dropped and only their missing in-set
        pairs are added.  ``per_source_targets[i]`` lists the allowed target
        indices for ``source_indices[i]``.  Returns ``(added, removed)``.
        """
        if len(source_indices) != len(per_source_targets):
            raise ValueError("candidate sets do not align with the listed sources")
        allowed = np.zeros((self.num_sources, self.num_targets), dtype=bool)
        restricted = np.zeros(self.num_sources, dtype=bool)
        for source_index, targets in zip(source_indices, per_source_targets):
            restricted[int(source_index)] = True
            allowed[int(source_index), np.asarray(targets, dtype=np.intp)] = True

        keep_mask = ~restricted[self.pair_source]
        keep_mask |= allowed[self.pair_source, self.pair_target]
        keep_mask |= self.labels != UNLABELED
        removed = int(self.num_pairs - keep_mask.sum())
        if removed:
            self._apply_mask(keep_mask)

        allowed[self.pair_source, self.pair_target] = False
        allowed[~restricted, :] = False
        missing_sources, missing_targets = np.nonzero(allowed)
        added = self._append_pairs(missing_sources, missing_targets)
        return added, removed

    def _apply_mask(self, keep_mask: np.ndarray) -> None:
        keep_ids = np.flatnonzero(keep_mask)
        self.pair_source = self.pair_source[keep_ids]
        self.pair_target = self.pair_target[keep_ids]
        self.labels = self.labels[keep_ids]
        self.label_explicit = self.label_explicit[keep_ids]
        self.features = self.features[keep_ids]
        self.current = self.current[keep_ids]
        self.dirty = self.dirty[keep_ids]
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the dense pair lookup after rows moved or sources changed."""
        self._pair_lookup = np.full(
            (self.num_sources, self.num_targets), -1, dtype=np.int32
        )
        self._pair_lookup[self.pair_source, self.pair_target] = np.arange(
            self.num_pairs, dtype=np.int32
        )
        self._groups = None

    def _append_pairs(self, sources: np.ndarray, targets: np.ndarray) -> int:
        """Batch-append new unlabeled pairs; the single growth path.

        Every store-growing operation routes through here so growth is one
        ``np.concatenate`` per array (amortised O(n)), never a per-pair
        ``np.append`` chain (O(n^2) total), and so the index dtypes survive:
        ``np.append`` with a Python int promotes ``intp`` arrays on some
        platforms, silently doubling slice costs downstream.
        """
        sources = np.asarray(sources, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        added = int(sources.size)
        if not added:
            return 0
        start = self.num_pairs
        self.pair_source = np.concatenate([self.pair_source, sources])
        self.pair_target = np.concatenate([self.pair_target, targets])
        self.labels = np.concatenate(
            [self.labels, np.full(added, UNLABELED, dtype=np.int8)]
        )
        self.label_explicit = np.concatenate(
            [self.label_explicit, np.zeros(added, dtype=bool)]
        )
        self.features = np.concatenate(
            [self.features, np.full((added, self.features.shape[1]), np.nan)]
        )
        self.current = np.concatenate([self.current, np.zeros(added, dtype=bool)])
        self.dirty = np.concatenate([self.dirty, np.ones(added, dtype=bool)])
        self._pair_lookup[sources, targets] = np.arange(
            start, start + added, dtype=np.int32
        )
        self._groups = None
        assert self.pair_source.dtype == np.intp and self.pair_target.dtype == np.intp
        assert self.labels.dtype == np.int8
        return added

    def ensure_pair(self, source: AttributeRef, target: AttributeRef) -> int:
        """Return the pair's flat index, re-adding it if blocking pruned it.

        The user may map a source attribute to *any* ISS attribute during the
        labeling phase, including one the blocking step dropped; feedback
        must never be lost to pruning.
        """
        return self.ensure_pairs([(source, target)])[0]

    def ensure_pairs(
        self, pairs: Sequence[tuple[AttributeRef, AttributeRef]]
    ) -> list[int]:
        """Batched :meth:`ensure_pair`: one array growth for all new pairs."""
        sources = np.fromiter(
            (self._source_index[source] for source, _ in pairs),
            dtype=np.intp,
            count=len(pairs),
        )
        targets = np.fromiter(
            (self._target_index[target] for _, target in pairs),
            dtype=np.intp,
            count=len(pairs),
        )
        absent = self._pair_lookup[sources, targets] < 0
        if absent.any():
            # First occurrence of each absent pair, in request order.
            flat = sources[absent] * self.num_targets + targets[absent]
            _, first = np.unique(flat, return_index=True)
            first.sort()
            self._append_pairs(sources[absent][first], targets[absent][first])
        return self._pair_lookup[sources, targets].tolist()

    # -- schema drift ----------------------------------------------------------

    def apply_delta(
        self, new_source_schema: Schema, effect: DeltaEffect
    ) -> StoreDeltaReport:
        """Evolve the store in place to ``new_source_schema`` (source side).

        Touches only what the delta touched: dropped sources take their pairs
        (and labels) with them, renamed sources keep their pairs and labels
        but their rows turn dirty (they were scored from the old name),
        retyped sources keep everything (dtype lives in the adjuster's mask,
        not the pair text).  Surviving pair ids are compacted; callers
        holding pair ids must re-resolve them.

        Added sources get no pairs here: the caller lays out their candidate
        sets (:meth:`apply_candidate_sets_for_sources`), as it does for
        every affected source.
        """
        report = StoreDeltaReport()
        old_index = self._source_index

        dropped_old = set()
        for ref in effect.dropped:
            if ref in old_index:
                dropped_old.add(old_index[ref])
                report.dropped_sources.append(ref)
        if dropped_old:
            keep_mask = ~np.isin(
                self.pair_source, np.fromiter(dropped_old, dtype=np.intp)
            )
            dropped_pairs = int(self.num_pairs - keep_mask.sum())
            report.pairs_dropped += dropped_pairs
            report.labels_dropped = int(
                ((self.labels != UNLABELED) & ~keep_mask).sum()
            )
            self._apply_mask(keep_mask)
        report.labels_preserved = int((self.labels != UNLABELED).sum())

        # Surviving sources keep their relative order in the new schema, so
        # the old->new index map is a compaction over the kept old indices.
        new_refs = new_source_schema.attribute_refs()
        new_index = {ref: i for i, ref in enumerate(new_refs)}
        old_to_new = np.full(len(self.source_refs), -1, dtype=np.intp)
        for old_i, ref in enumerate(self.source_refs):
            live_ref = effect.renamed.get(ref, ref)
            if live_ref in new_index:
                old_to_new[old_i] = new_index[live_ref]
        assert (old_to_new[self.pair_source] >= 0).all(), "pair of a dropped source survived"
        self.pair_source = old_to_new[self.pair_source]
        assert self.pair_source.dtype == np.intp

        self.source_schema = new_source_schema
        self.source_refs = new_refs
        self._source_index = new_index
        self._reindex()

        for old_ref, new_ref in effect.renamed.items():
            report.renamed_sources.append(new_index[new_ref])
        for ref in effect.retyped:
            # ``ref`` is already the post-delta (possibly renamed) ref.
            report.retyped_sources.append(new_index[ref])
        for ref in effect.added:
            report.added_sources.append(new_index[ref])

        # Renamed columns' rows were scored from the old name.
        for source_index in report.renamed_sources:
            self.mark_source_dirty(source_index)
        return report

    # -- labels ---------------------------------------------------------------

    def set_positive(self, source: AttributeRef, target: AttributeRef) -> None:
        """Record a confirmed match: positive pair + negatives for the rest.

        Following §IV-E1, once the correct target is known every other pair
        of the same source attribute becomes a negative.  Only the positive
        itself is *explicit*; the sibling negatives are implied and keep any
        explicit flag they earned from an earlier direct rejection.
        """
        pair_id = self.ensure_pair(source, target)
        mask = self.pair_source == self._source_index[source]
        self.labels[mask] = NEGATIVE
        self.labels[pair_id] = POSITIVE
        self.label_explicit[pair_id] = True

    def set_negative(self, source: AttributeRef, target: AttributeRef) -> None:
        """Record that ``target`` is not the match for ``source``.

        Routes through :meth:`ensure_pair` so a rejection of a pair that
        blocking pruned still lands (feedback must never be lost to pruning);
        it previously no-oped silently in exactly that case.
        """
        pair_id = self.ensure_pair(source, target)
        if self.labels[pair_id] != POSITIVE:
            self.labels[pair_id] = NEGATIVE
            self.label_explicit[pair_id] = True

    def set_negatives(
        self, source: AttributeRef, targets: Sequence[AttributeRef]
    ) -> None:
        """Batched :meth:`set_negative` for one source attribute."""
        pair_ids = np.asarray(
            self.ensure_pairs([(source, target) for target in targets]),
            dtype=np.intp,
        )
        pair_ids = pair_ids[self.labels[pair_ids] != POSITIVE]
        self.labels[pair_ids] = NEGATIVE
        self.label_explicit[pair_ids] = True

    def labeled_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)

    def positive_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels == POSITIVE)

    def explicit_ids(self) -> np.ndarray:
        """Pairs whose label came from a direct user action."""
        return np.flatnonzero(self.label_explicit & (self.labels != UNLABELED))

    def informative_ids(self) -> np.ndarray:
        """The training subset: all positives + explicitly rejected negatives.

        Excludes the mass-implied sibling negatives of ``set_positive`` --
        they vastly outnumber the user's actual signal and carry almost no
        information each (see DESIGN.md, "Informative training subset").
        """
        return np.flatnonzero(self._informative_mask())

    def _informative_mask(self) -> np.ndarray:
        return (self.labels == POSITIVE) | (
            (self.labels == NEGATIVE) & self.label_explicit
        )

    def matched_sources(self) -> list[AttributeRef]:
        """Source attributes with a confirmed positive pair."""
        return [
            self.source_refs[int(self.pair_source[pair_id])]
            for pair_id in self.positive_ids()
        ]

    def matched_target_of(self, source: AttributeRef) -> AttributeRef | None:
        source_index = self._source_index[source]
        mask = (self.pair_source == source_index) & (self.labels == POSITIVE)
        ids = np.flatnonzero(mask)
        if ids.size == 0:
            return None
        return self.target_refs[int(self.pair_target[int(ids[0])])]

    def unmatched_sources(self) -> list[AttributeRef]:
        matched = {self._source_index[ref] for ref in self.matched_sources()}
        return [ref for i, ref in enumerate(self.source_refs) if i not in matched]

    def matched_target_entities(self) -> set[str]:
        """Target entities containing at least one confirmed match (drives z)."""
        return {
            self.target_refs[int(self.pair_target[pair_id])].entity
            for pair_id in self.positive_ids()
        }
