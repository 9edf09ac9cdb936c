"""The Learned Schema Matcher: orchestration of the full pipeline (Fig. 2).

``LearnedSchemaMatcher`` wires together preparation (candidate generation,
optional blocking), Step 1 (featurization), Step 2 (self-training
meta-learner + score adjustment + top-k suggestions with confidences) and
the label bookkeeping behind Step 3 (user interaction, which lives in
:mod:`repro.core.session`).

Typical usage::

    matcher = LearnedSchemaMatcher(source, iss)
    predictions = matcher.predict()
    for ref, suggestions in predictions.suggestions.items():
        ...                         # show to the user
    matcher.record_match(ref, target)          # user confirmed a pair
    matcher.record_rejected(ref, shown)        # none of the shown fit
    predictions = matcher.predict()            # retrain and re-rank
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..featurizers.base import AttributePairView, PairBatch
from ..featurizers.bert import BertFeaturizer
from ..featurizers.embedding import EmbeddingFeaturizer
from ..featurizers.lexical import LexicalFeaturizer
from ..nn.activations import softmax
from ..retrieval import (
    FusedCandidateGenerator,
    RetrievalStats,
    build_generator,
    docs_from_refs,
)
from ..schema.drift import DeltaEffect, SchemaDelta, apply_delta as apply_schema_delta
from ..schema.model import AttributeRef, Correspondence, MatchResult, Schema
from .artifacts import ArtifactConfig, DomainArtifacts, build_artifacts
from .candidates import UNLABELED, CandidateStore
from .config import LsmConfig
from .drift import DriftReport, DriftStats
from .meta import SelfTrainingClassifier
from .scoring import ScoreAdjuster
from .selection import SelectionStrategy, make_strategy

#: ``N``, the attributes the user labels per iteration (paper: typically 1).
LABELS_PER_ITERATION = 1


@dataclass
class Predictions:
    """Output of one train-and-predict pass."""

    #: Adjusted score per candidate pair, in store order.  A frozen row (a
    #: matched source's implied negative after a later BERT update) is
    #: scored from the features it last had; no ranking reads it.
    scores: np.ndarray
    suggestions: dict[AttributeRef, list[tuple[AttributeRef, float]]]
    confidences: dict[AttributeRef, float]
    feature_names: list[str] = field(default_factory=list)

    def suggestion_refs(self, source: AttributeRef) -> list[AttributeRef]:
        return [target for target, _ in self.suggestions.get(source, [])]


class LearnedSchemaMatcher:
    """Data-free, human-in-the-loop schema matcher (the paper's LSM)."""

    def __init__(
        self,
        source_schema: Schema,
        target_schema: Schema,
        config: LsmConfig | None = None,
        artifacts: DomainArtifacts | None = None,
        artifact_config: ArtifactConfig | None = None,
        anchor_set: list[AttributeRef] | None = None,
    ) -> None:
        self.source_schema = source_schema
        self.target_schema = target_schema
        self.config = config or LsmConfig()
        #: The matcher's tracer (``repro.obs``): a real one when
        #: ``config.trace_path`` is set, the shared no-op otherwise.  It is
        #: activated around every pipeline entry point, so engine, training
        #: and store spans nest under the matcher's own.
        self.tracer: obs.Tracer | obs.NullTracer = (
            obs.Tracer(self.config.trace_path)
            if self.config.trace_path
            else obs.NULL_TRACER
        )
        #: Unified stats registry over the engine/train/store/pipeline
        #: counters; its snapshot is appended to the trace on ``close()``.
        self.metrics = obs.MetricsRegistry()

        with obs.activated(self.tracer), obs.span(
            "lsm.init",
            source=source_schema.name,
            target=target_schema.name,
        ):
            self.artifacts = artifacts or build_artifacts(
                target_schema, config=artifact_config
            )

            #: Step 1's featurizers, one feature column each, in column order.
            self.featurizers: list = []
            if self.config.use_lexical:
                self.featurizers.append(LexicalFeaturizer())
            if self.config.use_embedding:
                self.featurizers.append(
                    EmbeddingFeaturizer(embeddings=self.artifacts.embeddings)
                )
            self.bert_featurizer: BertFeaturizer | None = None
            if self.config.use_bert:
                self.bert_featurizer = BertFeaturizer(
                    self.artifacts.tokenizer,
                    self.artifacts.bert,
                    self.config.bert,
                    engine_config=self.config.engine,
                )
                self.bert_featurizer.pretrain(
                    target_schema, cache_key=self.artifacts.cache_key
                )
                self.featurizers.append(self.bert_featurizer)
            #: Cumulative seconds inside each featurizer's ``score_pairs``.
            self.featurizer_seconds = {
                featurizer.name: 0.0 for featurizer in self.featurizers
            }

            #: Retrieve-then-rerank candidate generation, when blocking is
            #: on.  Its retrievers (BM25, subword phrase vectors) are frozen,
            #: so a BERT update never changes the candidate sets.
            self.retrieval_stats = RetrievalStats()
            self.generator: FusedCandidateGenerator | None = None
            k = self.config.max_candidates_per_source
            with obs.span("lsm.candidates", k=k):
                if k is not None:
                    self.generator = self._build_candidate_generator()
                self.store = CandidateStore(
                    source_schema,
                    target_schema,
                    self._candidate_sets(range(source_schema.num_attributes)),
                    use_descriptions=self.config.use_descriptions,
                )
            if self.generator is not None:
                self.retrieval_stats.pairs_full_product = (
                    self.store.num_sources * self.store.num_targets
                )
                self.retrieval_stats.pairs_after_pruning = self.store.num_pairs
            self.store.set_feature_names(self.feature_names)

            self.adjuster = ScoreAdjuster(
                self.store,
                target_schema,
                apply_dtype_filter=self.config.apply_dtype_filter,
                apply_entity_penalty=self.config.apply_entity_penalty,
            )
            self.strategy: SelectionStrategy = make_strategy(
                self.config.selection_strategy,
                source_schema,
                anchor_set=anchor_set,
                seed=self.config.seed,
            )
            self.meta = SelfTrainingClassifier(rounds=self.config.self_training_rounds)
        self._iteration = 0
        self._labels_at_last_bert_update = 0
        self.last_predictions: Predictions | None = None
        self.drift_stats = DriftStats()
        #: True between a drift and the next featurization pass; makes the
        #: pass measure rescored-vs-reused pair counts into ``drift_stats``.
        self._drift_pending = False
        #: True while rows a pass left out of BERT (:meth:`_filtered_rows`)
        #: may still lack a score; the first predict that holds a label
        #: scores those it freezes (:meth:`_score_filtered_frozen_rows`).
        self._filtered_pending = False

        if self.bert_featurizer is not None:
            self.metrics.register("engine", self.bert_featurizer.engine.stats)
            self.metrics.register("train", self.bert_featurizer.train_stats)
            self.metrics.register("encode", self.bert_featurizer.encode_stats_payload)
        self.metrics.register("pipeline", self.featurizer_seconds.copy)
        self.metrics.register("retrieval", self.retrieval_stats)
        self.metrics.register("drift", self.drift_stats)
        from .. import store as artifact_store

        self.metrics.register("store", artifact_store.cache_stats)
        if isinstance(self.tracer, obs.Tracer):
            self.tracer.registry = self.metrics

    # -- candidate generation (retrieve-then-rerank) -------------------------------

    def _build_candidate_generator(self) -> FusedCandidateGenerator:
        """Assemble the generator ``config.retrieval`` describes."""
        retrieval = self.config.retrieval
        source_docs = docs_from_refs(
            self.source_schema,
            self.source_schema.attribute_refs(),
            self.config.use_descriptions,
        )
        target_docs = docs_from_refs(
            self.target_schema,
            self.target_schema.attribute_refs(),
            self.config.use_descriptions,
        )
        return build_generator(
            source_docs,
            target_docs,
            retrieval,
            embeddings=self.artifacts.embeddings if retrieval.use_dense else None,
            stats=self.retrieval_stats,
        )

    def _candidate_sets(self, source_indices) -> list[np.ndarray]:
        """The allowed targets of each listed source, in list order.

        The generator's top-k when blocking is on, and every target
        otherwise (the paper's full product).
        """
        if self.generator is None:
            every_target = np.arange(self.target_schema.num_attributes)
            return [every_target] * len(source_indices)
        return self.generator.generate_for_sources(
            source_indices, self.config.max_candidates_per_source
        ).per_source

    # -- schema drift ----------------------------------------------------------

    def apply_delta(self, delta: SchemaDelta) -> DriftReport:
        """Evolve the *source* schema in place and re-match incrementally.

        Only what the delta touched is redone (see DESIGN.md, "Schema
        drift"):

        * the store drops/remaps the affected pairs, keeping surviving
          labels and marking renamed sources' rows dirty in the feature
          columns;
        * the adjuster's dtype mask is invalidated when a column retyped;
        * affected (added, renamed, retyped) sources' candidate sets are
          laid out again through :meth:`_candidate_sets` -- the retrieval
          layer's top-k, or every target without blocking; the pairs this
          adds are new, hence dirty rows.
          Unaffected sources keep their rows and columns, so the next
          :meth:`predict` scores none of them again.

        The next :meth:`predict` measures that contract: engine
        scored/skipped deltas across its featurization pass (clean rows
        that are not frozen count as skipped) accumulate into
        ``drift_stats.pairs_rescored`` / ``pairs_reused``.
        """
        with obs.activated(self.tracer), obs.span(
            "lsm.drift", ops=len(delta), delta=delta.describe()
        ) as drift_span:
            new_schema, effect = apply_schema_delta(self.source_schema, delta)
            pending = self._dirty_pairs()
            store_report = self.store.apply_delta(new_schema, effect)
            self.source_schema = new_schema

            if effect.retyped:
                self.adjuster.invalidate_dtype_mask()
            remap = getattr(self.strategy, "apply_renames", None)
            if callable(remap):
                remap(effect.renamed, effect.dropped)

            if self.generator is not None:
                self.generator.replace_source_docs(
                    docs_from_refs(
                        new_schema,
                        self.store.source_refs,
                        self.config.use_descriptions,
                    )
                )
            affected = store_report.affected_sources()
            if affected:
                with obs.span("lsm.drift_candidates", sources=len(affected)):
                    added, removed = self.store.apply_candidate_sets_for_sources(
                        affected, self._candidate_sets(affected)
                    )
                    store_report.pairs_added += added
                    store_report.pairs_dropped += removed
                if self.generator is not None:
                    self.retrieval_stats.pairs_after_pruning = self.store.num_pairs

            report = DriftReport(
                delta=delta,
                effect=effect,
                store=store_report,
                regenerated_sources=affected,
                # Read off the mask: rows a regenerated candidate set
                # dropped again do not count, nor do rows dirty before.
                rows_dirtied=int(np.count_nonzero(self.store.dirty))
                - self._still_present(pending, effect),
            )
            self.drift_stats.record(report)
            self._drift_pending = True
            self.last_predictions = None
            drift_span.set(
                pairs_dropped=store_report.pairs_dropped,
                pairs_added=store_report.pairs_added,
                labels_preserved=store_report.labels_preserved,
            )
            obs.event(
                "drift.applied",
                level="info",
                delta=delta.describe(),
                regenerated_sources=len(affected),
                rows_dirtied=report.rows_dirtied,
            )
        return report

    def _dirty_pairs(self) -> list[tuple[AttributeRef, AttributeRef]]:
        """The (source, target) refs of rows already dirty (e.g. re-added by
        a rejection) -- not the next delta's doing."""
        store = self.store
        return [
            (store.source_ref(int(source)), store.target_ref(int(target)))
            for source, target in zip(
                store.pair_source[store.dirty], store.pair_target[store.dirty]
            )
        ]

    def _still_present(
        self, pairs: list[tuple[AttributeRef, AttributeRef]], effect: DeltaEffect
    ) -> int:
        """How many of ``pairs`` survived the delta (still dirty rows)."""
        dropped = set(effect.dropped)
        live = [
            (effect.renamed.get(source, source), target)
            for source, target in pairs
            if source not in dropped
        ]
        return sum(self.store.pair_id(*pair) is not None for pair in live)

    # -- user feedback ---------------------------------------------------------

    def record_match(self, source: AttributeRef, target: AttributeRef) -> None:
        """The user confirmed that ``source`` maps to ``target``."""
        self.store.set_positive(source, target)

    def record_rejected(
        self, source: AttributeRef, rejected_targets: list[AttributeRef]
    ) -> None:
        """The user saw these suggestions for ``source``; none was correct."""
        self.store.set_negatives(source, rejected_targets)

    # -- training + prediction ---------------------------------------------------

    def _informative_views_and_labels(self) -> tuple[list[AttributePairView], list[int]]:
        """The training subset: positives + explicitly rejected negatives.

        ``set_positive`` mass-implies a negative for every sibling pair of a
        confirmed source; feeding those to fine-tuning would drown the user's
        actual signal (see DESIGN.md, "Informative training subset").
        """
        informative_ids = self.store.informative_ids()
        views = self.store.views(informative_ids)
        labels = [int(label) for label in self.store.labels[informative_ids]]
        return views, labels

    def _maybe_update_bert(self) -> None:
        if self.bert_featurizer is None:
            return
        positives = int(self.store.positive_ids().size)
        if positives == 0:
            return
        if (
            positives - self._labels_at_last_bert_update
            >= self.config.update_bert_every
        ):
            # Feed only the informative subset: all positives plus the
            # negatives the user actively produced for the same sources.
            views, labels = self._informative_views_and_labels()
            self.bert_featurizer.update(views, labels)
            self._labels_at_last_bert_update = positives

    def _filtered_rows(self) -> np.ndarray | None:
        """Stage 0 of the cascade: the rows no output reads a BERT score of.

        While the store holds no label and the dtype filter is on,
        :meth:`ScoreAdjuster.adjust` zeroes every dtype-incompatible pair,
        and the only other reader of such a row's BERT cell is the
        meta-learner's prior mean of that same row.  So those rows need no
        BERT score yet.  The mask is the adjuster's own, so a retype
        (:meth:`ScoreAdjuster.invalidate_dtype_mask`) moves rows in and out
        of it.  None once a label exists, or without BERT or the filter.
        """
        if (
            self.bert_featurizer is None
            or not self.adjuster.apply_dtype_filter
            or (self.store.labels != UNLABELED).any()
        ):
            return None
        return ~self.adjuster.dtype_mask()

    def _score_column(self, column: int, rows: np.ndarray, batch: PairBatch) -> None:
        """Score ``rows`` (``batch``) into one feature column, timed."""
        featurizer = self.featurizers[column]
        start = time.perf_counter()
        self.store.features[rows, column] = featurizer.score_pairs(batch)
        self.featurizer_seconds[featurizer.name] += time.perf_counter() - start

    def _score_filtered_frozen_rows(self) -> None:
        """Score the filtered rows the first label froze, before any update.

        Without the filter every row would hold a BERT value of the model
        before the first update, and a matched source's implied negatives
        keep it: they are frozen, and the meta-learner's fit reads them.
        So on the first predict that holds a label, before
        :meth:`_maybe_update_bert` moves the model, the rows the filter
        left unscored that are no longer live are scored under the current
        model.  The filtered rows that are still live are stale like every
        other live row, and :meth:`_featurize` scores them.
        """
        if not self._filtered_pending or self._filtered_rows() is not None:
            return
        self._filtered_pending = False
        store = self.store
        rows = np.flatnonzero(~store.current & ~store.dirty & ~store.live_mask())
        if rows.size:
            with obs.span("lsm.featurize_filtered", rows=int(rows.size)):
                column = self.featurizers.index(self.bert_featurizer)
                self._score_column(column, rows, store.pair_batch(rows))
                store.current[rows] = True

    def _featurize(self, span) -> np.ndarray:
        """Bring the store's live feature rows up to date; return the block.

        The static featurizers score the store's dirty rows; BERT scores
        those plus the live rows (:meth:`CandidateStore.live_mask`) its
        model moved past since they were scored (after an update), all in
        store order, less the rows :meth:`_filtered_rows` leaves out before
        the first label.  A filtered row stays stale and keeps whatever
        BERT cell it has; the first predict that holds a label scores it
        under the model it would have been scored by
        (:meth:`_score_filtered_frozen_rows`, or here as a stale live row).
        A matched source's implied negatives are not
        rescored: they are *frozen* at the BERT value of the model that
        last scored them until a rename dirties them, and only the
        meta-learner's fit reads them.  Featurizers scoring the same rows
        share one :class:`~repro.featurizers.base.PairBatch`.

        The engine counts the clean rows that are not frozen as requested
        and skipped; frozen rows count as neither, and filtered rows go to
        :meth:`ScoringEngine.count_filtered`.
        """
        store = self.store
        bert = self.bert_featurizer
        version = bert.model_version if bert is not None else 0
        if store.scored_version != version:  # an update: every row is stale
            store.scored_version = version
            store.current[:] = False
        stale = store.dirty | (~store.current & store.live_mask())
        filtered = self._filtered_rows()
        rows_filtered = 0
        if filtered is not None:
            filtered &= stale
            stale &= ~filtered
            # A dirty filtered row (a renamed source's) holds a stale value.
            store.current[filtered] = False
            rows_filtered = int(np.count_nonzero(filtered))
            self._filtered_pending |= rows_filtered > 0
        dirty_rows = np.flatnonzero(store.dirty)
        bert_rows = np.flatnonzero(stale)
        batches: dict[bytes, PairBatch] = {}
        rows_dirty: dict[str, int] = {}
        for column, featurizer in enumerate(self.featurizers):
            rows = bert_rows if featurizer is bert else dirty_rows
            if rows.size:
                key = rows.tobytes()
                if key not in batches:
                    batches[key] = store.pair_batch(rows)
                self._score_column(column, rows, batches[key])
            rows_dirty[featurizer.name] = int(rows.size)
        store.current[bert_rows] = True
        store.dirty[:] = False
        rows_current = int(np.count_nonzero(store.current))
        if bert is not None:
            bert.engine.count_reused(rows_current - bert_rows.size)
            bert.engine.count_filtered(rows_filtered)
        span.set(
            rows_clean=rows_current - int(bert_rows.size),
            rows_dirty=rows_dirty,
            rows_frozen=store.num_pairs - rows_current - rows_filtered,
            rows_filtered=rows_filtered,
        )
        return store.features

    def predict(self) -> Predictions:
        """One full train-and-predict pass over the current label state."""
        self._iteration += 1
        with obs.activated(self.tracer), obs.span(
            "lsm.predict", iteration=self._iteration
        ) as predict_span:
            self._score_filtered_frozen_rows()
            with obs.span("lsm.update_bert"):
                self._maybe_update_bert()

            engine_stats = (
                self.bert_featurizer.engine.stats
                if self.bert_featurizer is not None
                else None
            )
            measure_drift = self._drift_pending and engine_stats is not None
            if measure_drift:
                scored_before = engine_stats.pairs_scored
                skipped_before = engine_stats.pairs_skipped
            with obs.span(
                "lsm.featurize", pairs=int(self.store.num_pairs)
            ) as featurize_span:
                features = self._featurize(featurize_span)
            if measure_drift:
                rescored = engine_stats.pairs_scored - scored_before
                reused = engine_stats.pairs_skipped - skipped_before
                self.drift_stats.pairs_rescored += rescored
                self.drift_stats.pairs_reused += reused
                obs.event(
                    "drift.rescore",
                    level="info",
                    pairs_rescored=int(rescored),
                    pairs_reused=int(reused),
                )
            self._drift_pending = False
            with obs.span(
                "lsm.meta_fit", labeled=int(self.store.labeled_ids().size)
            ):
                # Frozen rows enter the fit with their last BERT value:
                # they are the implied negatives, the fit's negative class.
                self.meta.fit(features, self.store.labels.astype(np.int64))
                raw_scores = self.meta.predict(features)
            with obs.span("lsm.adjust"):
                adjusted = self.adjuster.adjust(raw_scores)

            with obs.span("lsm.rank"):
                suggestions: dict[AttributeRef, list[tuple[AttributeRef, float]]] = {}
                confidences: dict[AttributeRef, float] = {}
                matched = set(self.store.matched_sources())
                for source_index, source_ref in enumerate(self.store.source_refs):
                    if source_ref in matched:
                        continue
                    pair_ids = self.store.pairs_of_source_index(source_index)
                    if pair_ids.size == 0:
                        suggestions[source_ref] = []
                        confidences[source_ref] = 0.0
                        continue
                    pair_scores = adjusted[pair_ids]
                    order = np.argsort(-pair_scores, kind="stable")[: self.config.top_k]
                    suggestions[source_ref] = [
                        (
                            self.store.target_refs[
                                int(self.store.pair_target[int(pair_ids[i])])
                            ],
                            float(pair_scores[int(i)]),
                        )
                        for i in order
                    ]
                    # Prediction confidence: softmax over the attribute's
                    # candidate scores; a peaked distribution means a
                    # confident model (§IV-E2).
                    confidences[source_ref] = float(softmax(pair_scores).max())
            predict_span.set(unmatched=len(suggestions))

            self.last_predictions = Predictions(
                scores=adjusted,
                suggestions=suggestions,
                confidences=confidences,
                feature_names=self.feature_names,
            )
        return self.last_predictions

    @property
    def feature_names(self) -> list[str]:
        """The featurizers' names, in feature-column order."""
        return [featurizer.name for featurizer in self.featurizers]

    # -- active learning ----------------------------------------------------------

    def select_attributes_to_label(
        self, n: int = LABELS_PER_ITERATION
    ) -> list[AttributeRef]:
        """Pick the next attributes for the user to map (Section IV-E2)."""
        confidences = (
            self.last_predictions.confidences if self.last_predictions else {}
        )
        unmatched = self.store.unmatched_sources()
        return self.strategy.select(unmatched, confidences, n)

    # -- observability -------------------------------------------------------------

    def engine_stats(self) -> dict[str, object]:
        """Scoring-engine counters plus per-featurizer pipeline timings.

        The engine counters (``pairs_skipped``, stage times, threaded
        batches) come from the BERT featurizer's
        :class:`repro.engine.ScoringEngine`; ``serving.*`` entries give its
        threads per plan and whether BLAS was pinned; ``pipeline.<name>``
        entries are cumulative seconds per featurizer.
        """
        payload: dict[str, object] = {}
        if self.bert_featurizer is not None:
            payload.update(self.bert_featurizer.engine.stats.as_dict())
            payload.update(self.bert_featurizer.engine.serving_info())
            payload.update(
                {
                    f"encode.{key}": value
                    for key, value in self.bert_featurizer.encode_stats_payload().items()
                }
            )
        for name, seconds in self.featurizer_seconds.items():
            payload[f"pipeline.{name}"] = round(seconds, 6)
        return payload

    def train_stats(self) -> dict[str, object]:
        """Training fast-path counters from the BERT featurizer.

        Step/epoch/sample counts, warm-vs-cold optimiser starts and
        per-stage seconds (see :class:`repro.nn.TrainStats`); empty when
        BERT is disabled.
        """
        if self.bert_featurizer is None:
            return {}
        return self.bert_featurizer.train_stats.as_dict()

    def close(self) -> None:
        """Release featurizer resources and finalise the trace (if any).

        This joins the scoring engine's helper threads; call it (or use
        the matcher as a context manager) once the matcher is done.
        """
        if self.bert_featurizer is not None:
            self.bert_featurizer.close()
        self.tracer.close()

    def __enter__(self) -> "LearnedSchemaMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- results -------------------------------------------------------------------

    def result(self) -> MatchResult:
        """The confirmed correspondences as a :class:`MatchResult`."""
        correspondences = []
        for source in self.store.matched_sources():
            target = self.store.matched_target_of(source)
            if target is not None:
                correspondences.append(Correspondence(source=source, target=target))
        return MatchResult.from_correspondences(correspondences, strict=False)

    @property
    def iteration(self) -> int:
        return self._iteration
