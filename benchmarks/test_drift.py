"""Schema-drift benchmark: incremental re-matching vs from-scratch rebuild.

Scales the retail ISS 10x (12,180 target attributes) and matches the full
customer-A schema (29 sources) against it, then lands a 3-column delta
(two renames + one retype) on the live matcher:

* **rebuild** -- construct a fresh matcher over the evolved schema and run
  a cold ``predict()``: every candidate pair reaches BERT again;
* **incremental** -- ``matcher.apply_delta()``: only the drifted sources'
  candidate sets are regenerated and re-encoded, everything else is served
  from the engine's fingerprint score cache.

The bench asserts the ISSUE-9 contract: both paths produce identical
matches (labels survive renames; top-1 suggestions agree source for
source), the incremental path re-scores >= 5x fewer BERT pairs than the
rebuild, and a delta that touches no surviving candidate pair (a drop-only
delta) triggers *zero* BERT re-runs.

Emits ``BENCH_drift.json`` at the repo root (uploaded by CI).
"""

from __future__ import annotations

import time

from _emit import emit_benchmark
from conftest import register_report

from repro.core import LearnedSchemaMatcher, LsmConfig
from repro.core.artifacts import ArtifactConfig, build_artifacts
from repro.datasets import load_dataset, scale_schema
from repro.embeddings.ppmi import PpmiConfig
from repro.eval.reporting import render_table
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import DropColumn, RenameColumn, RetypeColumn, SchemaDelta
from repro.schema.model import DataType

SCALE_FACTOR = 10
CANDIDATES_PER_SOURCE = 40
MIN_RESCORE_RATIO = 5.0

#: The k-column delta: two renames + one retype across two entities.
DRIFT_OPS = 3


def _bench_task():
    """The full customer-A schema against the 10x-scaled retail ISS."""
    task = load_dataset("customer_a")
    base_iss = task.target
    scaled = scale_schema(base_iss, SCALE_FACTOR)
    for target in task.ground_truth.values():
        scaled.attribute(target)  # raises if scaling broke a ref
    return task.source, base_iss, scaled, task.ground_truth


def _artifacts(base_iss):
    """Tiny (but real) artefacts over the base ISS, shared by both paths."""
    config = ArtifactConfig(
        vocab_size=600,
        hidden_size=32,
        num_layers=1,
        num_heads=2,
        intermediate_size=64,
        max_position=32,
        mlm_epochs=1,
        mlm_batch_size=32,
        ppmi=PpmiConfig(dim=24),
        seed=0,
    )
    return build_artifacts(base_iss, config=config, use_cache=False)


def _lsm_config() -> LsmConfig:
    return LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=32, seed=0
        ),
        max_candidates_per_source=CANDIDATES_PER_SOURCE,
        update_bert_every=10**9,  # same model throughout: isolate drift
        seed=0,
    )


def _make_delta(schema) -> SchemaDelta:
    """Deterministic 3-column delta: rename two columns, retype a third."""
    entities = sorted(schema.entities, key=lambda e: e.name)
    keys = set(schema.key_refs())
    renames = []
    retype = None
    for entity in entities:
        for ref in entity.attribute_refs():
            if ref in keys:
                continue
            if len(renames) < 2 and entity is entities[0]:
                renames.append(RenameColumn(ref=ref, new_name=f"{ref.attribute}_v2"))
            elif retype is None and entity is not entities[0]:
                dtype = schema.attribute(ref).dtype
                new_dtype = (
                    DataType.STRING if dtype is not DataType.STRING else DataType.INTEGER
                )
                retype = RetypeColumn(ref=ref, new_dtype=new_dtype)
    assert len(renames) == 2 and retype is not None
    return SchemaDelta(operations=(*renames, retype))


def _drop_only_delta(schema, exclude) -> SchemaDelta:
    """A delta dropping one unlabeled non-key column (touches no new pair)."""
    keys = set(schema.key_refs())
    for ref in schema.attribute_refs():
        entity = schema.entity(ref.entity)
        if ref not in keys and ref not in exclude and len(entity) > 1:
            return SchemaDelta(operations=(DropColumn(ref=ref),))
    raise AssertionError("no droppable column")


def _top1(predictions) -> dict[str, str]:
    return {
        str(source): str(ranked[0][0])
        for source, ranked in predictions.suggestions.items()
        if ranked
    }


def test_drift_incremental_rematch_vs_rebuild():
    source, base_iss, scaled, ground_truth = _bench_task()
    artifacts = _artifacts(base_iss)
    delta = _make_delta(source)

    # -- incremental path ------------------------------------------------------
    incremental = LearnedSchemaMatcher(
        source, scaled, config=_lsm_config(), artifacts=artifacts
    )
    try:
        incremental.predict()  # cold pass: every candidate pair scored once
        # Label one column that the delta renames: the label must survive.
        labeled_old = delta.operations[0].ref
        labeled_new = delta.operations[0].new_ref
        incremental.record_match(labeled_old, ground_truth[labeled_old])

        started = time.perf_counter()
        report = incremental.apply_delta(delta)
        incremental_predictions = incremental.predict()
        incremental_seconds = time.perf_counter() - started

        rescored = incremental.drift_stats.pairs_rescored
        reused = incremental.drift_stats.pairs_reused
        labels_preserved = report.store.labels_preserved
        survived = incremental.store.matched_target_of(labeled_new)
        evolved = incremental.source_schema
        incremental_top1 = _top1(incremental_predictions)
        incremental_pairs = incremental.store.num_pairs
    finally:
        incremental.close()

    # -- from-scratch rebuild over the evolved schema --------------------------
    started = time.perf_counter()
    rebuild = LearnedSchemaMatcher(
        evolved, scaled, config=_lsm_config(), artifacts=artifacts
    )
    try:
        rebuild.record_match(labeled_new, ground_truth[labeled_old])
        rebuild_predictions = rebuild.predict()
        rebuild_seconds = time.perf_counter() - started
        rebuild_scored = rebuild.bert_featurizer.engine.stats.pairs_scored
        rebuild_top1 = _top1(rebuild_predictions)
    finally:
        rebuild.close()

    ratio = rebuild_scored / max(rescored, 1)

    # -- zero-rerun gate: a drop-only delta re-scores nothing ------------------
    zero = LearnedSchemaMatcher(
        source, scaled, config=_lsm_config(), artifacts=artifacts
    )
    try:
        zero.predict()
        drop_delta = _drop_only_delta(source, exclude={labeled_old})
        zero.apply_delta(drop_delta)
        zero.predict()
        zero_rescored = zero.drift_stats.pairs_rescored
        zero_reused = zero.drift_stats.pairs_reused
    finally:
        zero.close()

    register_report(
        render_table(
            ["path", "BERT pairs scored", "wall (s)"],
            [
                ["rebuild (from scratch)", str(rebuild_scored), f"{rebuild_seconds:.2f}"],
                [
                    f"incremental ({DRIFT_OPS}-column delta)",
                    str(rescored),
                    f"{incremental_seconds:.2f}",
                ],
                ["incremental (drop-only delta)", str(zero_rescored), "-"],
            ],
            title=(
                f"Schema drift -- {source.num_attributes} sources x "
                f"{scaled.num_attributes} targets ({SCALE_FACTOR}x scaled ISS), "
                f"k={CANDIDATES_PER_SOURCE}"
            ),
        )
    )

    datapoint = emit_benchmark(
        "BENCH_drift.json",
        benchmark="drift",
        workload={
            "scale_factor": SCALE_FACTOR,
            "num_source_attributes": source.num_attributes,
            "num_target_attributes": scaled.num_attributes,
            "candidates_per_source": CANDIDATES_PER_SOURCE,
            "delta": delta.describe(),
            "drop_delta": drop_delta.describe(),
        },
        baseline_seconds=rebuild_seconds,
        fast_seconds=incremental_seconds,
        gate={
            "rescore_ratio": round(ratio, 2),
            "min_rescore_ratio": MIN_RESCORE_RATIO,
            "matches_identical": incremental_top1 == rebuild_top1,
            "label_survived_rename": str(survived),
            "drop_only_rescored": zero_rescored,
        },
        extra={
            "baseline": "fresh matcher over the evolved schema (cold predict)",
            "fast": "apply_delta + incremental predict",
            "pairs_rescored": rescored,
            "pairs_reused": reused,
            "rebuild_pairs_scored": rebuild_scored,
            "labels_preserved": labels_preserved,
            "pairs_after_drift": incremental_pairs,
            "drop_only_reused": zero_reused,
        },
    )

    # ISSUE-9 acceptance: identical matches vs the from-scratch rebuild ...
    assert incremental_top1 == rebuild_top1, datapoint
    # ... the surviving label rides the rename ...
    assert survived == ground_truth[labeled_old], datapoint
    assert labels_preserved >= 1, datapoint
    # ... while re-scoring >= 5x fewer BERT pairs than the rebuild ...
    assert ratio >= MIN_RESCORE_RATIO, datapoint
    # ... and a delta touching no surviving candidate pair re-runs nothing.
    assert zero_rescored == 0, datapoint
    assert zero_reused > 0, datapoint
