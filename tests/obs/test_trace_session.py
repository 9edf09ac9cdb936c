"""End-to-end tracing: a traced session's NDJSON reproduces its records.

This is the acceptance test of the observability layer: with
``LsmConfig.trace_path`` set, a full ``MatchingSession.run`` emits a
parseable NDJSON trace whose per-iteration spans carry exactly the numbers
of the session's :class:`~repro.core.session.IterationRecord` list, plus the
metrics tail and the per-stage aggregates.
"""

from dataclasses import asdict

import pytest

from repro import obs
from repro.core import (
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
)
from repro.featurizers.bert import BertFeaturizerConfig


@pytest.fixture()
def traced_run(tmp_path, source_schema, target_schema, tiny_artifacts, ground_truth):
    trace_path = tmp_path / "session.ndjson"
    config = LsmConfig(
        trace_path=str(trace_path),
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        seed=0,
    )
    matcher = LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )
    oracle = GroundTruthOracle(ground_truth, target_schema)
    session = MatchingSession(matcher, oracle).run()
    matcher.close()
    return trace_path, session


class TestTracedSession:
    def test_trace_is_wellformed_ndjson(self, traced_run):
        trace_path, _ = traced_run
        records = obs.load_trace(trace_path)  # raises TraceError if malformed
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "meta"
        assert kinds[-1] == "summary"
        assert "metrics" in kinds

    def test_iteration_spans_reproduce_session_records(self, traced_run):
        trace_path, session = traced_run
        summary = obs.summarize_trace_file(trace_path)
        assert len(summary.iterations) == len(session.records)
        for row, record in zip(summary.iterations, session.records):
            expected = asdict(record)
            assert {key: row[key] for key in expected} == expected

    def test_expected_stage_spans_present(self, traced_run):
        trace_path, _ = traced_run
        summary = obs.summarize_trace_file(trace_path)
        stages = {stage.name for stage in summary.stages}
        assert {
            "session.run",
            "session.iteration",
            "session.review",
            "session.label",
            "lsm.init",
            "lsm.predict",
            "lsm.featurize",
            "lsm.meta_fit",
            "lsm.adjust",
            "lsm.rank",
            "engine.score",
            "bert.pretrain",
        } <= stages

    def test_no_invariant_violations_on_healthy_run(self, traced_run):
        trace_path, _ = traced_run
        summary = obs.summarize_trace_file(trace_path)
        assert summary.invariant_violations == 0

    def test_metrics_tail_covers_all_subsystems(self, traced_run):
        trace_path, _ = traced_run
        summary = obs.summarize_trace_file(trace_path)
        assert summary.metrics is not None
        prefixes = {key.split(".", 1)[0] for key in summary.metrics}
        assert {"engine", "train", "pipeline", "store"} <= prefixes
        assert summary.metrics["engine.pairs_requested"] > 0

    def test_session_results_unchanged_by_tracing(
        self, traced_run, source_schema, target_schema, tiny_artifacts, ground_truth
    ):
        _, traced_session = traced_run
        config = LsmConfig(
            bert=BertFeaturizerConfig(
                max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
            ),
            seed=0,
        )
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        untraced = MatchingSession(matcher, oracle).run()
        matcher.close()
        strip = lambda records: [
            {k: v for k, v in asdict(r).items() if k != "response_seconds"}
            for r in records
        ]
        assert strip(traced_session.records) == strip(untraced.records)


class TestMatcherTracerLifecycle:
    def test_no_trace_means_null_tracer(
        self, source_schema, target_schema, tiny_artifacts
    ):
        config = LsmConfig(
            bert=BertFeaturizerConfig(max_length=24, pretrain_epochs=1, seed=0), seed=0
        )
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        try:
            assert matcher.tracer is obs.NULL_TRACER
        finally:
            matcher.close()  # must tolerate closing the null tracer

    def test_metrics_registry_wired(self, source_schema, target_schema, tiny_artifacts):
        config = LsmConfig(
            bert=BertFeaturizerConfig(max_length=24, pretrain_epochs=1, seed=0), seed=0
        )
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        try:
            assert matcher.metrics.names() == [
                "drift",
                "encode",
                "engine",
                "pipeline",
                "retrieval",
                "store",
                "train",
            ]
            flat = matcher.metrics.as_dict()
            # Every key the end-to-end benchmark reads: it falls back to 0
            # for a missing key, so a renamed counter would go unnoticed.
            for key in (
                "engine.pairs_scored",
                "engine.pairs_requested",
                "engine.pairs_skipped",
                "engine.microbatches",
                "engine.inprocess_batches",
                "engine.threaded_batches",
                "train.steps",
                "train.samples",
                "encode.token_cache_hits",
                "encode.token_cache_misses",
                "encode.rows_assembled",
                "retrieval.pairs_after_pruning",
                "retrieval.pairs_full_product",
                "drift.pairs_rescored",
                "drift.pairs_reused",
                "store.hits",
                "store.misses",
                "store.corruption_events",
                "store.writes",
            ):
                assert key in flat, key
        finally:
            matcher.close()
