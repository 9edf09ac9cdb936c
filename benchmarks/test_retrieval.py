"""Retrieval-layer benchmark: retrieve-then-rerank vs the full product.

Scales the retail ISS 10x (12,180 target attributes -- an order of magnitude
past the paper's 1218) and matches a customer-A entity against it twice:

* **full product** -- the paper's path, every pair reaches the cross-encoder;
* **retrieval** -- the fused sparse+dense generator prunes to ``K`` targets
  per source before the cross-encoder sees anything.

Measured end to end on ``predict()`` (featurize + meta-learner + adjust +
rank).  The bench asserts the two invariants ISSUE 6 demands of the layer:
the pruned path is >= 3x faster, and an interactive session over it
confirms *exactly* the same final matches.  The recall@k gate over the
public ground-truth datasets rides along so the emitted artifact records
retrieval quality next to retrieval speed.

Emits ``BENCH_retrieval.json`` at the repo root (uploaded by CI).
"""

from __future__ import annotations

import time

from _emit import emit_benchmark
from conftest import register_report

from repro.core import (
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
)
from repro.core.artifacts import ArtifactConfig, build_artifacts
from repro.datasets import load_dataset, scale_schema
from repro.embeddings.ppmi import PpmiConfig
from repro.eval.reporting import render_table
from repro.eval.retrieval import GATE_K, gate_reports
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import Schema

SCALE_FACTOR = 10
SOURCE_ENTITY = "GiftCardFld"
CANDIDATES_PER_SOURCE = 40
MIN_SPEEDUP = 3.0


def _bench_task():
    """Customer-A's gift-card entity against the 10x-scaled retail ISS."""
    task = load_dataset("customer_a")
    base_iss = task.target
    scaled = scale_schema(base_iss, SCALE_FACTOR)
    source = Schema(
        "bench_source",
        [entity for entity in task.source.entities if entity.name == SOURCE_ENTITY],
        [],
    )
    ground_truth = {
        s: t for s, t in task.ground_truth.items() if s.entity == SOURCE_ENTITY
    }
    # Copy 1 of the scaled schema preserves the base names, so the base
    # ground truth stays valid against the scaled target.
    for target in ground_truth.values():
        scaled.attribute(target)  # raises if scaling broke a ref
    return source, base_iss, scaled, ground_truth


def _artifacts(base_iss):
    """Tiny (but real) per-vertical artefacts over the *base* ISS.

    The scaled copies are synthetic distractors of the base attributes, so
    base-ISS embeddings/BERT transfer; building over the 12k-attribute
    corpus would only slow the bench down.
    """
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


def _lsm_config(**overrides) -> LsmConfig:
    return LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=32, seed=0
        ),
        update_bert_every=10**9,  # same model both paths: isolate retrieval
        seed=0,
        **overrides,
    )


def _run_path(source, scaled, ground_truth, artifacts, **config_overrides):
    """First-predict latency + completed session for one candidate path."""
    matcher = LearnedSchemaMatcher(
        source, scaled, config=_lsm_config(**config_overrides), artifacts=artifacts
    )
    try:
        pairs_scored = matcher.store.num_pairs
        started = time.perf_counter()
        matcher.predict()
        predict_seconds = time.perf_counter() - started
        oracle = GroundTruthOracle(ground_truth, scaled)
        session = MatchingSession(matcher, oracle).run()
        assert session.completed, "bench session did not complete"
        matches = sorted(
            (str(c.source), str(c.target)) for c in session.result.correspondences()
        )
        stats = matcher.retrieval_stats.as_dict()
    finally:
        matcher.close()
    return {
        "pairs_scored": pairs_scored,
        "predict_seconds": round(predict_seconds, 4),
        "session_labels": session.total_labels,
        "matches": matches,
        "retrieval_stats": stats,
    }


def test_retrieval_speedup_with_unchanged_matches():
    source, base_iss, scaled, ground_truth = _bench_task()
    artifacts = _artifacts(base_iss)
    full_product = source.num_attributes * scaled.num_attributes

    full = _run_path(
        source, scaled, ground_truth, artifacts, max_candidates_per_source=None
    )
    retrieval = _run_path(
        source,
        scaled,
        ground_truth,
        artifacts,
        max_candidates_per_source=CANDIDATES_PER_SOURCE,
    )

    speedup = full["predict_seconds"] / max(retrieval["predict_seconds"], 1e-9)
    reduction = full_product / max(retrieval["pairs_scored"], 1)

    # The recall gate over the public ground-truth datasets rides along.
    gates = [report.as_dict() for report in gate_reports(k=GATE_K)]

    register_report(
        render_table(
            ["path", "pairs scored", "first predict (s)", "speedup", "labels"],
            [
                [
                    "full product",
                    str(full["pairs_scored"]),
                    f"{full['predict_seconds']:.2f}",
                    "1.00x",
                    str(full["session_labels"]),
                ],
                [
                    f"retrieval (k={CANDIDATES_PER_SOURCE})",
                    str(retrieval["pairs_scored"]),
                    f"{retrieval['predict_seconds']:.2f}",
                    f"{speedup:.1f}x",
                    str(retrieval["session_labels"]),
                ],
            ],
            title=(
                f"Retrieve-then-rerank -- {source.num_attributes} sources x "
                f"{scaled.num_attributes} targets ({SCALE_FACTOR}x scaled ISS)"
            ),
        )
    )

    datapoint = emit_benchmark(
        "BENCH_retrieval.json",
        benchmark="retrieval",
        workload={
            "scale_factor": SCALE_FACTOR,
            "num_source_attributes": source.num_attributes,
            "num_target_attributes": scaled.num_attributes,
            "pairs_full_product": full_product,
            "candidates_per_source": CANDIDATES_PER_SOURCE,
        },
        baseline_seconds=full["predict_seconds"],
        fast_seconds=retrieval["predict_seconds"],
        gate={
            "matches_identical": full["matches"] == retrieval["matches"],
            "recall_gate": gates,
        },
        extra={
            "baseline": "full cross product predict()",
            "fast": f"retrieve-then-rerank (k={CANDIDATES_PER_SOURCE})",
            "pairs_after_pruning": retrieval["pairs_scored"],
            "pair_reduction": round(reduction, 2),
            "full_session_labels": full["session_labels"],
            "retrieval_session_labels": retrieval["session_labels"],
            "retrieval_stats": retrieval["retrieval_stats"],
        },
    )

    # ISSUE-6 acceptance: >= 3x end-to-end predict() speedup ...
    assert speedup >= MIN_SPEEDUP, datapoint
    # ... with identical final confirmed matches vs the full-product path ...
    assert full["matches"] == retrieval["matches"], datapoint
    assert full["matches"] == sorted(
        (str(s), str(t)) for s, t in ground_truth.items()
    ), datapoint
    # ... and the public-dataset recall gate holding.
    assert all(gate["recall"] == 1.0 for gate in gates), gates
