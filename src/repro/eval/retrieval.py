"""Retrieval-quality evaluation: recall@k reports over datasets.

The retrieval layer is only allowed to shrink the candidate set when it
keeps every ground-truth target inside the per-source top-k sets (the
recall gate, :mod:`repro.retrieval.gate`).  This module builds the bridge
between :class:`~repro.datasets.registry.MatchingTask` and the gate: it
assembles a task's candidate generator -- with cheap, dataset-scoped PPMI
embeddings by default, so no MiniBERT pre-training is needed -- and turns
ground truth into :class:`~repro.retrieval.gate.RecallReport` rows.

Used by the tier-1 recall-gate test suite, the ``repro retrieval`` CLI and
``make bench-retrieval``.
"""

from __future__ import annotations

from functools import lru_cache

from ..datasets import MatchingTask, load_dataset
from ..embeddings.ppmi import PpmiConfig, train_ppmi_embeddings
from ..embeddings.subword import SubwordEmbeddings
from ..retrieval import (
    FusedCandidateGenerator,
    RecallReport,
    RetrievalConfig,
    build_generator,
    candidate_recall,
    docs_from_refs,
    minimal_full_recall_k,
)
from ..schema.model import Schema
from ..text.corpus import build_corpus

#: Datasets with ground truth the recall gate runs on.
GATE_DATASETS = ["rdb_star", "ipfqr", "movielens_imdb"]

#: Default per-source candidate budget of the gate.  Empirically every
#: public ground-truth target sits well inside the fused top-20 (see
#: ``repro retrieval gate``); the margin absorbs future dataset edits.
GATE_K = 20


@lru_cache(maxsize=8)
def _cheap_embeddings_for(schema_name: str, dim: int) -> SubwordEmbeddings:
    schema = _SCHEMA_BY_NAME[schema_name]
    corpus = build_corpus(schemata=[schema], seed=0)
    return train_ppmi_embeddings(corpus, config=PpmiConfig(dim=dim))


#: ``lru_cache`` needs hashable keys; schemata are registered here by name.
_SCHEMA_BY_NAME: dict[str, Schema] = {}


def cheap_embeddings(schema: Schema, dim: int = 32) -> SubwordEmbeddings:
    """Dataset-scoped PPMI subword embeddings (no MLM, no WordPiece vocab).

    A few orders of magnitude cheaper than full :func:`build_artifacts`,
    and all the dense retriever needs.  Memoised per schema name.
    """
    _SCHEMA_BY_NAME[schema.name] = schema
    return _cheap_embeddings_for(schema.name, dim)


def task_generator(
    task: MatchingTask,
    config: RetrievalConfig | None = None,
    embeddings: SubwordEmbeddings | None = None,
    use_descriptions: bool = True,
) -> FusedCandidateGenerator:
    """The candidate generator a matcher would use for ``task``.

    ``embeddings`` defaults to :func:`cheap_embeddings` over the target
    schema.
    """
    config = config or RetrievalConfig()
    if embeddings is None and config.use_dense:
        embeddings = cheap_embeddings(task.target)
    source_docs = docs_from_refs(
        task.source, task.source.attribute_refs(), use_descriptions
    )
    target_docs = docs_from_refs(
        task.target, task.target.attribute_refs(), use_descriptions
    )
    return build_generator(source_docs, target_docs, config, embeddings=embeddings)


def task_recall_report(
    task: MatchingTask,
    k: int = GATE_K,
    config: RetrievalConfig | None = None,
    embeddings: SubwordEmbeddings | None = None,
) -> RecallReport:
    """Recall@k of the task's candidate generator against its ground truth."""
    generator = task_generator(task, config=config, embeddings=embeddings)
    sets = generator.generate(k)
    return candidate_recall(
        sets,
        task.ground_truth,
        task.source.attribute_refs(),
        task.target.attribute_refs(),
        dataset=task.name,
    )


def task_minimal_recall_k(
    task: MatchingTask,
    config: RetrievalConfig | None = None,
    embeddings: SubwordEmbeddings | None = None,
) -> int:
    """Smallest k retaining every ground-truth match of ``task``."""
    generator = task_generator(task, config=config, embeddings=embeddings)
    return minimal_full_recall_k(
        generator,
        task.ground_truth,
        task.source.attribute_refs(),
        task.target.attribute_refs(),
    )


def gate_reports(
    k: int = GATE_K,
    config: RetrievalConfig | None = None,
    datasets: list[str] | None = None,
) -> list[RecallReport]:
    """Recall@k reports for every gate dataset (all must pass for a merge)."""
    return [
        task_recall_report(load_dataset(name), k=k, config=config)
        for name in (datasets or GATE_DATASETS)
    ]
