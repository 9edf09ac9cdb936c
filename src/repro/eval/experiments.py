"""Experiment drivers: one function per table/figure of the paper.

Every driver is a plain function returning plain data (dicts / lists of
floats), so the benchmark harness, the examples and the tests can all call
them.  Expensive shared state (per-ISS artefacts, baseline matchers and
their grid-searched score matrices) is memoised at module level; artefacts
additionally persist in the on-disk cache.

Experiment-scale defaults: customer datasets run against the full 1218-
attribute ISS, so the interactive experiments enable candidate blocking
(``max_candidates_per_source``) and a thinned BERT update cadence; both are
recorded in the returned payloads and discussed in DESIGN.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from ..baselines import (
    Baseline,
    ComaMatcher,
    CupidMatcher,
    InteractiveBaselineSession,
    LsdMatcher,
    MlmMatcher,
    ScoredMatrix,
    SimilarityFloodingMatcher,
    split_ground_truth,
)
from ..core import (
    ArtifactConfig,
    DomainArtifacts,
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
    SessionResult,
    build_artifacts,
    manual_labeling_curve,
)
from ..datasets import MatchingTask, load_dataset
from ..featurizers.bert import BertFeaturizerConfig
from ..schema.model import AttributeRef
from .metrics import mean_and_stderr, median, predictions_top_k_accuracy

BASELINE_NAMES = ["cupid", "coma", "smatch", "similarity_flooding", "lsd", "mlm"]

#: Default number of independent trials (paper: 5).  Override with
#: ``REPRO_TRIALS`` to trade fidelity for speed.
def default_trials() -> int:
    return int(os.environ.get("REPRO_TRIALS", "5"))


# ---------------------------------------------------------------------------
# Shared memoised state
# ---------------------------------------------------------------------------

_ARTIFACTS: dict[str, DomainArtifacts] = {}
_GENERIC_EMBEDDINGS: dict[str, object] = {}
_MATRICES: dict[tuple[str, str, str], ScoredMatrix] = {}
_BASELINES: dict[str, dict[str, Baseline]] = {}


def artifacts_for(task: MatchingTask) -> DomainArtifacts:
    """Per-vertical artefacts for the task's target schema (memoised)."""
    key = task.target.name
    if key not in _ARTIFACTS:
        _ARTIFACTS[key] = build_artifacts(task.target, config=ArtifactConfig())
    return _ARTIFACTS[key]


def generic_embeddings_for(task: MatchingTask):
    """Generic (FastText-like) embeddings for the baselines.

    Trained on the schema text plus only the *generic* single-word synonym
    relations -- the stand-in for off-the-shelf FastText, which knows common
    English synonymy but not the vertical's multi-word phrasings.  LSM's own
    embeddings come from :func:`artifacts_for` (full domain corpus), exactly
    the per-vertical pre-training advantage the paper describes.
    """
    from ..embeddings.ppmi import PpmiConfig, train_ppmi_embeddings
    from .. import store as cache
    from ..text.corpus import build_corpus
    from ..text.lexicon import generic_lexicon

    key = task.target.name
    if key not in _GENERIC_EMBEDDINGS:
        corpus = build_corpus(
            schemata=[task.target], lexicon=generic_lexicon(), seed=0
        )
        cache_key = cache.content_key(
            "generic-embeddings-v2", key, corpus, PpmiConfig().describe()
        )
        stored = cache.load_arrays("generic-emb", cache_key)
        if stored is not None:
            from ..embeddings.subword import SubwordEmbeddings, SubwordVocab

            embeddings = SubwordEmbeddings(SubwordVocab(corpus), stored["input_table"])
        else:
            embeddings = train_ppmi_embeddings(corpus)
            cache.save_arrays(
                "generic-emb", cache_key, {"input_table": embeddings.input_table}
            )
        _GENERIC_EMBEDDINGS[key] = embeddings
    return _GENERIC_EMBEDDINGS[key]


def baseline_suite(task: MatchingTask) -> dict[str, Baseline]:
    """The six baselines, instantiated once per target schema.

    CUPID and Similarity Flooding receive generic embeddings and S-MATCH the
    generic (WordNet-like) lexicon; see :func:`generic_embeddings_for`.
    """
    from ..baselines import SMatchMatcher
    from ..text.lexicon import generic_lexicon

    key = task.target.name
    if key not in _BASELINES:
        embeddings = generic_embeddings_for(task)
        _BASELINES[key] = {
            "cupid": CupidMatcher(embeddings),
            "coma": ComaMatcher(),
            "smatch": SMatchMatcher(generic_lexicon()),
            "similarity_flooding": SimilarityFloodingMatcher(embeddings),
            "lsd": LsdMatcher(),
            "mlm": MlmMatcher(),
        }
    return _BASELINES[key]


# ---------------------------------------------------------------------------
# Baseline evaluation (Table III machinery)
# ---------------------------------------------------------------------------

@dataclass
class BaselineResult:
    """Best-variant result of one baseline on one dataset."""

    baseline: str
    dataset: str
    best_variant: str
    top_k_accuracy: dict[int, float]
    #: For LSD, the held-out sources the accuracy was measured on.
    evaluated_sources: list[AttributeRef] | None = None


def run_baseline(
    task: MatchingTask,
    baseline_name: str,
    k_values: tuple[int, ...] = (1, 3, 5),
    selection_k: int = 3,
    seed: int = 0,
) -> BaselineResult:
    """Grid search a baseline's variants; report the best by top-``selection_k``."""
    baseline = baseline_suite(task)[baseline_name]
    training = None
    evaluated: list[AttributeRef] | None = None
    if baseline.requires_training:
        split = split_ground_truth(task.ground_truth, train_fraction=0.5, seed=seed)
        training = split.train
        evaluated = sorted(split.test, key=str)

    best: BaselineResult | None = None
    for variant_name, params in baseline.variants().items():
        key = (task.name, baseline_name, variant_name)
        matrix = _MATRICES.get(key)
        if matrix is None:
            kwargs = dict(params)
            if training is not None:
                kwargs["training"] = training
            matrix = baseline.score_matrix(task.source, task.target, **kwargs)
            _MATRICES[key] = matrix
        accuracy = {
            k: matrix.top_k_accuracy(task.ground_truth, k=k, sources=evaluated)
            for k in k_values
        }
        if best is None or accuracy[selection_k] > best.top_k_accuracy[selection_k]:
            best = BaselineResult(
                baseline=baseline_name,
                dataset=task.name,
                best_variant=variant_name,
                top_k_accuracy=accuracy,
                evaluated_sources=evaluated,
            )
    assert best is not None
    return best


def best_baseline_matrix(task: MatchingTask, selection_k: int = 3) -> tuple[str, ScoredMatrix]:
    """The best non-training baseline's name and score matrix for a task.

    LSD is excluded here because interactive sessions need scores for every
    source attribute, not just a held-out half (and LSD is never the best
    baseline in Table III anyway).
    """
    candidates = [name for name in BASELINE_NAMES if name != "lsd"]
    results = {name: run_baseline(task, name, selection_k=selection_k) for name in candidates}
    winner = max(results.values(), key=lambda r: r.top_k_accuracy[selection_k])
    matrix = _MATRICES[(task.name, winner.baseline, winner.best_variant)]
    return winner.baseline, matrix


def table3_baseline_accuracy(
    dataset_names: list[str] | None = None,
    k: int = 3,
) -> dict[str, dict[str, float]]:
    """Table III: top-3 accuracy of the six baselines on every dataset."""
    from ..datasets import ALL_NAMES

    names = dataset_names or list(ALL_NAMES)
    table: dict[str, dict[str, float]] = {}
    for dataset_name in names:
        task = load_dataset(dataset_name)
        table[dataset_name] = {
            baseline_name: run_baseline(task, baseline_name).top_k_accuracy[k]
            for baseline_name in BASELINE_NAMES
        }
    return table


# ---------------------------------------------------------------------------
# Dataset statistics (Tables I and II)
# ---------------------------------------------------------------------------

def table1_customer_stats() -> list[dict[str, object]]:
    """Table I: statistics of the customer (source) schemata."""
    rows = []
    for label in "abcde":
        task = load_dataset(f"customer_{label}")
        stats = task.source.stats()
        rows.append(stats)
    return rows


def table2_public_stats() -> list[dict[str, object]]:
    """Table II: statistics of the public schemata (source and target)."""
    rows = []
    for name in ("rdb_star", "ipfqr", "movielens_imdb"):
        task = load_dataset(name)
        rows.append({"dataset": name, "side": "source", **task.source.stats()})
        rows.append({"dataset": name, "side": "target", **task.target.stats()})
    return rows


# ---------------------------------------------------------------------------
# LSM configuration per experiment scale
# ---------------------------------------------------------------------------

def experiment_lsm_config(task: MatchingTask, seed: int = 0, **overrides) -> LsmConfig:
    """The LSM configuration used in the reproduction experiments.

    Customer tasks target the 1218-attribute ISS, so candidate blocking and a
    thinned BERT-update cadence keep the CPU-only cross-encoder tractable
    (see DESIGN.md); public tasks run the paper's exact full-Cartesian setup.
    """
    num_pairs = task.source.num_attributes * task.target.num_attributes
    if num_pairs > 20_000:
        config = LsmConfig(
            max_candidates_per_source=60,
            update_bert_every=4,
            bert=BertFeaturizerConfig(
                pretrain_epochs=3,
                update_epochs=1,
                iss_subsample_per_update=128,
                seed=seed,
            ),
            seed=seed,
        )
    else:
        config = LsmConfig(
            bert=BertFeaturizerConfig(pretrain_epochs=6, update_epochs=2, seed=seed),
            seed=seed,
        )
    if overrides:
        config = replace(config, **overrides)
    return config


def make_matcher(
    task: MatchingTask, config: LsmConfig | None = None, seed: int = 0
) -> LearnedSchemaMatcher:
    """An LSM instance for a task, sharing the memoised artefacts."""
    config = config or experiment_lsm_config(task, seed=seed)
    return LearnedSchemaMatcher(
        task.source, task.target, config=config, artifacts=artifacts_for(task)
    )


# ---------------------------------------------------------------------------
# Non-interactive model quality (Table IV, Figure 4)
# ---------------------------------------------------------------------------

@dataclass
class AccuracyTrials:
    """Per-k accuracy samples over independent trials."""

    samples: dict[int, list[float]] = field(default_factory=dict)

    def add(self, k: int, value: float) -> None:
        self.samples.setdefault(k, []).append(value)

    def median(self, k: int) -> float:
        return median(self.samples.get(k, []))

    def mean_stderr(self, k: int) -> tuple[float, float]:
        return mean_and_stderr(self.samples.get(k, []))


def evaluate_lsm_accuracy(
    task: MatchingTask,
    k_values: tuple[int, ...] = (1, 3, 5),
    train_fraction: float = 0.2,
    trials: int | None = None,
    seed: int = 0,
) -> AccuracyTrials:
    """Section V-B methodology: train on a label split, measure top-k on the rest.

    For each trial, ``train_fraction`` of the ground truth is revealed to the
    model as user labels (one shot, no active learning), the model is trained
    once, and top-k accuracy is measured on the held-out attributes.
    """
    trials = trials if trials is not None else default_trials()
    results = AccuracyTrials()
    for trial in range(trials):
        trial_seed = seed + 7919 * trial
        split = split_ground_truth(task.ground_truth, train_fraction, seed=trial_seed)
        config = experiment_lsm_config(task, seed=trial_seed, top_k=max(k_values))
        matcher = make_matcher(task, config=config, seed=trial_seed)
        for source, target in split.train.items():
            matcher.record_match(source, target)
        predictions = matcher.predict()
        test_sources = sorted(split.test, key=str)
        for k in k_values:
            results.add(
                k,
                predictions_top_k_accuracy(
                    predictions, task.ground_truth, k, sources=test_sources
                ),
            )
    return results


def evaluate_baseline_accuracy_trials(
    task: MatchingTask,
    k_values: tuple[int, ...] = (1, 3, 5),
    trials: int | None = None,
    seed: int = 0,
) -> tuple[str, AccuracyTrials]:
    """Best-baseline accuracy over trials (deterministic baselines repeat)."""
    trials = trials if trials is not None else default_trials()
    results = AccuracyTrials()
    winner = None
    for trial in range(trials):
        trial_seed = seed + 7919 * trial
        best_name, matrix = best_baseline_matrix(task)
        winner = best_name
        for k in k_values:
            results.add(k, matrix.top_k_accuracy(task.ground_truth, k=k))
        del trial_seed
    assert winner is not None
    return winner, results


def table4_lsm_public(trials: int | None = None) -> dict[str, dict[str, dict[int, float]]]:
    """Table IV: median top-1/3/5 of LSM vs the best baseline, public data."""
    table: dict[str, dict[str, dict[int, float]]] = {}
    for name in ("rdb_star", "ipfqr", "movielens_imdb"):
        task = load_dataset(name)
        lsm = evaluate_lsm_accuracy(task, trials=trials)
        __, baseline = evaluate_baseline_accuracy_trials(task, trials=1)
        table[name] = {
            "lsm": {k: lsm.median(k) for k in (1, 3, 5)},
            "best_baseline": {k: baseline.median(k) for k in (1, 3, 5)},
        }
    return table


def fig4_lsm_customers(
    trials: int | None = None,
    labels: str = "abcde",
) -> dict[str, dict[str, dict[int, tuple[float, float]]]]:
    """Figure 4: mean +/- stderr top-1/3/5, LSM vs best baseline, customers."""
    figure: dict[str, dict[str, dict[int, tuple[float, float]]]] = {}
    for label in labels:
        task = load_dataset(f"customer_{label}")
        lsm = evaluate_lsm_accuracy(task, trials=trials)
        __, baseline = evaluate_baseline_accuracy_trials(task, trials=1)
        figure[label.upper()] = {
            "lsm": {k: lsm.mean_stderr(k) for k in (1, 3, 5)},
            "best_baseline": {k: baseline.mean_stderr(k) for k in (1, 3, 5)},
        }
    return figure


# ---------------------------------------------------------------------------
# Interactive end-to-end experiments (Figures 5-9)
# ---------------------------------------------------------------------------

def run_lsm_session(
    task: MatchingTask,
    seed: int = 0,
    noise_rate: float = 0.0,
    trace_path: str | None = None,
    **config_overrides,
) -> SessionResult:
    """One full interactive session of LSM against the simulated user.

    With ``trace_path``, the full run (predict stages, per-iteration session
    spans, engine/training/store activity) is streamed to that NDJSON file
    and finalised — metrics + summary tail lines — before returning; render
    it with ``repro trace summarize``.
    """
    if trace_path is not None:
        config_overrides["trace_path"] = str(trace_path)
    config = experiment_lsm_config(task, seed=seed, **config_overrides)
    matcher = make_matcher(task, config=config, seed=seed)
    oracle = GroundTruthOracle(
        task.ground_truth,
        task.target,
        noise_rate=noise_rate,
        embeddings=artifacts_for(task).embeddings if noise_rate > 0 else None,
        seed=seed,
    )
    try:
        return MatchingSession(matcher, oracle).run()
    finally:
        matcher.close()


def run_best_baseline_session(
    task: MatchingTask,
    seed: int = 0,
    noise_rate: float = 0.0,
) -> tuple[str, SessionResult]:
    """Interactive session of the best baseline with the smart strategy."""
    name, matrix = best_baseline_matrix(task)
    oracle = GroundTruthOracle(
        task.ground_truth,
        task.target,
        noise_rate=noise_rate,
        embeddings=artifacts_for(task).embeddings if noise_rate > 0 else None,
        seed=seed,
    )
    session = InteractiveBaselineSession(
        matrix, task.source, oracle, selection_strategy="least_confident_anchor", seed=seed
    )
    return name, session.run()


@dataclass
class CurveSet:
    """Named labeling-cost curves for one dataset (one Fig. 5-8 panel)."""

    dataset: str
    curves: dict[str, tuple[list[float], list[float]]]
    metadata: dict[str, object] = field(default_factory=dict)


def fig5_labeling_cost(dataset_name: str, seed: int = 0) -> CurveSet:
    """Figure 5: LSM smart vs random selection vs best baseline vs manual."""
    task = load_dataset(dataset_name)
    smart = run_lsm_session(task, seed=seed)
    random_selection = run_lsm_session(
        task, seed=seed, selection_strategy="random"
    )
    baseline_name, baseline = run_best_baseline_session(task, seed=seed)
    return CurveSet(
        dataset=dataset_name,
        curves={
            "lsm_smart": smart.curve(),
            "lsm_random": random_selection.curve(),
            "best_baseline": baseline.curve(),
            "manual": manual_labeling_curve(task.source.num_attributes),
        },
        metadata={
            "best_baseline": baseline_name,
            "lsm_total_label_fraction": smart.label_fraction_used,
            "baseline_total_label_fraction": baseline.label_fraction_used,
        },
    )


def fig6_bert_ablation(dataset_name: str, seed: int = 0) -> CurveSet:
    """Figure 6: LSM with and without the BERT featurizer."""
    task = load_dataset(dataset_name)
    full = run_lsm_session(task, seed=seed)
    without_bert = run_lsm_session(task, seed=seed, use_bert=False)
    baseline_name, baseline = run_best_baseline_session(task, seed=seed)
    return CurveSet(
        dataset=dataset_name,
        curves={
            "lsm": full.curve(),
            "lsm_no_bert": without_bert.curve(),
            "best_baseline": baseline.curve(),
            "manual": manual_labeling_curve(task.source.num_attributes),
        },
        metadata={
            "best_baseline": baseline_name,
            "label_fraction_full": full.label_fraction_used,
            "label_fraction_no_bert": without_bert.label_fraction_used,
        },
    )


def fig7_description_ablation(dataset_name: str, seed: int = 0) -> CurveSet:
    """Figure 7: LSM with and without attribute descriptions (A and E)."""
    task = load_dataset(dataset_name)
    if not task.source.has_descriptions():
        raise ValueError(f"{dataset_name} has no descriptions to ablate")
    with_descriptions = run_lsm_session(task, seed=seed)
    without_descriptions = run_lsm_session(task, seed=seed, use_descriptions=False)
    baseline_name, baseline = run_best_baseline_session(task, seed=seed)
    return CurveSet(
        dataset=dataset_name,
        curves={
            "lsm": with_descriptions.curve(),
            "lsm_no_description": without_descriptions.curve(),
            "best_baseline": baseline.curve(),
            "manual": manual_labeling_curve(task.source.num_attributes),
        },
        metadata={
            "best_baseline": baseline_name,
            "label_fraction_with": with_descriptions.label_fraction_used,
            "label_fraction_without": without_descriptions.label_fraction_used,
        },
    )


def fig8_noise(
    dataset_name: str,
    noise_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    seed: int = 0,
) -> CurveSet:
    """Figure 8: labeling-cost curves under noisy user labels."""
    task = load_dataset(dataset_name)
    curves: dict[str, tuple[list[float], list[float]]] = {}
    final_correct: dict[str, float] = {}
    for rate in noise_rates:
        key = "lsm" if rate == 0.0 else f"lsm_n={rate:.1f}"
        session = run_lsm_session(task, seed=seed, noise_rate=rate)
        curves[key] = session.curve()
        final_correct[key] = session.curve()[1][-1] if session.records else 0.0
    baseline_name, baseline = run_best_baseline_session(task, seed=seed)
    curves["best_baseline"] = baseline.curve()
    curves["manual"] = manual_labeling_curve(task.source.num_attributes)
    return CurveSet(
        dataset=dataset_name,
        curves=curves,
        metadata={"best_baseline": baseline_name, "final_correct_pct": final_correct},
    )


def fig9_response_time(
    dataset_names: list[str] | None = None,
    seed: int = 0,
) -> dict[str, list[tuple[float, float]]]:
    """Figure 9: per-iteration response time vs percent labels provided."""
    names = dataset_names or [f"customer_{label}" for label in "abcde"]
    results: dict[str, list[tuple[float, float]]] = {}
    for name in names:
        task = load_dataset(name)
        session = run_lsm_session(task, seed=seed)
        results[name] = [
            (
                100.0 * record.labels_provided / task.source.num_attributes,
                record.response_seconds,
            )
            for record in session.records
        ]
    return results


def clear_memoised_state() -> None:
    """Reset all in-process caches (artefacts persist on disk)."""
    _ARTIFACTS.clear()
    _MATRICES.clear()
    _BASELINES.clear()
