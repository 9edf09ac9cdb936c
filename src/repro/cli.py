"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``stats``
    Print Table I/II-style statistics for every packaged dataset.
``baselines DATASET``
    Grid-search and report all six baselines on one dataset (top-1/3/5).
``accuracy DATASET [--train-fraction F] [--trials N]``
    Non-interactive LSM accuracy (Section V-B methodology).
``session DATASET [--noise N] [--strategy S]``
    Run the full interactive matching session and print the labeling curve.
``cache {stats,verify,clear}``
    Inspect or maintain the on-disk artefact store (``.repro_cache/`` or
    ``$REPRO_CACHE_DIR``): cumulative hit/miss/corruption counters, a full
    integrity scan, or a sweep of every cached file.
``engine stats [--dataset D] [--workers N] [--microbatch B] [--fast]``
    Exercise the batched scoring engine on a dataset (two ``predict()``
    passes plus one label) and print its per-stage timings, incremental
    re-scoring counters and the ``serving.*`` rows (threads per plan,
    whether OpenBLAS was pinned to one thread).  ``--workers`` defaults to
    the engine's default, the CPUs this process may run on.  ``--fast``
    uses tiny artefacts for a quick smoke run instead of the full
    per-vertical pre-training.
``train stats [--dataset D] [--labels N] [--fast]``
    Exercise the training fast path: MLM pre-training (when artefacts are
    built fresh), classifier pre-training, and ``--labels`` incremental
    human-label updates.  Prints the per-stage training timings and the
    warm/cold optimiser starts (see :class:`repro.nn.TrainStats`).
``serve stats [--requests N] [--sessions S] [--tenants T] [--seed X]``
    Replay a deterministic multi-tenant load through the async serving
    service (``repro.serve``) and print its metrics: coalesce ratio,
    cross-session batches, p50/p99 latency, queue depths, residency/
    eviction counters, plus the speedup over sequential per-session
    scoring of the identical workload.
``retrieval {stats,gate} [--dataset D] [--k K]``
    Candidate-generation diagnostics.  ``stats`` reports per-retriever and
    fused recall@k plus the minimal lossless k on one dataset; ``gate``
    runs the recall@k gate over every public ground-truth dataset and exits
    non-zero if any true match would be pruned.
``drift replay [--dataset D] [--deltas N] [--ops M] [--seed X] [--fast]``
    Generate a deterministic schema-drift sequence (add/rename/retype/drop
    columns) against the dataset's source schema and replay it through the
    incremental re-matching path, printing per-delta accounting: pairs
    dropped/added, candidate-set regenerations, and BERT pairs re-scored
    vs. served from the feature column.  ``--trace`` streams the
    drift spans (``lsm.drift``, ``drift.rescore``) as NDJSON.
``trace summarize TRACE``
    Render an NDJSON trace (``repro session --trace`` or
    ``LsmConfig.trace_path``): the per-iteration session table, per-stage
    span totals, invariant violations and the final metrics snapshot.
"""

from __future__ import annotations

import argparse

from .core.artifacts import ArtifactConfig
from .datasets import ALL_NAMES, load_dataset
from .engine.batching import BUCKET_GRANULARITY, MICROBATCH_SIZE
from .eval.experiments import (
    BASELINE_NAMES,
    evaluate_lsm_accuracy,
    run_baseline,
    run_lsm_session,
)
from .eval.reporting import render_table

#: Tiny artefacts for ``--fast`` smoke runs of ``engine``, ``train`` and ``drift``.
FAST_ARTIFACTS = ArtifactConfig(
    vocab_size=400,
    hidden_size=32,
    num_layers=1,
    num_heads=2,
    intermediate_size=64,
    max_position=32,
    mlm_epochs=1,
)


def _cmd_stats(_args: argparse.Namespace) -> None:
    rows = []
    for name in ALL_NAMES:
        task = load_dataset(name)
        for side, schema in (("source", task.source), ("target", task.target)):
            stats = schema.stats()
            rows.append(
                [
                    name,
                    side,
                    stats["entities"],
                    stats["attributes"],
                    stats["pk_fk"],
                    "Y" if stats["descriptions"] else "N",
                ]
            )
    print(render_table(
        ["dataset", "side", "entities", "attributes", "pk/fk", "desc"],
        rows,
        title="Dataset statistics",
    ))


def _cmd_baselines(args: argparse.Namespace) -> None:
    task = load_dataset(args.dataset)
    rows = []
    for baseline_name in BASELINE_NAMES:
        result = run_baseline(task, baseline_name)
        rows.append(
            [baseline_name]
            + [f"{result.top_k_accuracy[k]:.2f}" for k in (1, 3, 5)]
            + [result.best_variant]
        )
    print(render_table(
        ["baseline", "top-1", "top-3", "top-5", "variant"],
        rows,
        title=f"Baselines on {args.dataset}",
    ))


def _cmd_accuracy(args: argparse.Namespace) -> None:
    task = load_dataset(args.dataset)
    trials = evaluate_lsm_accuracy(
        task, train_fraction=args.train_fraction, trials=args.trials
    )
    rows = [
        [f"top-{k}", f"{trials.median(k):.2f}", f"{trials.mean_stderr(k)[0]:.2f}"]
        for k in (1, 3, 5)
    ]
    print(render_table(
        ["metric", "median", "mean"],
        rows,
        title=(
            f"LSM on {args.dataset} "
            f"({args.train_fraction:.0%} training labels, {args.trials} trials)"
        ),
    ))


def _cmd_session(args: argparse.Namespace) -> None:
    task = load_dataset(args.dataset)
    session = run_lsm_session(
        task,
        seed=args.seed,
        noise_rate=args.noise,
        selection_strategy=args.strategy,
        trace_path=args.trace,
    )
    xs, ys = session.curve()
    print(f"Interactive session on {args.dataset} "
          f"(strategy={args.strategy}, noise={args.noise}):")
    for x, y in zip(xs, ys):
        print(f"  labels={x:5.1f}%  correct={y:5.1f}%")
    saving = 100.0 * (1.0 - session.label_fraction_used)
    print(f"Total labels: {session.total_labels} "
          f"({session.label_fraction_used:.0%} of attributes; "
          f"{saving:.0f}% saved vs manual labeling)")
    if args.trace:
        print(f"Trace written to {args.trace} "
              f"(render with: repro trace summarize {args.trace})")


def _cmd_trace(args: argparse.Namespace) -> None:
    from .obs import summarize_trace_file

    summary = summarize_trace_file(args.trace_file)
    print(f"Trace {args.trace_file}: schema v{summary.version}, "
          f"{summary.num_records} records "
          f"({summary.num_spans} spans, {summary.num_events} events)")

    if summary.iterations:
        rows = [
            [
                str(it.get("iteration", "?")),
                str(it.get("labels_provided", "")),
                str(it.get("matched_total", "")),
                str(it.get("matched_correct", "")),
                str(it.get("reviewed", "")),
                f"{float(it.get('response_seconds', 0.0)):.3f}",
            ]
            for it in summary.iterations
        ]
        print(render_table(
            ["iter", "labels", "matched", "correct", "reviewed", "response s"],
            rows,
            title="Session iterations",
        ))

    if summary.stages:
        rows = [
            [
                stage.name,
                str(stage.calls),
                f"{stage.total_seconds:.4f}",
                f"{stage.mean_seconds:.4f}",
            ]
            for stage in summary.stages
        ]
        print(render_table(
            ["span", "calls", "total s", "mean s"],
            rows,
            title="Span totals",
        ))

    if summary.invariant_violations:
        print(f"Invariant violations: {summary.invariant_violations} "
              f"(grep the trace for \"invariant.violation\")")

    if summary.metrics:
        rows = [
            [name, str(value)] for name, value in sorted(summary.metrics.items())
        ]
        print(render_table(["metric", "value"], rows, title="Final metrics"))


def _cmd_cache(args: argparse.Namespace) -> None:
    from . import store

    cache_root = store.resolve_root()
    if args.action == "stats":
        cumulative = store.persistent_cache_stats()
        session = store.cache_stats()
        rows = [
            [name, str(getattr(cumulative, name)), str(getattr(session, name))]
            for name in (
                "hits",
                "misses",
                "corruption_events",
                "writes",
                "write_failures",
                "bytes_written",
            )
        ]
        print(render_table(
            ["counter", "all sessions", "this process"],
            rows,
            title=f"Artifact store stats ({cache_root})",
        ))
        if cumulative.quarantined:
            print("Quarantined entries (cumulative):")
            for name in cumulative.quarantined:
                print(f"  {name}")
    elif args.action == "verify":
        results = store.verify_cache()
        if not results:
            print(f"Artifact store at {cache_root} is empty.")
            return
        rows = [
            [result.path.name, result.status, result.detail]
            for result in results
        ]
        print(render_table(
            ["entry", "status", "detail"],
            rows,
            title=f"Artifact store integrity ({cache_root})",
        ))
        bad = sum(1 for result in results if result.status == "corrupt")
        ok = sum(1 for result in results if result.ok)
        print(f"{ok} ok, {bad} corrupt, {len(results) - ok - bad} other")
        if bad:
            raise SystemExit(1)
    elif args.action == "clear":
        removed = store.clear_cache()
        print(f"Removed {removed} file(s) from {cache_root}.")


def _cmd_engine(args: argparse.Namespace) -> None:
    from .core.artifacts import build_artifacts
    from .core.config import LsmConfig
    from .core.matcher import LearnedSchemaMatcher
    from .engine import EngineConfig

    task = load_dataset(args.dataset)
    artifacts = build_artifacts(task.target, config=FAST_ARTIFACTS) if args.fast else None
    workers = {} if args.workers is None else {"n_workers": args.workers}
    engine_config = EngineConfig(
        microbatch_size=args.microbatch,
        bucket_granularity=args.bucket_granularity,
        **workers,
    )
    config = LsmConfig(
        engine=engine_config,
        update_bert_every=10**9,  # isolate incremental re-scoring from retraining
    )
    matcher = LearnedSchemaMatcher(task.source, task.target, config=config, artifacts=artifacts)
    try:
        matcher.predict()  # cold pass: every pair is scored
        if task.ground_truth:
            source, target = next(iter(task.ground_truth.items()))
            matcher.record_match(source, target)
        matcher.predict()  # warm pass: unchanged pairs are served from cache
        stats = matcher.engine_stats()
    finally:
        matcher.close()
    rows = [[name, str(value)] for name, value in stats.items()]
    print(render_table(
        ["counter", "value"],
        rows,
        title=(
            f"Scoring engine on {args.dataset} "
            f"(workers={engine_config.n_workers}, microbatch={args.microbatch})"
        ),
    ))
    skipped = stats.get("pairs_skipped", 0)
    requested = stats.get("pairs_requested", 0)
    if isinstance(requested, int) and requested:
        print(f"Incremental re-scoring skipped {skipped}/{requested} pair scorings "
              f"({100.0 * int(skipped) / requested:.0f}%).")


def _cmd_train(args: argparse.Namespace) -> None:
    from .core.artifacts import build_artifacts
    from .core.config import LsmConfig
    from .core.matcher import LearnedSchemaMatcher
    from .nn.stats import TrainStats

    task = load_dataset(args.dataset)
    mlm_stats = TrainStats()
    artifact_config = FAST_ARTIFACTS if args.fast else None
    artifacts = build_artifacts(
        task.target, config=artifact_config, mlm_stats=mlm_stats
    )
    config = LsmConfig(update_bert_every=1)  # every label triggers an update
    matcher = LearnedSchemaMatcher(
        task.source, task.target, config=config, artifacts=artifacts
    )
    try:
        matcher.predict()
        for source, target in list(task.ground_truth.items())[: args.labels]:
            matcher.record_match(source, target)
            matcher.predict()  # retrains (warm) and re-ranks
        stats = matcher.train_stats()
    finally:
        matcher.close()

    mlm_rows = [[name, str(value)] for name, value in mlm_stats.as_dict().items()]
    print(render_table(
        ["counter", "value"],
        mlm_rows,
        title=f"MLM pre-training on {args.dataset} "
        + ("(built fresh)" if mlm_stats.steps else "(artefacts from cache)"),
    ))
    rows = [[name, str(value)] for name, value in stats.items()]
    print(render_table(
        ["counter", "value"],
        rows,
        title=f"Featurizer training on {args.dataset} ({args.labels} label updates)",
    ))
    warm = stats.get("warm_starts", 0)
    cold = stats.get("cold_starts", 0)
    print(f"Optimiser starts: {warm} warm, {cold} cold.")


def _cmd_serve(args: argparse.Namespace) -> None:
    import numpy as np

    from .serve import (
        ServeConfig,
        make_script,
        replay_coalesced,
        replay_sequential,
    )

    script = make_script(
        seed=args.seed,
        n_tenants=args.tenants,
        n_sessions=args.sessions,
        n_requests=args.requests,
        min_pairs=1,
        max_pairs=3,
        max_length=22,
        swap_every=max(1, args.requests // 4),
    )
    config = ServeConfig(
        max_sessions=max(64, script.n_sessions),
        max_inflight_per_session=max(16, script.requests_per_session()),
        max_wait_s=0.02,
        target_batch_pairs=256,
    )
    sequential = replay_sequential(script)
    coalesced = replay_coalesced(script, config=config)
    worst = max(
        float(np.max(np.abs(sequential.scores[key] - coalesced.scores[key])))
        for key in sequential.scores
    )
    rows = [
        [name, str(value)] for name, value in sorted(coalesced.metrics.items())
    ]
    print(render_table(
        ["metric", "value"],
        rows,
        title=(
            f"Serving service: {script.n_requests} requests, "
            f"{script.n_sessions} sessions, {script.n_tenants} tenants, "
            f"{script.n_swaps} hot-swaps"
        ),
    ))
    speedup = sequential.seconds / max(coalesced.seconds, 1e-9)
    print(f"Coalesced replay: {coalesced.seconds:.3f}s vs sequential "
          f"{sequential.seconds:.3f}s ({speedup:.2f}x); "
          f"worst score deviation {worst:.2e}.")


def _cmd_retrieval(args: argparse.Namespace) -> None:
    from .eval.retrieval import (
        GATE_DATASETS,
        cheap_embeddings,
        task_generator,
        task_minimal_recall_k,
        task_recall_report,
    )
    from .retrieval import RetrievalConfig, candidate_recall

    if args.action == "gate":
        failed = False
        rows = []
        for name in GATE_DATASETS:
            task = load_dataset(name)
            report = task_recall_report(task, k=args.k)
            minimal = task_minimal_recall_k(task)
            rows.append(
                [
                    name,
                    str(report.k),
                    f"{report.num_hit}/{report.num_truth}",
                    f"{report.recall:.3f}",
                    str(minimal),
                    "PASS" if report.passed else "FAIL",
                ]
            )
            failed |= not report.passed
        print(render_table(
            ["dataset", "k", "retained", "recall", "minimal k", "gate"],
            rows,
            title=f"Recall@{args.k} gate (pruning may not drop a true match)",
        ))
        if failed:
            raise SystemExit(1)
        return

    task = load_dataset(args.dataset)
    if not task.ground_truth:
        raise SystemExit(f"{args.dataset} has no ground truth to evaluate against")
    source_refs = task.source.attribute_refs()
    target_refs = task.target.attribute_refs()
    rows = []
    # One single-retriever configuration per signal, then the fused stack.
    configurations = [
        ("sparse", RetrievalConfig(use_dense=False, use_sparse=True)),
        ("dense", RetrievalConfig(use_dense=True, use_sparse=False)),
        ("fused", RetrievalConfig()),
    ]
    embeddings = cheap_embeddings(task.target)
    for label, config in configurations:
        generator = task_generator(task, config=config, embeddings=embeddings)
        sets = generator.generate(args.k)
        report = candidate_recall(
            sets, task.ground_truth, source_refs, target_refs, dataset=task.name
        )
        minimal = task_minimal_recall_k(task, config=config, embeddings=embeddings)
        rows.append(
            [
                label,
                f"{report.num_hit}/{report.num_truth}",
                f"{report.recall:.3f}",
                str(minimal),
                str(sets.total_candidates()),
                str(len(source_refs) * len(target_refs)),
            ]
        )
    print(render_table(
        ["retriever", "retained", f"recall@{args.k}", "minimal k", "candidates", "full product"],
        rows,
        title=f"Retrieval on {args.dataset} ({len(source_refs)} x {len(target_refs)} attributes)",
    ))


def _cmd_drift(args: argparse.Namespace) -> None:
    from .core.config import LsmConfig
    from .datasets.drift import DriftConfig
    from .eval.drift import REPLAY_COLUMNS, run_drift_replay

    task = load_dataset(args.dataset)
    artifact_config = FAST_ARTIFACTS if args.fast else None
    lsm_config = LsmConfig(
        max_candidates_per_source=args.k,
        update_bert_every=10**9,  # isolate incremental re-scoring from retraining
        trace_path=args.trace,
    )
    drift_config = DriftConfig(
        num_deltas=args.deltas, ops_per_delta=args.ops, seed=args.seed
    )
    result = run_drift_replay(
        task,
        drift_config=drift_config,
        lsm_config=lsm_config,
        artifact_config=artifact_config,
    )
    for record in result.records:
        print(f"delta {record.step}: {record.delta}")
    print(render_table(
        REPLAY_COLUMNS,
        [record.as_row() for record in result.records],
        title=(
            f"Drift replay on {args.dataset} "
            f"({args.deltas} deltas x {args.ops} ops, seed {args.seed})"
        ),
    ))
    total = result.total_rescored + result.total_reused
    if total:
        print(
            f"Incremental re-matching reused {result.total_reused}/{total} "
            f"BERT pair scorings ({100.0 * result.reuse_fraction():.0f}%)."
        )
    if args.trace:
        print(f"Trace written to {args.trace}.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Learned Schema Matcher reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("stats", help="dataset statistics").set_defaults(
        func=_cmd_stats
    )

    baselines = subparsers.add_parser("baselines", help="run the six baselines")
    baselines.add_argument("dataset", choices=ALL_NAMES)
    baselines.set_defaults(func=_cmd_baselines)

    accuracy = subparsers.add_parser("accuracy", help="non-interactive LSM accuracy")
    accuracy.add_argument("dataset", choices=ALL_NAMES)
    accuracy.add_argument("--train-fraction", type=float, default=0.2)
    accuracy.add_argument("--trials", type=int, default=3)
    accuracy.set_defaults(func=_cmd_accuracy)

    session = subparsers.add_parser("session", help="interactive matching session")
    session.add_argument("dataset", choices=ALL_NAMES)
    session.add_argument("--noise", type=float, default=0.0)
    session.add_argument(
        "--strategy",
        choices=["least_confident_anchor", "random"],
        default="least_confident_anchor",
    )
    session.add_argument("--seed", type=int, default=0)
    session.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="stream an NDJSON trace of the session to this file",
    )
    session.set_defaults(func=_cmd_session)

    cache = subparsers.add_parser("cache", help="inspect the artefact store")
    cache.add_argument("action", choices=["stats", "verify", "clear"])
    cache.set_defaults(func=_cmd_cache)

    engine = subparsers.add_parser("engine", help="scoring-engine diagnostics")
    engine.add_argument("action", choices=["stats"])
    engine.add_argument("--dataset", choices=ALL_NAMES, default="rdb_star")
    engine.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads per scoring plan (default: the CPUs this process may use)",
    )
    engine.add_argument("--microbatch", type=int, default=MICROBATCH_SIZE)
    engine.add_argument("--bucket-granularity", type=int, default=BUCKET_GRANULARITY)
    engine.add_argument(
        "--fast", action="store_true", help="tiny artefacts for a quick smoke run"
    )
    engine.set_defaults(func=_cmd_engine)

    train = subparsers.add_parser("train", help="training fast-path diagnostics")
    train.add_argument("action", choices=["stats"])
    train.add_argument("--dataset", choices=ALL_NAMES, default="rdb_star")
    train.add_argument("--labels", type=int, default=3)
    train.add_argument(
        "--fast", action="store_true", help="tiny artefacts for a quick smoke run"
    )
    train.set_defaults(func=_cmd_train)

    serve = subparsers.add_parser("serve", help="serving-service diagnostics")
    serve.add_argument("action", choices=["stats"])
    serve.add_argument("--requests", type=int, default=120)
    serve.add_argument("--sessions", type=int, default=8)
    serve.add_argument("--tenants", type=int, default=2)
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_cmd_serve)

    retrieval = subparsers.add_parser(
        "retrieval", help="candidate-generation diagnostics"
    )
    retrieval.add_argument("action", choices=["stats", "gate"])
    retrieval.add_argument("--dataset", choices=ALL_NAMES, default="rdb_star")
    retrieval.add_argument("--k", type=int, default=20)
    retrieval.set_defaults(func=_cmd_retrieval)

    drift = subparsers.add_parser(
        "drift", help="schema-drift replay through the incremental matcher"
    )
    drift.add_argument("action", choices=["replay"])
    drift.add_argument("--dataset", choices=ALL_NAMES, default="customer_a")
    drift.add_argument("--deltas", type=int, default=3)
    drift.add_argument("--ops", type=int, default=2)
    drift.add_argument("--seed", type=int, default=0)
    drift.add_argument("--k", type=int, default=20, help="candidates per source")
    drift.add_argument(
        "--fast", action="store_true", help="tiny artefacts for a quick smoke run"
    )
    drift.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="stream an NDJSON trace of the replay to this file",
    )
    drift.set_defaults(func=_cmd_drift)

    trace = subparsers.add_parser("trace", help="render an NDJSON pipeline trace")
    trace.add_argument("action", choices=["summarize"])
    trace.add_argument("trace_file", help="NDJSON trace written via --trace/trace_path")
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
