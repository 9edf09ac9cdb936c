"""End-to-end benchmark: Fig. 9 session, onboarding, drift and open-loop serving.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload session_c --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run plus the tracing overhead against an untraced run
of the same workload.  Every workload runs in its own child process, so
``peak_rss_mb`` is that workload's own.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
command exits non-zero when any correctness check fails.

The first run in a checkout builds the pre-trained retail vertical (about
half a minute) into ``benchmarks/e2e/.work/``; later runs restore it.  Full
results, with the environment they were measured in, go to
``benchmarks/e2e/.work/results/``.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: (name, unit): reported by every workload with ``--trace 0``.
END_TO_END = [
    ("latency_mean_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit): reported by every workload with ``--trace 1``; a layer a
#: workload does not reach reports 0.
PER_LAYER = [
    ("engine.self_s", "s"),
    ("engine.pairs_scored", "count"),
    ("engine.pairs_cached", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.microbatches", "count"),
    ("engine.inproc_batches", "count"),
    ("engine.shm_batches", "count"),
    ("engine.quant_batches", "count"),
    ("engine.fallbacks", "count"),
    ("train.self_s", "s"),
    ("train.steps", "count"),
    ("train.samples", "count"),
    ("bert.glue_self_s", "s"),
    ("encode.self_s", "s"),
    ("encode.token_hit_ratio", "ratio"),
    ("encode.pairs_assembled", "count"),
    ("featurizers.lexical_self_s", "s"),
    ("featurizers.embedding_self_s", "s"),
    ("retrieval.self_s", "s"),
    ("retrieval.pairs_kept", "count"),
    ("retrieval.prune_ratio", "ratio"),
    ("adjust.self_s", "s"),
    ("meta.self_s", "s"),
    ("selection.self_s", "s"),
    ("matcher.self_s", "s"),
    ("drift.self_s", "s"),
    ("drift.pairs_rescored", "count"),
    ("drift.pairs_reused", "count"),
    ("drift.reuse_ratio", "ratio"),
    ("candidates.self_s", "s"),
    ("oracle.self_s", "s"),
    ("store.self_s", "s"),
    ("store.loads", "count"),
    ("store.saves", "count"),
    ("store.quarantined", "count"),
    ("scheduler.self_s", "s"),
    ("serve.service_self_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_pairs_mean", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("residency.publish_s", "s"),
    ("residency.publishes", "count"),
    ("residency.evictions_refused", "count"),
    ("residency.pin_s", "s"),
    ("serve.backend_self_s", "s"),
    ("loadgen.self_s", "s"),
    ("loadgen.max_late_ms", "ms"),
    ("loop.idle_s", "s"),
    ("session.labels_used", "count"),
    ("quality.top1_acc", "ratio"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
]

WORKLOAD_NAMES = ("session_c", "onboard_e", "drift_c", "serve_ladder")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: A child that takes longer is killed; the driver allows 180 s per run.
CHILD_TIMEOUT_S = 170


def require_sources() -> None:
    """Exit non-zero unless the library sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- child: one workload, traced or not ------------------------------------------


def summarize(outcome, ctx, traced: bool) -> dict:
    """Turn a workload's samples, spans and counts into metric values."""
    import numpy as np

    import layers

    samples = outcome.samples_ms
    payload = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "samples_ms": samples,
        "setup_runs_s": outcome.setup_s,
        "info": outcome.info,
        "end_to_end": {
            "latency_mean_ms": float(np.mean(samples)),
            "latency_p90_ms": float(np.percentile(samples, 90)),
            "setup_s": statistics.median(outcome.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall_s": ctx.wall_s,
    }
    if traced:
        spans = ctx.recorder.spans
        per_layer = {name: 0.0 for name, _ in PER_LAYER}
        for layer, seconds in layers.layer_self_seconds(spans).items():
            per_layer[layers.LAYER_METRICS[layer]] += seconds
        driving = layers.layer_self_seconds(spans, thread=threading.get_ident())
        unattributed = max(0.0, ctx.wall_s - outcome.idle_s - sum(driving.values()))
        per_layer.update(outcome.counts)
        per_layer.update(
            {
                "loop.idle_s": outcome.idle_s,
                "traced_wall_s": ctx.wall_s,
                "unattributed_s": unattributed,
                "unattributed_frac": unattributed / ctx.wall_s if ctx.wall_s else 0.0,
            }
        )
        payload["per_layer"] = per_layer
        payload["span_calls"] = layers.layer_calls(spans)
    return payload


def write_spans(path: Path, spans) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            record = {
                "id": span.span_id,
                "parent": span.parent_id,
                "layer": span.layer,
                "name": span.name,
                "thread": span.thread,
                "start": span.start,
                "end": span.end,
            }
            if span.attrs:
                record["attrs"] = span.attrs
            handle.write(json.dumps(record) + "\n")


def child(args: argparse.Namespace) -> int:
    import layers
    import workloads

    recorder = layers.SpanRecorder() if args.traced else None
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        snapshot=Path(args.snapshot),
        scratch=Path(args.scratch),
        recorder=recorder,
    )
    run = workloads.WORKLOADS[args.workload]
    if recorder is not None:
        with recorder.installed(layers.entry_points()):
            outcome = run(ctx)
    else:
        outcome = run(ctx)
    payload = summarize(outcome, ctx, bool(args.traced))
    if recorder is not None and args.spans:
        write_spans(Path(args.spans), recorder.spans)
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    return 0


# -- parent: orchestration, environment, output -----------------------------------


def spawn(workload: str, args: argparse.Namespace, snapshot: Path, traced: bool, stem: str) -> dict:
    tag = f"{stem}-{'traced' if traced else 'untraced'}"
    out = WORK / "results" / f"{tag}.child.json"
    scratch = WORK / "scratch" / tag
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--snapshot",
        str(snapshot),
        "--out",
        str(out),
        "--scratch",
        str(scratch),
    ]
    if traced:
        command += ["--traced", "--spans", str(WORK / "traces" / f"{stem}.spans.jsonl")]
    try:
        # A child that outlives the timeout is killed and waited for.
        completed = subprocess.run(command, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {completed.returncode}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return payload


def blas_info() -> object:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        dependencies = config.get("Build Dependencies", {})
        return {key: dependencies.get(key) for key in ("blas", "lapack")}
    except TypeError:  # numpy without the dicts mode prints its config
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            np.show_config()
        return buffer.getvalue()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    import vertical

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
        "src_hash": vertical.source_hash(SRC),
    }


def run_workload(workload: str, args: argparse.Namespace, snapshot: Path) -> dict:
    stem = f"{time.strftime('%Y%m%dT%H%M%S')}-{workload}-seed{args.seed}-{os.getpid()}"
    untraced = spawn(workload, args, snapshot, traced=False, stem=stem)
    result = {"untraced": untraced}
    if args.trace:
        traced = spawn(workload, args, snapshot, traced=True, stem=stem)
        per_layer = traced["per_layer"]
        base = untraced["end_to_end"]["latency_mean_ms"]
        per_layer["trace_overhead_frac"] = (
            traced["end_to_end"]["latency_mean_ms"] / base - 1.0 if base else 0.0
        )
        result["traced"] = traced
        metrics = {name: (per_layer[name], unit) for name, unit in PER_LAYER}
        runs = [untraced, traced]
    else:
        metrics = {name: (untraced["end_to_end"][name], unit) for name, unit in END_TO_END}
        runs = [untraced]
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result["errors"] = [error for run in runs for error in run["errors"]]
    result["attempted"] = runs[-1]["attempted"]
    result["failed"] = runs[-1]["failed"]
    return result


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="length of the serve ladder's 50 req/s rung (the other workloads "
        "each run one fixed unit of work, longer than this)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the per-workload child process.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--snapshot", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    require_sources()
    if args.child:
        return child(args)

    import vertical

    for directory in ("results", "traces", "scratch"):
        (WORK / directory).mkdir(parents=True, exist_ok=True)
    snapshot, build_s = vertical.ensure_snapshot(WORK, SRC)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, snapshot) for name in names}

    report = {
        "args": {k: getattr(args, k) for k in ("workload", "seed", "seconds", "trace")},
        "environment": environment(),
        "vertical_build_s": build_s,
        "workloads": results,
    }
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (WORK / "results" / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )

    prefix = len(names) > 1
    metrics = {}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<13} {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
            metrics[f"{name}.{metric}" if prefix else metric] = entry
        for error in result["errors"]:
            print(f"{name:<13} CHECK FAILED: {error}")
    correct = not any(result["errors"] for result in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
