"""Label-cost gate: customer C's interactive session on four config seeds.

Runs the paper's Fig. 9 loop (retrain, re-rank, review, label one
attribute) with ``experiment_lsm_config(seed=s)`` and the simulated user
seeded with ``s``, for ``s`` in :data:`SEEDS`.  Every session must confirm
all of customer C's source attributes correctly, with at most
:data:`MAX_LABELS` labels.  A change to what BERT rescores after an update,
or to what the meta-learner fits on, moves this number first.
"""

from __future__ import annotations

from conftest import register_report

from repro.datasets import load_dataset
from repro.eval.experiments import run_lsm_session
from repro.eval.reporting import render_table

SEEDS = (0, 1, 2, 3)
MAX_LABELS = 24


def test_session_labels():
    task = load_dataset("customer_c")
    expected = task.source.num_attributes
    rows = []
    failures = []
    for seed in SEEDS:
        result = run_lsm_session(task, seed=seed)
        correct = result.records[-1].matched_correct if result.records else 0
        rows.append([seed, f"{correct}/{expected}", result.total_labels, len(result.records)])
        if not result.completed or correct != expected:
            failures.append(f"seed {seed}: {correct}/{expected} correct")
        if result.total_labels > MAX_LABELS:
            failures.append(f"seed {seed}: {result.total_labels} labels > {MAX_LABELS}")
    register_report(
        render_table(
            ["seed", "matched correct", "labels", "iterations"],
            rows,
            title="Customer C session -- label cost per config seed",
        )
    )
    assert failures == []
