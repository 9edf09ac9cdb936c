"""The settable fields of every config object, pinned by name.

A config field is a knob every caller can turn and every reader has to
reason about.  One stays only if a caller outside the tests sets it (a
value nothing changes is a module constant next to the code that reads
it), so adding or removing a field must show up here as a reviewed diff.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import ArtifactConfig, LsmConfig
from repro.embeddings.ppmi import PpmiConfig
from repro.engine import EngineConfig
from repro.featurizers.bert import BertFeaturizerConfig
from repro.retrieval import RetrievalConfig
from repro.serve import ServeConfig

EXPECTED_FIELDS = {
    LsmConfig: (
        "top_k",
        "selection_strategy",
        "use_bert",
        "use_embedding",
        "use_lexical",
        "use_descriptions",
        "apply_dtype_filter",
        "apply_entity_penalty",
        "max_candidates_per_source",
        "retrieval",
        "self_training_rounds",
        "bert",
        "engine",
        "update_bert_every",
        "trace_path",
        "seed",
    ),
    BertFeaturizerConfig: (
        "max_length",
        "pretrain_epochs",
        "update_epochs",
        "batch_size",
        "iss_subsample_per_update",
        "seed",
    ),
    EngineConfig: ("microbatch_size", "n_workers"),
    ServeConfig: (
        "max_sessions",
        "max_inflight_per_session",
        "max_wait_s",
        "target_batch_pairs",
        "max_batch_pairs",
    ),
    ArtifactConfig: (
        "vocab_size",
        "hidden_size",
        "num_layers",
        "num_heads",
        "intermediate_size",
        "max_position",
        "mlm_epochs",
        "mlm_batch_size",
        "ppmi",
        "seed",
    ),
    PpmiConfig: ("dim",),
    RetrievalConfig: ("use_dense", "use_sparse"),
}


@pytest.mark.parametrize("config_class", EXPECTED_FIELDS, ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(config_class):
    assert tuple(f.name for f in fields(config_class)) == EXPECTED_FIELDS[config_class]
