"""Configuration of the Learned Schema Matcher."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import EngineConfig
from ..featurizers.bert import BertFeaturizerConfig
from ..retrieval import RetrievalConfig


@dataclass
class LsmConfig:
    """All knobs of the LSM pipeline, with the paper's defaults.

    Attributes
    ----------
    top_k:
        Number of matching suggestions per source attribute (paper: 3).
    labels_per_iteration:
        ``N``, the number of attributes the user labels per iteration
        (paper: typically 1).
    selection_strategy:
        ``"least_confident_anchor"`` (the paper's smart strategy) or
        ``"random"``.
    use_bert / use_embedding / use_lexical:
        Featurizer toggles; disabling BERT reproduces the Fig. 6 ablation.
    use_descriptions:
        Feed attribute descriptions to the featurizers (Fig. 7 ablation).
    apply_dtype_filter:
        Zero the score of dtype-incompatible pairs (§IV-D).
    apply_entity_penalty:
        Multiply scores into unmatched target entities by
        ``z = 1 / (1 + log(1 + sp))`` (§IV-D).
    max_candidates_per_source:
        Optional blocking: keep only this many target candidates per source
        attribute, produced by the retrieve-then-rerank generator configured
        through ``retrieval``, before BERT scoring.  ``None`` scores the
        full Cartesian product as in the paper.
    retrieval:
        Which retrievers the candidate generator fuses (dense, sparse);
        see :class:`repro.retrieval.RetrievalConfig`.  Only consulted when
        ``max_candidates_per_source`` is set.
    self_training_rounds / self_training_threshold:
        Semi-supervised self-training schedule of the meta-learner.
    seed:
        Master seed; all stochastic components derive from it.
    """

    top_k: int = 3
    labels_per_iteration: int = 1
    selection_strategy: str = "least_confident_anchor"
    use_bert: bool = True
    use_embedding: bool = True
    use_lexical: bool = True
    use_descriptions: bool = True
    apply_dtype_filter: bool = True
    apply_entity_penalty: bool = True
    max_candidates_per_source: int | None = None
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    self_training_rounds: int = 2
    self_training_threshold: float = 0.9
    meta_l2: float = 0.5
    meta_prior_blend_full_at: int = 5
    bert: BertFeaturizerConfig = field(default_factory=BertFeaturizerConfig)
    #: Scoring-engine knobs (micro-batching and worker parallelism); see
    #: :class:`repro.engine.EngineConfig`.
    engine: EngineConfig = field(default_factory=EngineConfig)
    update_bert_every: int = 1
    #: When set, the matcher traces its full pipeline (predict stages, the
    #: interactive session loop, engine/training/store activity) to this
    #: NDJSON file; ``repro trace summarize`` renders it.  ``None`` (the
    #: default) disables tracing entirely -- the hot paths run untraced.
    trace_path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.labels_per_iteration < 1:
            raise ValueError("labels_per_iteration must be >= 1")
        if self.selection_strategy not in {"least_confident_anchor", "random"}:
            raise ValueError(f"unknown selection strategy: {self.selection_strategy}")
        if not (self.use_bert or self.use_embedding or self.use_lexical):
            raise ValueError("at least one featurizer must be enabled")
        if not 0.5 < self.self_training_threshold <= 1.0:
            raise ValueError("self_training_threshold must be in (0.5, 1]")
