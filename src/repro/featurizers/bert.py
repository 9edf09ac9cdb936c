"""The BERT featurizer: MiniBERT + the paper's ``matching classifier``.

This is the key innovation of LSM (Section IV-C1).  The featurizer

1. frames candidate-pair scoring as binary text classification over the
   sentence ``[CLS] a_s.name a_s.desc [SEP] a_t.name a_t.desc [SEP]``;
2. adds a single-hidden-layer classifier (the *matching classifier*) on the
   [CLS] hidden state;
3. **pre-trains** the matching classifier once per ISS from schema-only
   samples -- *self-repeating*, *self-explaining* and *PK/FK-linking*
   positives, with randomly corrupted one-sided negatives;
4. **updates** on human labels during the interactive loop, weighting them
   above the ISS-generated samples.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .. import obs
from ..lm.bert import MiniBert
from ..lm.encode_plane import BatchHalves, EncodePlane
from ..lm.tokenizer import EncodedPair, WordPieceTokenizer
from ..nn.activations import relu, relu_backward, sigmoid
from ..nn.layers import (
    Dropout,
    Linear,
    Module,
    Parameter,
    inference_active,
    inference_scope,
    weight_sharing_copy,
)
from ..nn.losses import binary_cross_entropy_with_logits
from ..nn.optim import Adam, clip_gradients
from ..nn.stats import TrainStats
from ..schema.model import Schema
from ..text.abbrev import expand_tokens
from ..text.lexicon import SynonymLexicon, default_lexicon
from ..text.tokenize import name_and_description_tokens, split_identifier, words
from .base import AttributePairView, PairBatch


class MatchingClassifier(Module):
    """Single-hidden-layer binary classifier over encoder match features.

    The paper attaches the classifier to the BERT [CLS] state.  Our
    from-scratch MiniBERT is orders of magnitude smaller than BERT-base, so
    the classifier input is augmented with explicit cross-segment
    interaction features computed from the same encoder output -- the
    SBERT-style ``[cls, |u - v|, u * v]`` with ``u``/``v`` the mean-pooled
    hidden states of the two segments.  This compensates for the capacity
    gap without changing the training protocol (see DESIGN.md).
    """

    #: Number of hidden-size-wide feature channels fed to the classifier:
    #: pooled CLS, |u - v|, u * v (contextual), |u0 - v0|, u0 * v0 (embedding
    #: layer, detached).
    NUM_CHANNELS = 5
    #: Scalar features prepended to the channels: cos(u, v) and cos(u0, v0).
    #: With a handful of labels a 300-dimensional input is unidentifiable;
    #: the explicit cosines give the few-sample regime a 2-dimensional
    #: signal that already ranks well, while the wide channels add capacity
    #: once more labels arrive.
    NUM_SCALARS = 2

    def __init__(self, hidden_size: int, classifier_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.scalar_path = self.add_child("scalar_path", Linear(self.NUM_SCALARS, 1, rng))
        # Start ranking from the distributional geometry: the raw-embedding
        # cosine (channel 1) is reliable out of the box, while the contextual
        # cosine (channel 0) must earn its weight through training.
        self.scalar_path.weight.value[0] = 0.0
        self.scalar_path.weight.value[1] = 3.0
        self.scalar_path.bias.value[:] = -1.0
        self.hidden = self.add_child(
            "hidden", Linear(self.NUM_CHANNELS * hidden_size, classifier_size, rng)
        )
        self.output = self.add_child("output", Linear(classifier_size, 1, rng))
        # Zero-init the channel path's output so it starts silent: with few
        # labels the logit is driven by the (well-behaved) cosine scalars and
        # the high-dimensional path only speaks once training shapes it.
        self.output.weight.value[:] = 0.0
        self._relu_cache: np.ndarray | None = None

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Match features (B, NUM_SCALARS + NUM_CHANNELS * H) -> logits (B,)."""
        scalars = features[:, : self.NUM_SCALARS]
        channels = features[:, self.NUM_SCALARS :]
        scalar_logits = self.scalar_path.forward(scalars)[:, 0]
        activated, relu_cache = relu(self.hidden.forward(channels))
        if not inference_active():
            self._relu_cache = relu_cache
        channel_logits = self.output.forward(activated)[:, 0]
        return scalar_logits + channel_logits

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        if self._relu_cache is None:
            raise RuntimeError("MatchingClassifier: backward before forward")
        grad_scalars = self.scalar_path.backward(grad_logits[:, None])
        grad_activated = self.output.backward(grad_logits[:, None])
        grad_hidden = relu_backward(grad_activated, self._relu_cache)
        self._relu_cache = None
        grad_channels = self.hidden.backward(grad_hidden)
        return np.concatenate([grad_scalars, grad_channels], axis=1)


def activate_channel_path(
    classifier: MatchingClassifier, seed: int = 0, scale: float = 0.3
) -> None:
    """Give the classifier's channel path seeded non-zero output weights.

    At init the channel path is silent (``output.weight == 0`` and the
    contextual-cosine scalar weight is 0), so scores depend only on raw
    embeddings and never on a transformer block.  Parity checks and
    benchmarks call this so the encoder's hidden states reach the logit the
    way training would wire them.
    """
    rng = np.random.default_rng(seed)
    shape = classifier.output.weight.value.shape
    classifier.output.weight.value[:] = (
        rng.standard_normal(shape) * scale
    ).astype(np.float32)
    classifier.scalar_path.weight.value[0] = 1.0


# -- pure scoring functions ------------------------------------------------------


def segment_content_masks(
    special_ids: Sequence[int], batch: EncodedPair
) -> tuple[np.ndarray, np.ndarray]:
    """Float masks (B, T) selecting the *content* tokens of each segment.

    [CLS]/[SEP]/[PAD] are excluded so the segment means reflect the
    attribute text only.
    """
    special = sorted(special_ids)
    content = (~np.isin(batch.input_ids, special)).astype(np.float32)
    attention = batch.attention_mask.astype(np.float32) * content
    segment_b = (batch.segment_ids == 1).astype(np.float32) * attention
    segment_a = (batch.segment_ids == 0).astype(np.float32) * attention
    return segment_a, segment_b


def compute_match_features(
    model: MiniBert,
    special_ids: Sequence[int],
    batch: EncodedPair,
    trunk_hidden: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Encoder forward producing the matching classifier's input features.

    Channels: pooled CLS, |u - v| and u * v from the contextual hidden
    states, plus |u0 - v0| and u0 * v0 from the (detached) raw token
    embeddings -- the latter carry the distributional word geometry
    directly, without positional/segment additions.  The returned cache
    feeds :func:`backward_match_features` during training.
    ``trunk_hidden``, the trunk's output for ``batch`` computed beforehand,
    makes the forward run only the top block and the pooler.
    """
    if batch.input_ids.ndim != 2:
        raise ValueError(
            f"compute_match_features expects a batched EncodedPair with 2-D "
            f"input_ids, got shape {batch.input_ids.shape}; wrap single pairs "
            f"with stack_encoded"
        )
    if trunk_hidden is None:
        hidden, pooled = model.forward(batch)
    else:
        hidden, pooled = model.forward_top(trunk_hidden, batch.attention_mask)
    embedded = model.token_embedding.table.value[batch.input_ids]
    mask_a, mask_b = segment_content_masks(special_ids, batch)
    count_a = np.maximum(mask_a.sum(axis=1, keepdims=True), 1.0)
    count_b = np.maximum(mask_b.sum(axis=1, keepdims=True), 1.0)
    # Segment sums as one batched (2 x T) @ (T x H) matmul per row, not a
    # masked copy of the hidden states reduced over the token axis.
    masks = np.stack([mask_a, mask_b], axis=1)
    sums = masks @ hidden
    sums0 = masks @ embedded
    u = sums[:, 0] / count_a
    v = sums[:, 1] / count_b
    u0 = sums0[:, 0] / count_a
    v0 = sums0[:, 1] / count_b

    def batched_cosine(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        norms[norms == 0.0] = 1.0
        return ((x * y).sum(axis=1) / norms)[:, None]

    cosine_uv = batched_cosine(u, v)
    features = np.concatenate(
        [
            cosine_uv,
            batched_cosine(u0, v0),
            pooled,
            np.abs(u - v),
            u * v,
            np.abs(u0 - v0),
            u0 * v0,
        ],
        axis=1,
    )
    cache = {
        "mask_a": mask_a,
        "mask_b": mask_b,
        "count_a": count_a,
        "count_b": count_b,
        "u": u,
        "v": v,
        "cosine_uv": cosine_uv[:, 0],
        "hidden_shape": hidden.shape,
    }
    return features, cache


def score_encoded_batch(
    model: MiniBert,
    classifier: MatchingClassifier,
    special_ids: Sequence[int],
    batch: EncodedPair,
    trunk_hidden: np.ndarray | None = None,
) -> np.ndarray:
    """Similarity probabilities in [0, 1] for one batched encoded input.

    Runs inside :func:`repro.nn.inference_scope`: it writes no layer cache,
    so threads may call it concurrently on one shared model, and it leaves
    a pending training forward's caches intact for that forward's backward.
    ``trunk_hidden``, the trunk's output for ``batch`` (the scoring engine's
    trunk store), makes it run only the top block, the match features and
    the classifier.
    """
    with inference_scope():
        features, _cache = compute_match_features(model, special_ids, batch, trunk_hidden)
        logits = classifier.forward(features)
    return sigmoid(logits.astype(np.float64))


def backward_match_features(model: MiniBert, grad_features: np.ndarray, cache: dict) -> None:
    """Backpropagate match-feature gradients into ``model``'s top block and pooler.

    ``cache`` is :func:`compute_match_features`'s for the same batch.  The
    gradient stops at the top block: a label update's trunk is frozen, so
    the block's input gradient is not computed.
    """
    size = model.config.hidden_size
    offset = MatchingClassifier.NUM_SCALARS
    grad_pooled = grad_features[:, offset : offset + size]
    grad_absdiff = grad_features[:, offset + size : offset + 2 * size]
    grad_product = grad_features[:, offset + 2 * size : offset + 3 * size]
    # The embedding-layer scalar/channels (cos(u0, v0) and channels 4-5)
    # are detached by design; cos(u, v) backpropagates into the encoder.
    u, v = cache["u"], cache["v"]
    sign = np.sign(u - v)
    grad_u = grad_absdiff * sign + grad_product * v
    grad_v = -grad_absdiff * sign + grad_product * u

    grad_cosine = grad_features[:, 0]
    norm_u = np.linalg.norm(u, axis=1)
    norm_v = np.linalg.norm(v, axis=1)
    safe = (norm_u > 0) & (norm_v > 0)
    if safe.any():
        cosine = cache["cosine_uv"]
        inv_u = np.where(safe, 1.0 / np.maximum(norm_u, 1e-12), 0.0)
        inv_v = np.where(safe, 1.0 / np.maximum(norm_v, 1e-12), 0.0)
        coeff = (grad_cosine * inv_u * inv_v)[:, None]
        grad_u = grad_u + coeff * v - (
            grad_cosine * cosine * inv_u**2
        )[:, None] * u
        grad_v = grad_v + coeff * u - (
            grad_cosine * cosine * inv_v**2
        )[:, None] * v
    # Every operand above is float32 (features, cache arrays and the loss
    # gradient all follow the model dtype), so grad_hidden is float32
    # by construction -- no astype needed.
    grad_hidden = (
        cache["mask_a"][..., None] * (grad_u / cache["count_a"])[:, None, :]
        + cache["mask_b"][..., None] * (grad_v / cache["count_b"])[:, None, :]
    )
    model.backward_top(grad_hidden=grad_hidden, grad_pooled=grad_pooled, input_grad=False)


@dataclass(frozen=True)
class TrainingSample:
    """One classifier-training sentence pair with its label and weight."""

    words_a: tuple[str, ...]
    words_b: tuple[str, ...]
    label: int
    weight: float
    kind: str  # self-repeating | self-explaining | pkfk | negative | human


def _attribute_words(schema: Schema, entity_name: str, attribute_name: str) -> tuple[str, ...]:
    attribute = schema.entity(entity_name).attribute(attribute_name)
    return tuple(name_and_description_tokens(attribute.name, attribute.description))


def _synonym_paraphrases(
    tokens: list[str],
    lexicon: SynonymLexicon,
    rng: np.random.Generator,
    limit: int = 2,
) -> list[tuple[str, ...]]:
    """Paraphrases of an attribute name: synonym renames + expansions.

    Real BERT arrives knowing that *discount* and *markdown* co-refer; our
    from-scratch encoder must be taught.  Besides the corpus-level signal,
    the matching classifier is pre-trained on positives pairing each ISS
    attribute with lexicon-synonym and abbreviation-expanded paraphrases of
    its own name -- schema-only data augmentation that injects the same
    invariance at the point of use (see DESIGN.md).
    """
    paraphrases: list[tuple[str, ...]] = []
    for span in range(len(tokens), 0, -1):
        if len(paraphrases) >= limit:
            break
        for start in range(0, len(tokens) - span + 1):
            phrase = " ".join(tokens[start : start + span])
            synonym = lexicon.random_synonym(phrase, rng)
            if synonym is not None and synonym != phrase:
                paraphrases.append(
                    tuple(tokens[:start] + synonym.split() + tokens[start + span :])
                )
                break
    expanded = tuple(expand_tokens(tokens))
    if expanded != tuple(tokens):
        paraphrases.append(expanded)
    return paraphrases[:limit]


def generate_pretraining_samples(
    schema: Schema,
    rng: np.random.Generator,
    negatives_per_positive: int = 1,
    lexicon: SynonymLexicon | None = None,
) -> list[TrainingSample]:
    """The paper's ISS-only pre-training set for the matching classifier.

    Positives: *self-repeating* ("[CLS] a a [SEP]"-style identity pairs),
    *self-explaining* (name vs. its own description, when one exists),
    *PK/FK-linking* (the two ends of each relationship) and
    *synonym-paraphrasing* (the name vs. a lexicon paraphrase of it; see
    :func:`_synonym_paraphrases`).

    Negatives corrupt one side of each positive by swapping in a different
    attribute; alternate corruption rounds draw the replacement from the
    *same entity* (hard negatives such as ``product_name`` vs
    ``product_id``), forcing the classifier to rely on genuine semantic
    similarity rather than shared vocabulary.
    """
    lexicon = lexicon or default_lexicon()
    attribute_pool: list[tuple[str, ...]] = []
    entity_of: list[str] = []
    #: (sample, index of its anchor attribute in attribute_pool)
    positives: list[tuple[TrainingSample, int]] = []
    for ref, attribute in schema.iter_attributes():
        anchor = len(attribute_pool)
        attribute_text = tuple(
            name_and_description_tokens(attribute.name, attribute.description)
        )
        attribute_pool.append(attribute_text)
        entity_of.append(ref.entity)
        positives.append(
            (TrainingSample(attribute_text, attribute_text, 1, 1.0, "self-repeating"), anchor)
        )
        if attribute.description:
            positives.append(
                (
                    TrainingSample(
                        tuple(split_identifier(attribute.name)),
                        tuple(words(attribute.description)),
                        1,
                        1.0,
                        "self-explaining",
                    ),
                    anchor,
                )
            )
        name_tokens = list(split_identifier(attribute.name))
        for paraphrase in _synonym_paraphrases(name_tokens, lexicon, rng):
            positives.append(
                (
                    TrainingSample(paraphrase, attribute_text, 1, 1.0, "synonym-paraphrase"),
                    anchor,
                )
            )

    pool_index = {text: i for i, text in enumerate(attribute_pool)}
    for relationship in schema.relationships:
        child_words = _attribute_words(
            schema, relationship.child.entity, relationship.child.attribute
        )
        parent_words = _attribute_words(
            schema, relationship.parent.entity, relationship.parent.attribute
        )
        positives.append(
            (TrainingSample(child_words, parent_words, 1, 1.0, "pkfk"), pool_index[child_words])
        )

    siblings_of: dict[str, list[int]] = {}
    for index, entity in enumerate(entity_of):
        siblings_of.setdefault(entity, []).append(index)

    samples = [sample for sample, _ in positives]
    num_attributes = len(attribute_pool)
    if num_attributes > 1:
        for sample, anchor in positives:
            for negative_round in range(negatives_per_positive):
                pool: list[int] = []
                if negative_round % 2 == 1:
                    pool = [
                        i
                        for i in siblings_of.get(entity_of[anchor], [])
                        if attribute_pool[i] != sample.words_b
                    ]
                if pool:
                    corrupt = attribute_pool[pool[int(rng.integers(len(pool)))]]
                else:
                    corrupt = attribute_pool[int(rng.integers(num_attributes))]
                    if corrupt == sample.words_b:
                        corrupt = attribute_pool[
                            (pool_index[corrupt] + 1) % num_attributes
                        ]
                if rng.random() < 0.5:
                    samples.append(
                        TrainingSample(sample.words_a, corrupt, 0, 1.0, "negative")
                    )
                else:
                    samples.append(
                        TrainingSample(corrupt, sample.words_b, 0, 1.0, "negative")
                    )
    return samples


#: Hidden width of the matching classifier's channel path.
CLASSIFIER_SIZE = 32
#: Adam learning rate of pretraining and of label updates.
LR = 1e-3
#: Learning-rate multiplier for the classifier's high-dimensional channel
#: path.  The scalar-cosine path and the encoder learn at :data:`LR`; the
#: wide path learns slower so it cannot overfit the (small) schema-only
#: pre-training set and corrupt the similarity ranking.
CHANNEL_LR_SCALE = 0.1
#: Loss weight of a human-labeled sample; ISS samples weigh 1.
HUMAN_SAMPLE_WEIGHT = 8.0
#: Each human-labeled pair is replicated this many times in the update
#: training set, so a lone label is actually present in most mini-batches
#: instead of being drowned by the ISS regulariser samples.
HUMAN_OVERSAMPLE = 4
#: Global gradient-norm clip of every training step.
MAX_GRAD_NORM = 1.0
#: Corrupted negatives generated per pre-training positive.
NEGATIVES_PER_POSITIVE = 1
#: Row shards of every label-update step, each trained on its own thread
#: when the engine has two.  Fixed rather than the engine's thread count,
#: so an update gives the same bits on every machine (see DESIGN.md).
TRAIN_SHARDS = 2


@dataclass
class BertFeaturizerConfig:
    """Training/runtime knobs of the BERT featurizer."""

    max_length: int = 32
    pretrain_epochs: int = 2
    update_epochs: int = 2
    batch_size: int = 64
    iss_subsample_per_update: int = 192
    seed: int = 0


def pretrain_key_payload(config: BertFeaturizerConfig) -> dict:
    """Every value :meth:`BertFeaturizer.pretrain` reads (sample generation,
    the scalar-path-only training pass and the classifier's shape and seed);
    the pretrained-block key hashes only these."""
    return {
        "max_length": config.max_length,
        "classifier_size": CLASSIFIER_SIZE,
        "pretrain_epochs": config.pretrain_epochs,
        "batch_size": config.batch_size,
        "lr": LR,
        "max_grad_norm": MAX_GRAD_NORM,
        "negatives_per_positive": NEGATIVES_PER_POSITIVE,
        "seed": config.seed,
    }


def trained_parameters(
    model: MiniBert, classifier: MatchingClassifier
) -> tuple[dict[str, Parameter], dict[str, Parameter]]:
    """``(fast, channel)``: the parameters a label update trains, by learning rate.

    The fast group is the classifier's scalar path and the encoder's top
    block and pooler, at :data:`LR`; the channel group is the classifier's
    channel path, at ``LR * CHANNEL_LR_SCALE``.
    """
    fast = {
        **classifier.scalar_path.parameters("classifier.scalar_path."),
        **model.top_parameters("bert."),
    }
    channel = {
        **classifier.hidden.parameters("classifier.hidden."),
        **classifier.output.parameters("classifier.output."),
    }
    return fast, channel


class _TrainShard:
    """One row shard of every label-update step, on its own replica of the
    trained modules: the encoder's top block and pooler
    (:meth:`MiniBert.top_replica`) and the matching classifier.

    The replica shares the featurizer's weight arrays and keeps its own
    grads, caches and dropout generator, so shards run on threads at once.
    """

    def __init__(
        self,
        model: MiniBert,
        classifier: MatchingClassifier,
        special_ids: list[int],
        dropout_generator: np.random.Generator,
    ) -> None:
        self.model = model.top_replica()
        self.classifier = weight_sharing_copy(classifier)
        self.special_ids = special_ids
        modules: list[Module] = [self.model.blocks[-1]]
        while modules:
            module = modules.pop()
            if isinstance(module, Dropout):
                module.rng = dropout_generator
            modules.extend(module._children.values())
        self.model.train_top()
        self.classifier.train()
        fast, channel = trained_parameters(self.model, self.classifier)
        self.parameters = {**fast, **channel}

    def run(
        self,
        batch: EncodedPair,
        trunk_hidden: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        share: float,
    ) -> float:
        """Forward, loss and backward of this shard's rows; returns its loss.

        The loss gradient is scaled by ``share``, the shard's part of the
        step's total sample weight, so the shards' grads sum to the step's.
        """
        for parameter in self.parameters.values():
            parameter.zero_grad()
        features, cache = compute_match_features(
            self.model, self.special_ids, batch, trunk_hidden
        )
        logits = self.classifier.forward(features)
        loss, grad_logits = binary_cross_entropy_with_logits(logits, labels, weights=weights)
        grad_logits *= share
        backward_match_features(self.model, self.classifier.backward(grad_logits), cache)
        return loss


class BertFeaturizer:
    """Cross-encoder similarity scorer with per-ISS pre-training."""

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        model: MiniBert,
        config: BertFeaturizerConfig | None = None,
        engine_config: "EngineConfig | None" = None,
        engine_cache_token: str | None = None,
    ) -> None:
        """``engine_cache_token`` is accepted and ignored: the engine keeps
        its scores in memory only.  The end-to-end benchmark's vertical
        build still passes it."""
        from ..engine import ScoringEngine

        self.tokenizer = tokenizer
        # Fine-tuning mutates the encoder; work on a private copy so shared
        # per-vertical artefacts stay pristine across matchers and trials.
        self.model = copy.deepcopy(model)
        self.model.zero_grad()  # drop whatever grads the source model's last step left
        self.config = config or BertFeaturizerConfig()
        rng = np.random.default_rng(self.config.seed)
        self.classifier = MatchingClassifier(
            model.config.hidden_size, CLASSIFIER_SIZE, rng
        )
        self._rng = np.random.default_rng(self.config.seed + 1)
        self._iss_samples: list[TrainingSample] = []
        self._human_samples: list[TrainingSample] = []
        #: All encoding goes through the vectorized encode plane: attribute
        #: token caching, per-attribute id tables, and batch assembly
        #: gathered from them (see :mod:`repro.lm.encode_plane`).
        self.encode_plane = EncodePlane(tokenizer, max_length=self.config.max_length)
        #: The label updates' Adam optimisers, created by the first update and
        #: reused by every later one (moment estimates and step counts).
        self._warm_optimizers: list[Adam] | None = None
        #: The label updates' row shards (see :meth:`_train`), built by the
        #: first update.
        self._shards: list[_TrainShard] | None = None
        #: Per-stage timings and counters of every training pass (pretrain
        #: and updates); surfaced via ``repro train stats``.
        self.train_stats = TrainStats()
        #: The batched/parallel/incremental scoring path; all inference goes
        #: through it so cached scores survive predict() calls that did not
        #: change the weights.
        self.engine = ScoringEngine(
            self.model,
            self.classifier,
            sorted(self.tokenizer.vocab.special_ids()),
            config=engine_config,
        )

    @property
    def name(self) -> str:
        return "bert"

    @property
    def model_version(self) -> int:
        """Monotonic weight version (bumps on every training pass).

        The matcher's BERT feature column records it, so a training pass
        marks every row of that column dirty.
        """
        return self.engine.model_version

    # -- encoding ---------------------------------------------------------------

    def _encode_samples(
        self, samples: Sequence[TrainingSample]
    ) -> tuple[BatchHalves, np.ndarray]:
        """``(distinct, rows)``: the distinct samples' halves and each sample's row.

        Equal samples share one row, in first-appearance order (human
        samples repeat :data:`HUMAN_OVERSAMPLE` times); the distinct samples are
        encoded in one :meth:`EncodePlane.batch_halves_for_words` call, whose
        token store already holds every word sequence seen before.
        """
        row_of: dict[TrainingSample, int] = {}
        rows = np.array(
            [row_of.setdefault(sample, len(row_of)) for sample in samples], dtype=np.intp
        )
        distinct = self.encode_plane.batch_halves_for_words(
            [(sample.words_a, sample.words_b) for sample in row_of]
        )
        return distinct, rows

    def _batch_halves(self, batch: PairBatch) -> BatchHalves:
        """The batch as per-attribute id tables, truncated and fingerprinted."""
        plane = self.encode_plane
        halves = plane.batch_halves(
            list(zip(batch.sources.names, batch.sources.descriptions)),
            list(zip(batch.targets.names, batch.targets.descriptions)),
            batch.source_index,
            batch.target_index,
        )
        return replace(halves, fingerprints=plane.fingerprint_rows(halves))

    # -- encoder match features --------------------------------------------------

    def _forward_features(
        self, batch: EncodedPair, trunk_hidden: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict]:
        """Classifier input features for ``batch`` (see :func:`compute_match_features`)."""
        return compute_match_features(
            self.model, sorted(self.tokenizer.vocab.special_ids()), batch, trunk_hidden
        )

    # -- training ---------------------------------------------------------------

    def _encoded_samples(
        self, samples: Sequence[TrainingSample]
    ) -> tuple[BatchHalves, np.ndarray, np.ndarray, np.ndarray]:
        """``samples`` encoded (see :meth:`_encode_samples`), with their labels
        and weights in float32 -- every training step runs in the model dtype."""
        with self.train_stats.timer("encode"):
            distinct, rows = self._encode_samples(samples)
        labels = np.asarray([sample.label for sample in samples], dtype=np.float32)
        weights = np.asarray([sample.weight for sample in samples], dtype=np.float32)
        return distinct, rows, labels, weights

    def _steps(self, lengths: np.ndarray, epochs: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(padded length, sample indices)`` for every step of ``epochs`` passes.

        Each epoch draws a fresh shuffle of the samples from the
        featurizer's generator, then plans over it with
        :func:`repro.engine.batching.plan_training_chunks`, which draws the
        chunk order from the same generator.
        """
        # Imported lazily like ScoringEngine in __init__ to keep featurizers
        # importable without the engine package.
        from ..engine.batching import plan_training_chunks

        stats = self.train_stats
        for _ in range(max(1, epochs)):
            stats.epochs += 1
            order = self._rng.permutation(len(lengths))
            with stats.timer("bucket"):
                chunks = plan_training_chunks(
                    lengths[order].tolist(), self.config.batch_size, self._rng
                )
            stats.buckets += len({padded for padded, _chunk in chunks})
            for padded, chunk in chunks:
                index = order[chunk]
                stats.steps += 1
                stats.microbatches += 1
                stats.samples += len(index)
                yield padded, index

    def _fit_scalar_path(self, samples: Sequence[TrainingSample]) -> list[float]:
        """Schema-only pretraining: fit ``classifier.scalar_path`` on ``samples``.

        Pretraining calibrates only the scalar path, a monotone reweighting
        of cos(u, v) and cos(u0, v0) that cannot corrupt rankings.  The
        channel path is silent (``output.weight == 0``), so its logit is the
        constant ``output.bias``.  The encoder therefore runs once per
        sample, in eval mode inside :func:`inference_scope`, over bucketed
        micro-batches gathered from the encode plane, to cache the two
        cosines; the Adam steps then walk the same shuffles and chunk plans
        as :meth:`_train` over the cached ``(N, 2)`` array.
        """
        classifier = self.classifier
        if classifier.output.weight.value.any():
            raise ValueError(
                "pretraining fits the scalar path alone and needs a silent "
                "channel path (classifier.output.weight == 0)"
            )
        from ..engine.batching import plan_bucket_chunks

        stats = self.train_stats
        distinct, rows, labels, weights = self._encoded_samples(samples)
        halves = distinct.take(rows)
        num_scalars = MatchingClassifier.NUM_SCALARS
        cosines = np.empty((len(halves), num_scalars), dtype=np.float32)
        with stats.timer("forward"), inference_scope():
            for padded, chunk in plan_bucket_chunks(
                halves.lengths.tolist(), microbatch_size=self.config.batch_size
            ):
                batch = self.encode_plane.assemble(halves.take(chunk), pad_to=padded)
                features, _cache = self._forward_features(batch)
                cosines[chunk] = features[:, :num_scalars]
        scalar_path = classifier.scalar_path
        parameters = scalar_path.parameters("classifier.scalar_path.")
        optimizer = Adam(parameters, lr=LR)
        stats.cold_starts += 1
        channel_logit = classifier.output.bias.value[0]
        losses: list[float] = []
        for _padded, index in self._steps(halves.lengths, self.config.pretrain_epochs):
            logits = scalar_path.forward(cosines[index])[:, 0] + channel_logit
            loss, grad_logits = binary_cross_entropy_with_logits(
                logits, labels[index], weights=weights[index]
            )
            optimizer.zero_grad()
            scalar_path.backward(grad_logits[:, None])
            clip_gradients(parameters, MAX_GRAD_NORM)
            optimizer.step()
            losses.append(loss)
        return losses

    def _train(self, samples: Sequence[TrainingSample], epochs: int) -> list[float]:
        """Train the classifier, the encoder's top block and its pooler on ``samples``.

        The trunk below runs once per distinct sample, in eval mode and
        inference-only (:meth:`_trunk_outputs`); each micro-batch slices its
        rows.  Every step splits its micro-batch into :data:`TRAIN_SHARDS`
        fixed row shards and trains each on its own replica of the trained
        modules (:meth:`_train_step`), on the engine's threads.  The whole
        call holds OpenBLAS at one thread (:func:`repro.engine.blas.single_threaded`),
        so its bits depend neither on the CPU count nor on
        ``OPENBLAS_NUM_THREADS``.  The Adam optimisers (moment estimates
        and step counts) persist across calls, so incremental ``update()``
        rounds continue the optimisation instead of restarting it.
        """
        if not samples:
            return []
        from ..engine import blas

        with obs.span("bert.train", samples=len(samples), epochs=int(epochs)):
            with blas.single_threaded():
                return self._train_traced(samples, epochs)

    def _train_traced(self, samples: Sequence[TrainingSample], epochs: int) -> list[float]:
        stats = self.train_stats
        distinct, rows, labels, weights = self._encoded_samples(samples)
        halves = distinct.take(rows)
        if self._warm_optimizers is None:
            fast_parameters, channel_parameters = trained_parameters(self.model, self.classifier)
            self._warm_optimizers = [
                Adam(fast_parameters, lr=LR),
                Adam(channel_parameters, lr=LR * CHANNEL_LR_SCALE),
            ]
            special_ids = sorted(self.tokenizer.vocab.special_ids())
            self._shards = [
                _TrainShard(self.model, self.classifier, special_ids, self._reseed_dropout(shard))
                for shard in range(TRAIN_SHARDS)
            ]
            stats.cold_starts += 1
        else:
            stats.warm_starts += 1

        with stats.timer("trunk"):
            trunk = self._trunk_outputs(distinct)
        losses: list[float] = []
        for padded, index in self._steps(halves.lengths, epochs):
            with stats.timer("bucket"):
                batch = self.encode_plane.assemble(halves.take(index), pad_to=padded)
            losses.append(
                self._train_step(
                    batch, trunk[rows[index], :padded], labels[index], weights[index]
                )
            )
        # Bumps the engine's model version.  Its scoring threads read the
        # live weights, so no copy has to follow the update; the trunk did
        # not move, so the engine keeps its stored trunk outputs.
        self.engine.invalidate_model(top_only=True)
        return losses

    def _train_step(
        self,
        batch: EncodedPair,
        trunk_hidden: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        """One optimiser step over a micro-batch; returns its weighted loss.

        Shard ``s`` takes the ``s``-th run of ``ceil(B / TRAIN_SHARDS)``
        consecutive rows and runs forward, loss and backward on its own
        replica (:class:`_TrainShard`), its loss gradient scaled by its share
        of the step's sample weight.  The shards run on the engine's threads
        (:meth:`repro.engine.ScoringEngine.run_parallel`), or one after the
        other with one worker.  The calling thread then sums the shards'
        grads in shard order into the featurizer's parameters, clips them
        and steps Adam, which moves every replica's shared weights.
        """
        stats = self.train_stats
        shards = self._shards
        optimizers = self._warm_optimizers
        size = -(-len(labels) // TRAIN_SHARDS)
        parts = [slice(start, start + size) for start in range(0, len(labels), size)]
        total = float(weights.sum(dtype=np.float64))
        shares = [float(weights[part].sum(dtype=np.float64)) / total for part in parts]

        def run(shard: int) -> float:
            part = parts[shard]
            rows = EncodedPair(
                input_ids=batch.input_ids[part],
                segment_ids=batch.segment_ids[part],
                attention_mask=batch.attention_mask[part],
            )
            return shards[shard].run(
                rows, trunk_hidden[part], labels[part], weights[part], shares[shard]
            )

        with stats.timer("shards"):
            shard_losses = self.engine.run_parallel(run, len(parts))
        with stats.timer("optim"):
            parameters: dict[str, Parameter] = {}
            for optimizer in optimizers:
                parameters.update(optimizer.parameters)
            for name, parameter in parameters.items():
                np.copyto(parameter.grad, shards[0].parameters[name].grad)
                for shard in shards[1 : len(parts)]:
                    parameter.grad += shard.parameters[name].grad
            clip_gradients(parameters, MAX_GRAD_NORM)
            for optimizer in optimizers:
                optimizer.step()
        return sum(loss * share for loss, share in zip(shard_losses, shares))

    def _trunk_outputs(self, distinct: BatchHalves) -> np.ndarray:
        """The frozen trunk's output for every distinct sample of a call.

        ``table[r, :T]`` is the trunk's output for row ``r`` of ``distinct``
        at the padded length ``T`` of its training micro-batch, and the
        table is zero beyond each row's length bucket.  The trunk runs once
        per distinct sample, in the training planner's length buckets, one
        chunk per task on the engine's threads
        (:meth:`repro.engine.ScoringEngine.run_parallel`), each inside
        :func:`inference_scope`.  Each row equals, bit for bit, what the
        trunk gives it inside its micro-batch: the trunk's GEMMs are split
        by rows, which does not change a row's bits.  The table lives for
        one call only.
        """
        from ..engine.batching import plan_bucket_chunks

        table = np.zeros(
            (len(distinct), self.encode_plane.max_length, self.model.config.hidden_size),
            dtype=np.float32,
        )
        chunks = plan_bucket_chunks(
            distinct.lengths.tolist(), microbatch_size=self.config.batch_size
        )
        batches = [
            self.encode_plane.assemble(distinct.take(chunk), pad_to=padded)
            for padded, chunk in chunks
        ]

        def run(index: int) -> None:
            padded, chunk = chunks[index]
            with inference_scope():
                table[chunk, :padded] = self.model.forward_trunk(batches[index])

        self.engine.run_parallel(run, len(chunks))
        return table

    def _reseed_dropout(self, shard: int) -> np.random.Generator:
        """The dropout generator of row shard ``shard``'s replica, seeded from
        ``(config.seed + 2, shard)``.

        A shard's masks depend only on the config and its own earlier
        draws: not on what the artefacts' generator went through before
        the featurizer copied the encoder (MLM training in this process or
        none), so updates draw the same masks on a cold and a warm store,
        and not on which thread ran the shard or on the order the shards
        ran in.
        """
        return np.random.default_rng([self.config.seed + 2, shard])

    def pretrain(
        self,
        target_schema: Schema,
        lexicon: SynonymLexicon | None = None,
        cache_key: str | None = None,
    ) -> list[float]:
        """Pre-train the matching classifier from the ISS (once per vertical).

        When ``cache_key`` identifies the encoder's provenance (e.g. the
        artefact cache key), the fitted classifier is cached on disk and
        reused, making the per-vertical cost literal.  Pretraining leaves
        the encoder as it found it, so the block holds the classifier only.
        """
        from .. import store as disk_cache
        from ..nn.serialize import load_state_dict, state_dict

        with obs.span("bert.pretrain", schema=target_schema.name) as span:
            self._iss_samples = generate_pretraining_samples(
                target_schema,
                self._rng,
                NEGATIVES_PER_POSITIVE,
                lexicon=lexicon,
            )
            span.set(samples=len(self._iss_samples))
            full_key = stored = None
            if cache_key is not None:
                full_key = disk_cache.content_key(
                    "bert-featurizer-pretrain-v2",
                    cache_key,
                    target_schema.name,
                    pretrain_key_payload(self.config),
                )
                stored = disk_cache.load_arrays("bert-pretrain", full_key)
            span.set(cached=stored is not None)
            losses: list[float] = []
            if stored is not None:
                load_state_dict(self.classifier, stored)
            else:
                # A cached block skips the fit; a cold fit puts the shuffle
                # generator back afterwards, so later updates draw the same
                # on a cold and a warm store.
                shuffle_state = self._rng.bit_generator.state
                losses = self._fit_scalar_path(self._iss_samples)
                self._rng.bit_generator.state = shuffle_state
                if full_key is not None:
                    disk_cache.save_arrays("bert-pretrain", full_key, state_dict(self.classifier))
            self.engine.invalidate_model()
        return losses

    def update(
        self,
        labeled_pairs: Sequence[AttributePairView],
        labels: Sequence[int],
    ) -> None:
        """Fold the human labels collected so far into the classifier.

        Human samples carry :data:`HUMAN_SAMPLE_WEIGHT`; a random subsample of
        the ISS pre-training set is mixed in as a regulariser so the
        classifier does not forget the per-vertical prior (§VI-B).

        An update trains the whole classifier plus the encoder's top block
        and pooler.  The trunk below (embeddings and the lower blocks) stays
        frozen: the token table carries the distributional (synonym)
        geometry from MLM pre-training -- the reproduction's stand-in for
        BERT's world knowledge -- that the detached cos(u0, v0) channel
        reads, and a frozen trunk runs inference-only (see DESIGN.md, "BERT
        updates").
        """
        self._human_samples = [
            TrainingSample(
                tuple(
                    name_and_description_tokens(pair.source_name, pair.source_description)
                ),
                tuple(
                    name_and_description_tokens(pair.target_name, pair.target_description)
                ),
                int(label),
                HUMAN_SAMPLE_WEIGHT,
                "human",
            )
            for pair, label in zip(labeled_pairs, labels)
        ]
        if not self._human_samples:
            return
        mixed: list[TrainingSample] = list(self._human_samples) * HUMAN_OVERSAMPLE
        if self._iss_samples:
            budget = min(self.config.iss_subsample_per_update, len(self._iss_samples))
            chosen = self._rng.choice(len(self._iss_samples), size=budget, replace=False)
            mixed.extend(self._iss_samples[int(i)] for i in chosen)
        self._train(mixed, self.config.update_epochs)

    # -- scoring ---------------------------------------------------------------

    def score_pairs(self, batch: PairBatch) -> np.ndarray:
        """Similarity scores in [0, 1]: sigmoid of the classifier logits.

        All inference is delegated to the scoring engine, which serves
        already-scored pairs from its fingerprint cache and pushes the rest
        through length-bucketed (optionally threaded) micro-batches.  The
        batch travels as per-attribute id tables and dirty micro-batches
        are gathered from them inside the engine
        (:meth:`repro.engine.ScoringEngine.score_halves`).
        """
        if not len(batch):
            return np.zeros(0, dtype=np.float64)
        with self.engine.stats.timer("encode"):
            halves = self._batch_halves(batch)
        return self.engine.score_halves(halves, self.encode_plane)

    # -- observability -----------------------------------------------------------

    def encode_stats_payload(self) -> dict[str, object]:
        """Encode-plane counters for the matcher's ``encode`` metrics source."""
        return self.encode_plane.stats_payload()

    def close(self) -> None:
        """Release engine resources (scoring threads); idempotent."""
        self.engine.close()
