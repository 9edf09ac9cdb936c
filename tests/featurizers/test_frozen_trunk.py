"""Frozen-trunk BERT updates.

A human-label update trains the encoder's top block, its pooler and the
matching classifier.  The trunk below -- token, position and segment
embeddings, the embedding LayerNorm and every lower block -- runs in eval
mode inside ``inference_scope``, once per distinct sample of the call.  The
tests pin down that this is a cheaper way to compute the same step:

* the trunk keeps its pretrained bits and never receives a gradient, while
  the top block, the pooler and the classifier move;
* every training step, its row shards run on two threads, equals, bit for
  bit, a reference that runs the shards one after the other, each with the
  full ``MiniBert.forward`` and the trunk in eval mode, and cuts backward
  at the top block;
* with dropout off, the sharded step's grads equal the one-batch step's
  (``tests/training_reference.py``) within float32 rounding;
* the per-call trunk table equals the trunk run per micro-batch, bit for
  bit, on a sample list with repeats, and is the same on one and on two
  engine threads;
* every update step's batch, gathered from the encode plane, and its
  trunk rows equal the stack-and-trim reference's, bit for bit;
* a scoring call between a shard's training forward and its backward
  returns the same scores every time and leaves that step and every later
  one unchanged, whether it scores directly or through the engine.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro.engine import EngineConfig
from repro.featurizers import BertFeaturizer, BertFeaturizerConfig, make_pair_view
from repro.featurizers import bert as bert_module
from repro.featurizers.bert import score_encoded_batch
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import stack_encoded
from repro.nn import inference_scope
from repro.schema import AttributeRef
from tests.training_reference import (
    assert_batches_equal,
    one_batch_step_grads,
    reference_plan,
    reference_steps,
    sample_rows,
)

MAX_LENGTH = 24


def make_featurizer(tokenizer, target_schema, n_workers=None, dropout=0.1):
    """A pretrained featurizer over a two-block encoder, so the trunk holds
    a transformer block as well as the embedding layer."""
    model = MiniBert(
        BertConfig(
            vocab_size=len(tokenizer.vocab),
            hidden_size=32,
            num_layers=2,
            num_heads=2,
            intermediate_size=64,
            max_position=MAX_LENGTH,
            dropout=dropout,
            attention_dropout=dropout,
        ),
        seed=3,
    )
    config = BertFeaturizerConfig(
        max_length=MAX_LENGTH,
        pretrain_epochs=1,
        update_epochs=2,
        batch_size=16,
        iss_subsample_per_update=48,
        seed=0,
    )
    engine_config = None if n_workers is None else EngineConfig(n_workers=n_workers)
    featurizer = BertFeaturizer(tokenizer, model, config, engine_config=engine_config)
    featurizer.pretrain(target_schema)
    return featurizer


@pytest.fixture()
def featurizer(tiny_artifacts, target_schema):
    featurizer = make_featurizer(tiny_artifacts.tokenizer, target_schema)
    yield featurizer
    featurizer.close()


def on_threads(featurizer, n_workers):
    """Run the featurizer's engine, and so its updates, on ``n_workers``
    threads; call it before the engine's first threaded call sizes its pool."""
    featurizer.engine.config.n_workers = n_workers
    return featurizer


def with_watchdog(call, engine, seconds=120.0):
    """``call()`` on a daemon thread; fail instead of hanging if it has not
    returned within ``seconds`` (a pool thread that waits on its own pool
    never does).  On a timeout the engine's pool is dropped unjoined, so
    the fixture's ``close()`` does not wait on the stuck thread."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised on the test's thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pool, engine._pool = engine._pool, None  # noqa: SLF001
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        pytest.fail(f"did not finish within {seconds} s: deadlocked")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


LABELS = [
    (("Orders", "qty"), ("Transaction", "quantity"), 1),
    (("Item", "ean"), ("Product", "european_article_number"), 1),
    (("Orders", "disc"), ("Transaction", "price_change_percentage"), 1),
    (("Orders", "qty"), ("Transaction", "tax_amount"), 0),
]


def labeled(source_schema, target_schema, count=len(LABELS)):
    views = [
        make_pair_view(source_schema, target_schema, AttributeRef(*s), AttributeRef(*t))
        for s, t, _ in LABELS[:count]
    ]
    return views, [label for _, _, label in LABELS[:count]]


def trunk_parameters(model: MiniBert) -> dict:
    top = model.top_parameters()
    return {name: p for name, p in model.parameters().items() if name not in top}


def trunk_caches(model: MiniBert) -> list:
    """The backward caches the trunk's layers hold (whatever pretraining's
    last forward left there)."""
    block = model.blocks[0]
    return [
        model.token_embedding._ids,  # noqa: SLF001
        model.position_embedding._ids,  # noqa: SLF001
        model.embedding_norm._cache,  # noqa: SLF001
        block.attention._cache,  # noqa: SLF001
        block.attention.qkv._input,  # noqa: SLF001
        block.attention_norm._cache,  # noqa: SLF001
        block._gelu_cache,  # noqa: SLF001
        block.ffn_norm._cache,  # noqa: SLF001
    ]


def record_steps(monkeypatch) -> list[dict[str, np.ndarray]]:
    """Record every trained gradient at each optimiser step (before clipping)."""
    steps: list[dict[str, np.ndarray]] = []
    original = bert_module.clip_gradients

    def recording(parameters, max_norm):
        steps.append({name: p.grad.copy() for name, p in parameters.items()})
        return original(parameters, max_norm)

    monkeypatch.setattr(bert_module, "clip_gradients", recording)
    return steps


def assert_steps_equal(got, expected):
    assert len(got) == len(expected) > 0
    for step, (a, b) in enumerate(zip(got, expected)):
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=f"step {step}: {name}")


def run_update(featurizer, views, labels, monkeypatch):
    """One update from a fixed state: (losses, per-step gradients)."""
    steps = record_steps(monkeypatch)
    losses: list[list[float]] = []
    original = BertFeaturizer._train

    def recording_train(self, *args, **kwargs):
        losses.append(original(self, *args, **kwargs))
        return losses[-1]

    monkeypatch.setattr(BertFeaturizer, "_train", recording_train)
    featurizer.update(views, labels)
    monkeypatch.undo()
    return losses, steps


class TestTrunkStaysPretrained:
    def test_trunk_bits_and_grads_after_several_updates(
        self, featurizer, source_schema, target_schema
    ):
        model = featurizer.model
        before = {name: p.value.copy() for name, p in model.parameters().items()}
        classifier_before = {
            name: p.value.copy() for name, p in featurizer.classifier.parameters().items()
        }
        caches_before = trunk_caches(model)
        for count in (2, 3, 4):
            featurizer.update(*labeled(source_schema, target_schema, count))

        # Inference-only: no update wrote a trunk layer's cache.
        assert all(a is b for a, b in zip(trunk_caches(model), caches_before))

        trunk = trunk_parameters(model)
        assert "block0.attention.qkv.weight" in trunk
        assert "token_embedding.table" in trunk and "embedding_norm.gamma" in trunk
        for name, parameter in trunk.items():
            np.testing.assert_array_equal(parameter.value, before[name], err_msg=name)
            assert not parameter.grad.any(), name

        top = model.top_parameters()
        for group in ("block1.", "pooler."):
            assert any(
                not np.array_equal(p.value, before[name])
                for name, p in top.items()
                if name.startswith(group)
            ), group
        for group in ("scalar_path.", "hidden.", "output."):
            assert any(
                not np.array_equal(p.value, classifier_before[name])
                for name, p in featurizer.classifier.parameters().items()
                if name.startswith(group)
            ), group


class TestTopOnlyStep:
    def test_steps_match_full_forward_reference(
        self, featurizer, source_schema, target_schema, monkeypatch
    ):
        """Two updates with the shards on two threads against the shards run
        in sequence, each with the full forward."""
        views, labels = labeled(source_schema, target_schema)
        reference = on_threads(copy.deepcopy(featurizer), 1)
        on_threads(featurizer, 2)
        buckets = featurizer.train_stats.buckets
        losses, steps = run_update(featurizer, views, labels, monkeypatch)
        more_losses, more_steps = run_update(featurizer, views[:3], labels[:3], monkeypatch)
        # Two epochs over mixed padded lengths: several buckets per epoch.
        assert featurizer.train_stats.buckets - buckets >= 2 * 2 * 2

        original = bert_module.compute_match_features
        shard_rows = []
        samples = reference.train_stats.samples

        def full_forward(model, special_ids, batch, trunk_hidden=None):
            assert trunk_hidden is not None  # the update did build the table
            assert model is not reference.model  # a shard's replica
            assert not model.blocks[0].training  # the trunk runs in eval mode
            assert threading.current_thread() is threading.main_thread()
            shard_rows.append(len(batch.input_ids))
            return original(model, special_ids, batch)

        def patch():
            monkeypatch.setattr(bert_module, "compute_match_features", full_forward)

        patch()
        reference_losses, reference_steps = run_update(reference, views, labels, monkeypatch)
        patch()
        more_reference = run_update(reference, views[:3], labels[:3], monkeypatch)

        # Every row ran in one shard, and most steps split in two.
        assert sum(shard_rows) == reference.train_stats.samples - samples
        assert len(shard_rows) > len(steps) + len(more_steps)
        assert losses == reference_losses and more_losses == more_reference[0]
        assert_steps_equal(steps + more_steps, reference_steps + more_reference[1])
        trained = set(steps[0])
        assert {"bert.block1.attention.qkv.weight", "bert.pooler.weight"} <= trained
        assert not any(name.startswith(("bert.block0.", "bert.token_")) for name in trained)
        for name, parameter in featurizer.model.parameters().items():
            np.testing.assert_array_equal(
                parameter.value, reference.model.parameters()[name].value, err_msg=name
            )


class TestShardedStep:
    def test_sharded_grads_equal_the_one_batch_step(
        self, tiny_artifacts, source_schema, target_schema, monkeypatch
    ):
        """With dropout off, each sharded step's summed grads equal the
        one-batch step's on the same weights, within float32 rounding."""
        featurizer = make_featurizer(
            tiny_artifacts.tokenizer, target_schema, n_workers=2, dropout=0.0
        )
        expected = []
        original_step = BertFeaturizer._train_step

        def with_reference(self, batch, trunk_hidden, labels, weights):
            expected.append(one_batch_step_grads(self, batch, trunk_hidden, labels, weights))
            return original_step(self, batch, trunk_hidden, labels, weights)

        try:
            views, labels = labeled(source_schema, target_schema)
            monkeypatch.setattr(BertFeaturizer, "_train_step", with_reference)
            _losses, steps = run_update(featurizer, views, labels, monkeypatch)
        finally:
            featurizer.close()
        assert len(steps) == len(expected) > 0
        for step, (got, want) in enumerate(zip(steps, expected)):
            assert got.keys() == want.keys()
            for name in got:
                scale = float(np.abs(want[name]).max())
                np.testing.assert_allclose(
                    got[name], want[name], rtol=1e-5, atol=1e-6 * scale,
                    err_msg=f"step {step}: {name}",
                )


class TestTrunkTable:
    def test_dedupe_equals_trunk_per_microbatch(self, featurizer):
        pool = featurizer._iss_samples  # noqa: SLF001
        # Repeats the way an update builds its list: labels oversampled,
        # plus regulariser samples, some of which recur.
        samples = pool[:5] * 4 + pool[5:40] + pool[10:20]
        distinct, rows = featurizer._encode_samples(samples)  # noqa: SLF001
        featurizer.model.train_top()
        table = featurizer._trunk_outputs(distinct)  # noqa: SLF001
        assert len(table) == len(set(samples)) < len(samples)

        plan = reference_plan(
            sample_rows(featurizer.tokenizer, samples, MAX_LENGTH), 7, np.random.default_rng(5)
        )
        assert len({padded for padded, _, _ in plan}) >= 2
        for padded, chunk, batch in plan:
            with inference_scope():
                expected = featurizer.model.forward_trunk(batch)
            np.testing.assert_array_equal(table[rows[chunk], :padded], expected)
            assert not table[rows[chunk], padded:].any()

    def test_table_is_the_same_on_one_and_two_threads(self, featurizer):
        pool = featurizer._iss_samples  # noqa: SLF001
        distinct, _rows = featurizer._encode_samples(pool[:5] * 4 + pool[5:60])  # noqa: SLF001
        tables = [
            on_threads(featurizer, n_workers)._trunk_outputs(distinct)  # noqa: SLF001
            for n_workers in (1, 2)
        ]
        np.testing.assert_array_equal(tables[1], tables[0])

    def test_update_steps_match_the_stacking_reference(
        self, featurizer, source_schema, target_schema, monkeypatch
    ):
        """Every step of two updates: the batch gathered from the encode
        plane and the trunk rows sliced from the table equal the reference's
        stacked ``encode_pair`` rows and its trunk run on them."""
        calls, steps = [], []
        original_train = BertFeaturizer._train
        original_step = BertFeaturizer._train_step

        def recording_train(self, samples, epochs):
            calls.append((list(samples), epochs, self._rng.bit_generator.state))  # noqa: SLF001
            return original_train(self, samples, epochs)

        def recording_step(self, batch, trunk_hidden, labels, weights):
            steps.append((batch, trunk_hidden.copy()))
            return original_step(self, batch, trunk_hidden, labels, weights)

        monkeypatch.setattr(BertFeaturizer, "_train", recording_train)
        monkeypatch.setattr(BertFeaturizer, "_train_step", recording_step)
        for count in (2, 4):
            featurizer.update(*labeled(source_schema, target_schema, count))
        monkeypatch.undo()

        expected = []
        for samples, epochs, state in calls:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            rows = sample_rows(featurizer.tokenizer, samples, MAX_LENGTH)
            expected.extend(reference_steps(rows, epochs, featurizer.config.batch_size, rng))
        assert len(calls) == 2 and len(steps) == len(expected)
        assert len({padded for padded, _, _ in expected}) >= 2
        for step, ((batch, trunk_hidden), (padded, _index, want)) in enumerate(
            zip(steps, expected)
        ):
            assert_batches_equal(batch, want, f"step {step}")
            with inference_scope():
                np.testing.assert_array_equal(
                    trunk_hidden, featurizer.model.forward_trunk(want), err_msg=f"step {step}"
                )


class TestScoringBetweenForwardAndBackward:
    def test_interleaved_scoring_leaves_the_step(
        self, featurizer, source_schema, target_schema, monkeypatch
    ):
        """The scoring calls run inside a shard's loss, on whichever thread
        runs that shard: a watchdog fails the test if a call into the
        engine from a pool thread waits on that pool."""
        views, labels = labeled(source_schema, target_schema)
        on_threads(featurizer, 2)
        twin = on_threads(copy.deepcopy(featurizer), 2)
        probe = featurizer._iss_samples[:9]  # noqa: SLF001
        encoded = sample_rows(featurizer.tokenizer, probe, MAX_LENGTH)
        batch = stack_encoded(encoded)
        expected_losses, expected_steps = run_update(twin, views, labels, monkeypatch)

        original_loss = bert_module.binary_cross_entropy_with_logits
        direct, engine_scores = [], []
        loss_calls = []
        engine_step = 2

        def score_directly():
            return score_encoded_batch(
                featurizer.model,
                featurizer.classifier,
                sorted(featurizer.tokenizer.vocab.special_ids()),
                batch,
            )

        lock = threading.Lock()

        def scoring_then_loss(*args, **kwargs):
            with lock:  # shards call the loss from two threads
                step = len(loss_calls)
                loss_calls.append(step)
            if step == 0:
                # Two calls while a shard's caches are pending, its top
                # block in train mode.
                direct.extend([score_directly(), score_directly()])
            elif step == engine_step:
                engine_scores.append(featurizer.engine.score_encoded(encoded))
            return original_loss(*args, **kwargs)

        monkeypatch.setattr(bert_module, "binary_cross_entropy_with_logits", scoring_then_loss)
        losses, steps = with_watchdog(
            lambda: run_update(featurizer, views, labels, monkeypatch), featurizer.engine
        )
        assert len(direct) == 2 and direct[0].shape == (len(probe),)
        # Inside the scope dropout is the identity whatever the mode.
        np.testing.assert_array_equal(direct[0], direct[1])
        assert len(engine_scores) == 1 and len(steps) > engine_step + 1
        # Neither the direct calls nor the engine call moved a step: the
        # update ran on exactly as without them, to its last step.
        assert losses == expected_losses
        assert_steps_equal(steps, expected_steps)
