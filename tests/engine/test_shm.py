"""Unit tests for the shared-memory weight arena (publish/attach/verify).

Everything here runs in-process: a :class:`WeightArena` publishes weights
from one model and an :class:`ArenaClient` binds zero-copy views into a
second, weight-less skeleton.  The fault-injection cases corrupt the
control/data segments directly to prove the torn-publish defences, and
every test asserts the unlink discipline (no live segments after close).
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.engine import ArenaClient, ArenaError, ArenaManifest, WeightArena
from repro.engine.shm import (
    ScratchRegion,
    _new_segment,
    live_segment_names,
    shared_memory_available,
)
from repro.featurizers.bert import MatchingClassifier
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.nn.serialize import flat_tensors

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="shared memory unavailable"
)

CONFIG = BertConfig(
    vocab_size=50,
    hidden_size=16,
    num_layers=1,
    num_heads=2,
    intermediate_size=32,
    max_position=32,
)


def make_stack(seed: int):
    model = MiniBert(CONFIG, seed=seed)
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(seed + 1))
    classifier.eval()
    return model, classifier


def prefixed_tensors(model, classifier) -> list[tuple[str, np.ndarray]]:
    return [(f"model.{n}", a) for n, a in flat_tensors(model)] + [
        (f"classifier.{n}", a) for n, a in flat_tensors(classifier)
    ]


def assert_no_leaks(base: str) -> None:
    leaked = [name for name in live_segment_names() if name.startswith(base)]
    assert not leaked, leaked
    if os.path.isdir("/dev/shm"):
        on_disk = [name for name in os.listdir("/dev/shm") if name.startswith(base)]
        assert not on_disk, on_disk


class TestWeightArena:
    def test_publish_attach_parity(self):
        source_model, source_classifier = make_stack(seed=0)
        skeleton_model, skeleton_classifier = make_stack(seed=99)
        arena = WeightArena()
        try:
            arena.publish(prefixed_tensors(source_model, source_classifier), version=1)
            client = ArenaClient(arena.ctrl_name, skeleton_model, skeleton_classifier)
            try:
                swapped, seconds = client.sync()
                assert swapped and seconds >= 0.0
                for name, parameter in skeleton_model.parameters().items():
                    np.testing.assert_array_equal(
                        parameter.value, source_model.parameters()[name].value
                    )
                for name, parameter in skeleton_classifier.parameters().items():
                    np.testing.assert_array_equal(
                        parameter.value, source_classifier.parameters()[name].value
                    )
                # The bound views are zero-copy and read-only.
                some = next(iter(skeleton_model.parameters().values())).value
                assert not some.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    some[...] = 0.0
                # Unchanged version: sync is a no-op stamp comparison.
                assert client.sync() == (False, 0.0)
            finally:
                client.close()
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_hot_swap_on_republish(self):
        source_model, source_classifier = make_stack(seed=0)
        skeleton_model, skeleton_classifier = make_stack(seed=99)
        arena = WeightArena()
        try:
            arena.publish(prefixed_tensors(source_model, source_classifier), version=1)
            client = ArenaClient(arena.ctrl_name, skeleton_model, skeleton_classifier)
            try:
                client.sync()
                for parameter in source_model.parameters().values():
                    parameter.value = parameter.value + np.float64(0.25).astype(
                        parameter.value.dtype
                    )
                arena.publish(
                    prefixed_tensors(source_model, source_classifier), version=2
                )
                swapped, _ = client.sync()
                assert swapped
                assert client.version == 2
                for name, parameter in skeleton_model.parameters().items():
                    np.testing.assert_array_equal(
                        parameter.value, source_model.parameters()[name].value
                    )
            finally:
                client.close()
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_version_stamp_written_last_is_detected_when_torn(self):
        """A bumped stamp over a stale manifest must refuse the swap."""
        source_model, source_classifier = make_stack(seed=0)
        skeleton_model, skeleton_classifier = make_stack(seed=99)
        arena = WeightArena()
        try:
            arena.publish(prefixed_tensors(source_model, source_classifier), version=1)
            client = ArenaClient(arena.ctrl_name, skeleton_model, skeleton_classifier)
            try:
                client.sync()
                # Simulate a torn publish: the stamp moved but the manifest
                # (still describing version 1) was never rewritten.
                struct.pack_into("<q", arena._ctrl.buf, 0, 7)
                with pytest.raises(ArenaError, match="torn publish"):
                    client.sync()
            finally:
                client.close()
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_corrupt_manifest_payload_is_detected(self):
        source_model, source_classifier = make_stack(seed=0)
        skeleton_model, skeleton_classifier = make_stack(seed=99)
        arena = WeightArena()
        try:
            arena.publish(prefixed_tensors(source_model, source_classifier), version=1)
            # Flip a manifest byte; a fresh client (no cached version) must
            # notice the digest mismatch before trusting any layout info.
            arena._ctrl.buf[40] ^= 0xFF
            client = ArenaClient(arena.ctrl_name, skeleton_model, skeleton_classifier)
            try:
                with pytest.raises(ArenaError, match="manifest digest"):
                    client.sync()
            finally:
                client.close()
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_corrupt_weight_bytes_are_detected(self):
        source_model, source_classifier = make_stack(seed=0)
        skeleton_model, skeleton_classifier = make_stack(seed=99)
        arena = WeightArena()
        try:
            arena.publish(prefixed_tensors(source_model, source_classifier), version=1)
            arena._data.buf[3] ^= 0xFF
            client = ArenaClient(arena.ctrl_name, skeleton_model, skeleton_classifier)
            try:
                with pytest.raises(ArenaError, match="weight digest"):
                    client.sync()
            finally:
                client.close()
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_data_segment_grows_by_generation(self):
        arena = WeightArena()
        try:
            small = [("a", np.zeros(4, dtype=np.float64))]
            manifest_small = arena.publish(small, version=1)
            big = [("a", np.zeros(1 << 16, dtype=np.float64))]
            manifest_big = arena.publish(big, version=2)
            assert manifest_big.data_segment != manifest_small.data_segment
            # The outgrown generation's name was unlinked immediately.
            assert manifest_small.data_segment not in live_segment_names()
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_oversized_manifest_raises_instead_of_moving_ctrl(self):
        arena = WeightArena()
        try:
            arena.publish([("a", np.zeros(1, dtype=np.float64))], version=1)
            huge = [
                (f"tensor-{i:04d}-{'x' * 64}", np.zeros(1, dtype=np.float64))
                for i in range(4000)
            ]
            with pytest.raises(ArenaError, match="control segment"):
                arena.publish(huge, version=2)
        finally:
            arena.close()
        assert_no_leaks(arena.base)

    def test_stale_orphan_segment_is_reclaimed(self):
        from multiprocessing import shared_memory

        name = "repro-test-orphan"
        orphan = shared_memory.SharedMemory(name=name, create=True, size=64)
        orphan.buf[0] = 42
        # A "crashed previous run": the segment exists but nobody owns it.
        reclaimed = _new_segment(name, 128)
        try:
            assert reclaimed.size >= 128
            assert reclaimed.buf[0] == 0  # fresh segment, not the orphan
        finally:
            from repro.engine.shm import _unlink_segment

            _unlink_segment(reclaimed)
        try:
            orphan.close()
        except BufferError:
            pass
        assert name not in live_segment_names()


class TestScratchRegion:
    def test_roundtrip_and_growth(self):
        from multiprocessing import shared_memory

        scratch = ScratchRegion("repro-test-scratch-")
        try:
            arrays = [
                np.arange(12, dtype=np.int64).reshape(3, 4),
                np.linspace(0.0, 1.0, 7),
            ]
            name, descriptors = scratch.write(arrays)
            reader = shared_memory.SharedMemory(name=name)
            try:
                for array, (shape, dtype, offset) in zip(arrays, descriptors):
                    view = np.ndarray(shape, dtype=dtype, buffer=reader.buf, offset=offset)
                    np.testing.assert_array_equal(view, array)
            finally:
                reader.close()
            # A write that outgrows the segment rolls to a new generation.
            big_name, _ = scratch.write([np.zeros(1 << 18, dtype=np.float64)])
            assert big_name != name
            assert name not in live_segment_names()
        finally:
            scratch.close()
        assert_no_leaks("repro-test-scratch-")


class TestManifest:
    def test_payload_roundtrip(self):
        manifest = ArenaManifest(
            version=3,
            data_segment="seg",
            total_bytes=128,
            data_digest=b"\x00" * 16,
            tensors=(),
        )
        assert ArenaManifest.from_payload(manifest.to_payload()) == manifest

    def test_foreign_payload_rejected(self):
        import pickle

        with pytest.raises(ArenaError, match="decoded to"):
            ArenaManifest.from_payload(pickle.dumps("not a manifest"))

