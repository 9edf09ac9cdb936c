"""Corruption-handling tests for the resilient artifact store.

Every failure mode that used to crash the whole suite (truncated archive,
zero-byte file, checksum mismatch, interrupted write) must now behave as a
cache miss: the caller recomputes, the damaged file is quarantined as
``<name>.corrupt`` — never silently deleted — and the event is counted.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs import merge_metrics
from repro.store import (
    ArtifactStore,
    CacheStats,
    QUARANTINE_SUFFIX,
    TMP_PREFIX,
)
from repro.store.integrity import sidecar_path
from repro.store.store import FORMAT_VERSION


ARRAYS = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


def saved_npz(store: ArtifactStore):
    path = store.save_arrays("bert", "k1", ARRAYS)
    assert path is not None and path.exists()
    return path


class TestRoundTrip:
    def test_arrays(self, store):
        saved_npz(store)
        loaded = store.load_arrays("bert", "k1")
        assert loaded is not None
        assert np.array_equal(loaded["w"], ARRAYS["w"])

    def test_json(self, store):
        store.save_json("vocab", "k1", {"tokens": ["a", "b"]})
        assert store.load_json("vocab", "k1") == {"tokens": ["a", "b"]}

    def test_missing_is_a_miss(self, store):
        assert store.load_arrays("bert", "absent") is None
        assert store.load_json("vocab", "absent") is None
        assert store.stats.misses == 2

    def test_entries_live_in_versioned_namespace(self, store):
        path = saved_npz(store)
        assert path.parent == store.root / f"v{FORMAT_VERSION}"

    def test_sidecar_written(self, store):
        path = saved_npz(store)
        assert sidecar_path(path).exists()
        digest = sidecar_path(path).read_text().strip()
        assert len(digest) == 64


class TestCorruptionFallback:
    """Damaged entries are misses + quarantine, never exceptions."""

    def test_truncated_archive(self, store):
        path = saved_npz(store)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load_arrays("bert", "k1") is None
        assert not path.exists()
        quarantined = path.with_name(path.name + QUARANTINE_SUFFIX)
        assert quarantined.exists(), "corrupt file must be kept, not deleted"

    def test_zero_byte_file(self, store):
        path = saved_npz(store)
        path.write_bytes(b"")
        assert store.load_arrays("bert", "k1") is None
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()

    def test_checksum_mismatch_same_length(self, store):
        path = saved_npz(store)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # single-bit-ish rot, length preserved
        path.write_bytes(bytes(data))
        assert store.load_arrays("bert", "k1") is None
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()

    def test_corrupt_without_sidecar_caught_by_deep_read(self, store):
        # a hand-dropped file with no checksum still cannot crash the load
        path = store.array_path("bert", "k1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a zip archive at all")
        assert store.load_arrays("bert", "k1") is None
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()

    def test_corrupt_json(self, store):
        store.save_json("vocab", "k1", [1, 2, 3])
        path = store.json_path("vocab", "k1")
        path.write_text("{truncated")
        assert store.load_json("vocab", "k1") is None
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()

    def test_recompute_and_resave_after_quarantine(self, store):
        path = saved_npz(store)
        path.write_bytes(b"garbage")
        assert store.load_arrays("bert", "k1") is None  # quarantined
        saved_npz(store)  # caller recomputes and re-saves under the same key
        loaded = store.load_arrays("bert", "k1")
        assert loaded is not None
        assert np.array_equal(loaded["w"], ARRAYS["w"])
        # the evidence from the first corruption is still on disk
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()


class TestInterruptedWrite:
    def test_failed_replace_leaves_no_final_file(self, store, monkeypatch):
        real_replace = os.replace

        def exploding_replace(src, dst, *args, **kwargs):
            if str(dst).endswith(".npz"):
                raise OSError("simulated crash mid-rename")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", exploding_replace)
        assert store.save_arrays("bert", "k1", ARRAYS) is None
        monkeypatch.undo()
        assert store.load_arrays("bert", "k1") is None  # clean miss
        assert store.stats.write_failures == 1

    def test_stale_temp_file_is_invisible_to_loads(self, store):
        saved_npz(store)
        stale = store.namespace / f"{TMP_PREFIX}deadbeef.npz"
        stale.write_bytes(b"half-written")
        loaded = store.load_arrays("bert", "k1")
        assert loaded is not None  # the real entry is unaffected
        statuses = {r.path.name: r.status for r in store.verify()}
        assert statuses[stale.name] == "stale-temp"

    def test_truncated_final_file_from_legacy_writer(self, store):
        # what the old non-atomic writer could produce: a partial file at
        # the final path with no sidecar
        path = store.array_path("bert", "k1")
        path.parent.mkdir(parents=True, exist_ok=True)
        good = saved_npz(store)
        data = good.read_bytes()
        sidecar_path(good).unlink()
        path.write_bytes(data[:100])
        assert store.load_arrays("bert", "k1") is None
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()


class TestVerify:
    def test_reports_every_state(self, store):
        good = saved_npz(store)
        bad = store.save_arrays("emb", "k2", ARRAYS)
        bad.write_bytes(b"rotten")
        (store.namespace / f"{TMP_PREFIX}x.npz").write_bytes(b"")
        legacy = store.root / "bert-legacy.npz"
        np.savez_compressed(legacy, **ARRAYS)
        store.load_json("vocab", "gone")  # miss; no file created
        results = {r.path.name: r for r in store.verify()}
        assert results[good.name].status == "ok"
        assert results[bad.name].status == "corrupt"
        assert "checksum mismatch" in results[bad.name].detail
        assert results[f"{TMP_PREFIX}x.npz"].status == "stale-temp"
        assert results[legacy.name].status == "legacy"

    def test_verify_is_read_only(self, store):
        bad = saved_npz(store)
        bad.write_bytes(b"rotten")
        store.verify()
        assert bad.exists(), "verify must not quarantine or delete"

    def test_quarantined_entries_reported_once(self, store):
        path = saved_npz(store)
        path.write_bytes(b"rotten")
        store.load_arrays("bert", "k1")  # quarantines data + sidecar
        rows = [r for r in store.verify() if r.status == "quarantined"]
        assert len(rows) == 1  # the sidecar does not get its own row

    def test_empty_store(self, store):
        assert store.verify() == []


class TestClear:
    def test_sweeps_everything(self, store):
        saved_npz(store)
        store.save_json("vocab", "k1", [1])
        corrupt = store.array_path("x", "y")
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_bytes(b"bad")
        store.load_arrays("x", "y")  # leaves x-y.npz.corrupt behind
        (store.namespace / f"{TMP_PREFIX}orphan.npz").write_bytes(b"")
        removed = store.clear()
        leftovers = [p for p in store.root.rglob("*") if p.is_file()]
        assert leftovers == []
        assert removed >= 6  # 2 entries + 2 sidecars + quarantine + temp

    def test_clear_empty_root(self, tmp_path):
        assert ArtifactStore(tmp_path / "never-created").clear() == 0


class TestStatsAccounting:
    def test_counters(self, store):
        store.load_arrays("bert", "k1")  # miss
        path = saved_npz(store)  # write
        nbytes = path.stat().st_size
        store.load_arrays("bert", "k1")  # hit
        path.write_bytes(b"junk")
        store.load_arrays("bert", "k1")  # corruption
        stats = store.stats
        assert (stats.hits, stats.misses, stats.corruption_events) == (1, 1, 1)
        assert stats.writes == 1
        assert stats.bytes_written == nbytes
        assert stats.quarantined == [path.name]

    def test_persistent_ledger_across_instances(self, store):
        saved_npz(store)
        store.load_arrays("bert", "k1")
        fresh = ArtifactStore(store.root)
        cumulative = fresh.persistent_stats()
        assert cumulative.writes == 1
        assert cumulative.hits == 1
        assert fresh.stats.hits == 0  # session view starts clean

    def test_merge(self):
        a = CacheStats(hits=1, quarantined=["x"])
        b = CacheStats(hits=2, corruption_events=1, quarantined=["y"])
        merged = merge_metrics(a.as_dict(), b.as_dict())
        assert merged["hits"] == 3
        assert merged["corruption_events"] == 1
        assert merged["quarantined"] == ["x", "y"]
        assert CacheStats.from_dict(merged) == CacheStats(
            hits=3, corruption_events=1, quarantined=["x", "y"]
        )

    def test_ledger_tolerates_corruption(self, store):
        saved_npz(store)
        (store.root / "stats-ledger.json").write_text("{broken")
        # a damaged ledger must neither crash nor poison future accounting
        store.load_arrays("bert", "k1")
        assert store.persistent_stats().hits >= 1

    def test_ledger_parse_reads_only_counters(self):
        # stage timings are not ledger counters: a stray int there must not
        # replace the timing dict and break rendering
        parsed = CacheStats.from_dict({"hits": 2, "stage_seconds": 5, "writes": True})
        assert parsed == CacheStats(hits=2)
        assert parsed.as_dict()["hits"] == 2
