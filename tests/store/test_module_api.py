"""Tests for the module-level function API of ``repro.store``.

``content_key`` / ``save_arrays`` / ``load_arrays`` / ``save_json`` /
``load_json`` / ``clear_cache`` act on the process-wide default store rooted
at ``REPRO_CACHE_DIR``.  Corrupt entries are a miss, not an exception, and
``clear_cache`` sweeps the whole directory.
"""

import numpy as np
import pytest

from repro import store


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


class TestContentKey:
    def test_deterministic(self):
        assert store.content_key("a", [1, 2], {"x": 1}) == store.content_key(
            "a", [1, 2], {"x": 1}
        )

    def test_sensitive_to_content(self):
        assert store.content_key("a") != store.content_key("b")
        assert store.content_key([1, 2]) != store.content_key([2, 1])

    def test_dict_key_order_irrelevant(self):
        assert store.content_key({"a": 1, "b": 2}) == store.content_key(
            {"b": 2, "a": 1}
        )


class TestArrayCache:
    def test_round_trip(self):
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        store.save_arrays("test", "key1", arrays)
        loaded = store.load_arrays("test", "key1")
        assert loaded is not None
        assert np.array_equal(loaded["w"], arrays["w"])

    def test_missing_returns_none(self):
        assert store.load_arrays("test", "nope") is None

    def test_corrupt_returns_none_instead_of_raising(self):
        """A truncated .npz once raised BadZipFile from every later run; the
        load must report a miss and quarantine instead."""
        store.save_arrays("test", "key1", {"a": np.zeros(3)})
        path = store.default_store().array_path("test", "key1")
        path.write_bytes(path.read_bytes()[:40])
        assert store.load_arrays("test", "key1") is None
        assert path.with_name(path.name + ".corrupt").exists()


class TestJsonCache:
    def test_round_trip(self):
        store.save_json("test", "key2", {"tokens": ["a", "b"]})
        assert store.load_json("test", "key2") == {"tokens": ["a", "b"]}

    def test_missing_returns_none(self):
        assert store.load_json("test", "nope") is None

    def test_corrupt_returns_none_instead_of_raising(self):
        store.save_json("test", "key2", {"tokens": ["a"]})
        store.default_store().json_path("test", "key2").write_text('{"tokens": ["a')
        assert store.load_json("test", "key2") is None


def test_clear_cache(isolated_cache):
    store.save_json("test", "k", [1])
    store.save_arrays("test", "k", {"a": np.zeros(1)})
    removed = store.clear_cache()
    # entries + their .sha256 sidecars + the stats ledger, at minimum
    assert removed >= 4
    leftovers = [p for p in isolated_cache.rglob("*") if p.is_file()]
    assert leftovers == []
    assert store.load_json("test", "k") is None


def test_clear_cache_sweeps_quarantine_and_temps(isolated_cache):
    store.save_arrays("test", "k", {"a": np.zeros(1)})
    path = store.default_store().array_path("test", "k")
    path.write_bytes(b"rot")
    assert store.load_arrays("test", "k") is None  # quarantines
    (path.parent / ".tmp-orphan.npz").write_bytes(b"")
    store.clear_cache()
    assert [p for p in isolated_cache.rglob("*") if p.is_file()] == []
