"""Tests for the metrics registry, the counter primitive and the
cross-snapshot merge protocol."""

from dataclasses import fields

import pytest

from repro.core.drift import DriftStats
from repro.engine.stats import EngineStats
from repro.lm.encode_plane import EncodeStats
from repro.nn.stats import TrainStats
from repro.obs import Counters, LatencyReservoir, MetricsRegistry, merge_metrics
from repro.retrieval.base import RetrievalStats
from repro.serve.stats import ServeStats
from repro.store.stats import CacheStats

#: The seven subsystem stats classes built on :class:`repro.obs.Counters`.
STATS_CLASSES = [
    EngineStats,
    TrainStats,
    EncodeStats,
    RetrievalStats,
    ServeStats,
    CacheStats,
    DriftStats,
]


def counter_names(cls: type) -> list[str]:
    """The int/float fields of a stats class: rendered under their own names."""
    return [f.name for f in fields(cls) if isinstance(f.default, (int, float))]


#: Every counter of EngineStats (all fields but the per-stage timing dicts).
ENGINE_COUNTERS = counter_names(EngineStats)


class TestMetricsRegistry:
    def test_registers_as_dict_objects(self):
        registry = MetricsRegistry()
        stats = EngineStats()
        registry.register("engine", stats)
        stats.pairs_scored = 5  # lazily resolved: later growth is visible
        assert registry.as_dict()["engine.pairs_scored"] == 5

    def test_registers_callables(self):
        registry = MetricsRegistry()
        registry.register("fn", lambda: {"a": 1})
        registry.register("obj", lambda: CacheStats(hits=2))
        flat = registry.as_dict()
        assert flat["fn.a"] == 1
        assert flat["obj.hits"] == 2

    def test_snapshot_is_nested(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: {"k": 1})
        assert registry.snapshot() == {"x": {"k": 1}}

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: {})
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("x", lambda: {})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register("", lambda: {})

    def test_invalid_source_rejected(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("bad", object())

    def test_source_must_produce_mapping(self):
        registry = MetricsRegistry()
        registry.register("bad", lambda: 42)
        with pytest.raises(TypeError, match="expected a mapping"):
            registry.as_dict()

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.register("b", lambda: {})
        registry.register("a", lambda: {})
        assert registry.names() == ["a", "b"]

    def test_unified_pipeline_sources(self):
        """The tentpole wiring: engine/train/store stats under one roof."""
        registry = MetricsRegistry()
        registry.register("engine", EngineStats(pairs_scored=3))
        registry.register("train", TrainStats(steps=2))
        registry.register("store", CacheStats(hits=1))
        flat = registry.as_dict()
        assert flat["engine.pairs_scored"] == 3
        assert flat["train.steps"] == 2
        assert flat["store.hits"] == 1


class TestMergeMetrics:
    def test_numbers_sum(self):
        assert merge_metrics({"a": 1}, {"a": 2.5}) == {"a": 3.5}

    def test_lists_concatenate(self):
        assert merge_metrics({"q": ["x"]}, {"q": ["y"]}) == {"q": ["x", "y"]}

    def test_nested_dicts_recurse(self):
        left = {"engine": {"pairs": 1, "only_left": 2}}
        right = {"engine": {"pairs": 3}, "only_right": 4}
        assert merge_metrics(left, right) == {
            "engine": {"pairs": 4, "only_left": 2},
            "only_right": 4,
        }

    def test_mismatched_types_right_wins(self):
        assert merge_metrics({"a": "x"}, {"a": "y"}) == {"a": "y"}

    def test_disjoint_keys_pass_through(self):
        assert merge_metrics({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}


class TestStatsMerge:
    """Stats merge through ``merge_metrics`` over ``as_dict()`` snapshots."""

    def test_engine_stats_merge(self):
        left = EngineStats(pairs_scored=2, scoring_calls=1)
        left.add_time("forward", 1.0)
        right = EngineStats(pairs_scored=3, pairs_skipped=4)
        right.add_time("forward", 0.5, calls=2)
        right.add_time("bucket", 0.25)
        merged = merge_metrics(left.as_dict(), right.as_dict())
        assert merged["pairs_scored"] == 5
        assert merged["pairs_skipped"] == 4
        assert merged["scoring_calls"] == 1
        assert merged["time.forward"] == pytest.approx(1.5)
        assert merged["time.bucket"] == pytest.approx(0.25)
        # Inputs untouched.
        assert left.pairs_scored == 2 and right.pairs_scored == 3
        assert right.stage_calls == {"forward": 2, "bucket": 1}

    def test_train_stats_merge(self):
        left = TrainStats(steps=10, warm_starts=1)
        left.add_time("backward", 2.0)
        right = TrainStats(steps=5, cold_starts=2)
        right.add_time("backward", 1.0)
        merged = merge_metrics(left.as_dict(), right.as_dict())
        assert merged["steps"] == 15
        assert merged["warm_starts"] == 1
        assert merged["cold_starts"] == 2
        assert merged["time.backward"] == pytest.approx(3.0)

    @pytest.mark.parametrize("cls", STATS_CLASSES)
    def test_stats_merge_covers_every_counter(self, cls):
        """as_dict() reports every counter field under its own name, so
        merge_metrics sums all of them, not a hand-kept subset."""
        names = counter_names(cls)
        assert names
        left = cls(**{name: index + 1 for index, name in enumerate(names)})
        right = cls(**{name: 10 * (index + 1) for index, name in enumerate(names)})
        rendered = left.as_dict()
        merged = merge_metrics(rendered, right.as_dict())
        for index, name in enumerate(names):
            assert rendered[name] == index + 1, name
            assert merged[name] == 11 * (index + 1), name

    @pytest.mark.parametrize("cls", STATS_CLASSES)
    def test_fresh_stats_render_every_counter_as_zero(self, cls):
        """as_dict derives from the dataclass fields: counters never
        vanish from the rendered snapshot just because they are zero."""
        rendered = cls().as_dict()
        for name in counter_names(cls):
            assert name in rendered and rendered[name] == 0, name

    def test_merge_round_trips_through_registry_protocol(self):
        """Snapshot merge_metrics() equals the snapshot of summed stats."""
        left, right = EngineStats(pairs_scored=2), EngineStats(pairs_scored=3)
        via_snapshots = merge_metrics(left.as_dict(), right.as_dict())
        assert via_snapshots == EngineStats(pairs_scored=5).as_dict()

    def test_merge_round_trips_with_every_counter_set(self):
        left = EngineStats(**{name: 2 for name in ENGINE_COUNTERS})
        right = EngineStats(**{name: 3 for name in ENGINE_COUNTERS})
        left.add_time("forward", 1.0)
        right.add_time("forward", 0.5)
        expected = EngineStats(**{name: 5 for name in ENGINE_COUNTERS})
        expected.add_time("forward", 1.5)
        via_snapshots = merge_metrics(left.as_dict(), right.as_dict())
        assert via_snapshots == expected.as_dict()


class TestCounters:
    def test_every_stats_class_is_a_counters_dataclass(self):
        for cls in STATS_CLASSES:
            assert issubclass(cls, Counters), cls.__name__
            for method in ("timer", "add_time", "as_dict"):
                assert getattr(cls, method) is getattr(Counters, method), (
                    cls.__name__,
                    method,
                )

    def test_timer_accumulates_seconds_and_calls(self):
        stats = TrainStats()
        for _ in range(2):
            with stats.timer("forward"):
                pass
        stats.add_time("forward", 1.0, calls=3)
        assert stats.stage_calls == {"forward": 5}
        assert stats.stage_seconds["forward"] >= 1.0
        assert stats.as_dict()["time.forward"] == pytest.approx(
            stats.stage_seconds["forward"], abs=1e-6
        )

    def test_stage_keys_are_sorted_after_counters(self):
        stats = RetrievalStats(generations=1)
        stats.add_time("fuse", 0.5)
        stats.add_time("build.dense", 0.25)
        keys = list(stats.as_dict())
        assert keys[-2:] == ["time.build.dense", "time.fuse"]
        assert not any(key.startswith(("seconds_", "calls_")) for key in keys)
        assert "stage_seconds" not in keys and "stage_calls" not in keys

    def test_reservoirs_flatten_under_field_prefix(self):
        stats = ServeStats()
        stats.latency.observe(0.002)
        rendered = stats.as_dict()
        assert "latency" not in rendered
        assert rendered["latency_count"] == 1
        assert rendered["latency_mean_ms"] == pytest.approx(2.0)
        assert rendered["queue_wait_count"] == 0
        assert isinstance(stats.latency, LatencyReservoir)

    def test_derived_values_render_rounded(self):
        stats = ServeStats(batches=3, coalesced_requests=7)
        assert stats.as_dict()["coalesce_ratio"] == round(7 / 3, 3)

    def test_lists_render_as_copies(self):
        stats = CacheStats(quarantined=["x"])
        rendered = stats.as_dict()
        assert rendered["quarantined"] == ["x"]
        rendered["quarantined"].append("y")
        assert stats.quarantined == ["x"]
