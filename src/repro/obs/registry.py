"""The metrics registry: one roof over the pipeline's stats objects.

Every subsystem keeps its counters on a :class:`~repro.obs.counters.Counters`
dataclass -- the engine's ``EngineStats``, training's ``TrainStats``, the
encode plane's ``EncodeStats``, retrieval's ``RetrievalStats``, serving's
``ServeStats``, the artifact store's ``CacheStats`` and drift's
``DriftStats`` -- and each renders through the same ``as_dict()``.
:class:`MetricsRegistry` puts them behind a single protocol: any *source*
that either exposes ``as_dict() -> dict`` or is a zero-argument callable
returning one (or returning an object exposing ``as_dict``) registers under
a name, and the registry produces namespaced flat snapshots
(``engine.pairs_scored``, ``train.steps``, ``store.corruption_events``, ...).

:func:`merge_metrics` is the cross-snapshot half of the protocol: numeric
values sum, lists concatenate, nested dicts merge recursively -- so
snapshots from parallel sessions or repeated runs fold into fleet-level
totals without a per-class ``merge``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping


def _resolve_payload(value: Any) -> dict[str, Any]:
    """Coerce a source's product into a plain dict snapshot."""
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        value = as_dict()
    if not isinstance(value, Mapping):
        raise TypeError(
            f"metrics source produced {type(value).__name__}, expected a mapping "
            f"or an object with as_dict()"
        )
    return dict(value)


class MetricsRegistry:
    """Named collection of metric sources with a unified snapshot surface."""

    def __init__(self) -> None:
        self._sources: dict[str, Callable[[], dict[str, Any]]] = {}

    def register(self, name: str, source: Any) -> None:
        """Register a stats object (``as_dict()``) or zero-arg callable.

        Sources are resolved lazily at snapshot time, so a registered
        ``EngineStats`` keeps reporting as its counters grow.
        """
        if not name:
            raise ValueError("metrics source name must be non-empty")
        if name in self._sources:
            raise ValueError(f"duplicate metrics source: {name!r}")
        if hasattr(source, "as_dict"):
            self._sources[name] = lambda: _resolve_payload(source)
        elif callable(source):
            self._sources[name] = lambda: _resolve_payload(source())
        else:
            raise TypeError(
                f"metrics source {name!r} must expose as_dict() or be callable"
            )

    def names(self) -> list[str]:
        return sorted(self._sources)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Nested snapshot: ``{source name: its as_dict()}``."""
        return {name: self._sources[name]() for name in sorted(self._sources)}

    def as_dict(self) -> dict[str, Any]:
        """Flat snapshot with dotted keys (``engine.pairs_scored``, ...)."""
        flat: dict[str, Any] = {}
        for name, payload in self.snapshot().items():
            for key, value in payload.items():
                flat[f"{name}.{key}"] = value
        return flat


def merge_metrics(left: Mapping[str, Any], right: Mapping[str, Any]) -> dict[str, Any]:
    """Fold two metric snapshots into one.

    Numbers sum (bools count as the ints they are), lists concatenate,
    nested mappings merge recursively; for anything else the right-hand
    value wins.  Keys present on only one side pass through unchanged.
    """
    merged: dict[str, Any] = dict(left)
    for key, value in right.items():
        if key not in merged:
            merged[key] = value
            continue
        existing = merged[key]
        if isinstance(existing, Mapping) and isinstance(value, Mapping):
            merged[key] = merge_metrics(existing, value)
        elif isinstance(existing, list) and isinstance(value, list):
            merged[key] = existing + value
        elif isinstance(existing, (int, float)) and isinstance(value, (int, float)):
            merged[key] = existing + value
        else:
            merged[key] = value
    return merged
