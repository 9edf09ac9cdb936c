"""The counter primitive behind every subsystem's stats class.

Each pipeline layer keeps its counters on a dataclass that subclasses
:class:`Counters` and declares only its fields (plus the few methods that
are really its own).  The base supplies the rest, once:

* :meth:`Counters.timer` / :meth:`Counters.add_time` accumulate per-stage
  wall-clock seconds and call counts.  They are plain dict updates with no
  field reflection, because the timer wraps every engine micro-batch and
  every training step;
* :meth:`Counters.as_dict` derives the flat snapshot from
  :func:`dataclasses.fields`, so a new counter always renders -- as ``0``
  when untouched -- instead of vanishing from a hand-kept name list.

There is no ``merge`` method: :func:`repro.obs.merge_metrics` folds two
``as_dict()`` snapshots (numbers sum, lists concatenate), which is how
parallel sessions and repeated runs are totalled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator

from .latency import LatencyReservoir

#: The base's own fields; rendered as ``time.<stage>``, not by name.
_STAGE_FIELDS = ("stage_seconds", "stage_calls")


@dataclass
class Counters:
    """Counter, list, reservoir and stage-timing fields on one dataclass.

    ``as_dict()`` renders each field by its type:

    * int and float counters under their field names;
    * list fields as a copy, under their field names;
    * :class:`LatencyReservoir` fields as ``<field>_count``,
      ``<field>_mean_ms``, ``<field>_p50_ms``, ...;
    * the names in :attr:`DERIVED` as their method's result, rounded to
      three places;
    * stage seconds as ``time.<stage>``, sorted by stage.
    """

    #: Zero-argument methods whose result is reported under their own name.
    DERIVED: ClassVar[tuple[str, ...]] = ()

    #: Wall-clock seconds per named stage.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Invocations per named stage.
    stage_calls: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the enclosed block under ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + elapsed
            self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Fold externally measured time (e.g. pipeline stages) into the stats."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + calls

    def as_dict(self) -> dict[str, object]:
        """Flat snapshot of every field (see the class docstring)."""
        payload: dict[str, object] = {}
        for f in fields(self):
            if f.name in _STAGE_FIELDS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, LatencyReservoir):
                payload.update(value.as_dict(f"{f.name}_"))
            elif isinstance(value, list):
                payload[f.name] = list(value)
            else:
                payload[f.name] = value
        for name in self.DERIVED:
            payload[name] = round(getattr(self, name)(), 3)
        for stage in sorted(self.stage_seconds):
            payload[f"time.{stage}"] = round(self.stage_seconds[stage], 6)
        return payload
