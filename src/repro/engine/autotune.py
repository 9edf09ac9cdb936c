"""Per-shape kernel autotuner for the scoring engine's execution rungs.

Which execution strategy wins a micro-batch -- the exact float32 path or
the int8 rung, with which GEMM packing and which row-wise split -- depends
on the *shape* of the work (padded bucket length x batch rows) and on the
machine's BLAS/cache behaviour, neither of which is knowable statically.
:class:`KernelAutotuner` measures it instead:

* the first time the engine scores a shape it has no decision for, every
  candidate strategy is timed on a synthetic batch of that exact shape and
  **parity-probed** against the float32 scores (a candidate whose score
  deviation exceeds ``score_atol`` is rejected outright -- the automatic
  float32 fallback);
* the winning decision per shape is cached in memory and **persisted
  per-machine** through :mod:`repro.store`, keyed by a machine fingerprint
  (platform, CPU count, numpy/python versions) plus the model geometry, so
  the second engine startup on the same machine re-uses the plan without
  re-measuring.

Decisions are plain ``(rung, packing, split)`` triples; ``FLOAT32_DECISION``
is the always-correct default every lookup degrades to.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Callable, Sequence

import numpy as np

from ..lm.tokenizer import EncodedPair

#: Store namespace + schema version of persisted plans.  Bump the version
#: whenever the candidate set, the measurement protocol or the cost of a
#: measured kernel changes: stale plans must not survive a protocol change.
PLAN_KIND = "engine-autotune"
PLAN_VERSION = "v2"

#: The exact rung: what the engine runs when quantization is off, and what
#: every shape degrades to when no faster candidate survives the parity probe.
FLOAT32_DECISION: tuple[str, str | None, int] = ("float32", None, 1)

#: The search space: (rung, packing, split) triples.  ``fold`` folds the
#: quantization scales into the GEMM operands; ``accum`` accumulates the raw
#: int8 products and dequantizes in place afterwards (see
#: :class:`repro.nn.layers.QuantizedLinear`).  ``split`` chops the batch
#: row-wise before scoring (:func:`repro.engine.batching.split_batch`).
CANDIDATES: tuple[tuple[str, str | None, int], ...] = (
    FLOAT32_DECISION,
    ("int8", "fold", 1),
    ("int8", "fold", 2),
    ("int8", "accum", 1),
    ("int8", "accum", 2),
)


def machine_fingerprint() -> dict[str, object]:
    """What makes kernel timings non-portable: hardware + BLAS-stack identity."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _pow2_ceil(value: int) -> int:
    return 1 << max(int(value) - 1, 0).bit_length()


def shape_key(padded_length: int, rows: int) -> str:
    """Bucket a (padded length, batch rows) pair into one plan entry.

    Padded lengths are already quantized by the bucket planner; rows are
    rounded up to the next power of two so near-equal batch heights share a
    decision instead of each triggering a measurement.
    """
    return f"L{int(padded_length)}xR{_pow2_ceil(max(int(rows), 1))}"


class KernelAutotuner:
    """Measures, caches and persists per-shape execution decisions."""

    def __init__(
        self,
        model_config: dict,
        vocab_size: int,
        score_atol: float = 0.05,
        repeats: int = 3,
        cache_token: str | None = None,
    ) -> None:
        self.vocab_size = int(vocab_size)
        self.score_atol = float(score_atol)
        self.repeats = max(int(repeats), 1)
        #: Plan entries: shape key -> {"rung", "packing", "split", "speedup",
        #: "max_deviation"}.
        self.plan: dict[str, dict] = {}
        #: Whether the in-memory plan was seeded from a persisted one.
        self.loaded_from_cache = False
        self._loaded = False
        self._key = None
        self._key_parts = (
            PLAN_KIND,
            PLAN_VERSION,
            machine_fingerprint(),
            model_config,
            self.vocab_size,
            self.score_atol,
            cache_token or "",
        )

    # -- persistence -------------------------------------------------------------

    def _store_key(self) -> str:
        if self._key is None:
            from .. import store

            self._key = store.content_key(*self._key_parts)
        return self._key

    def load(self) -> bool:
        """Seed the plan from the per-machine persisted copy (idempotent)."""
        if self._loaded:
            return self.loaded_from_cache
        self._loaded = True
        from .. import store

        payload = store.load_json(PLAN_KIND, self._store_key())
        if isinstance(payload, dict) and isinstance(payload.get("shapes"), dict):
            self.plan.update(payload["shapes"])
            self.loaded_from_cache = True
        return self.loaded_from_cache

    def save(self) -> None:
        from .. import store

        store.save_json(
            PLAN_KIND,
            self._store_key(),
            {
                "version": PLAN_VERSION,
                "fingerprint": machine_fingerprint(),
                "shapes": self.plan,
            },
        )

    # -- lookup ------------------------------------------------------------------

    def decision_for(
        self, padded_length: int, rows: int
    ) -> tuple[str, str | None, int] | None:
        """The cached decision for a shape, or ``None`` if never measured."""
        entry = self.plan.get(shape_key(padded_length, rows))
        if entry is None:
            return None
        return (entry["rung"], entry["packing"], int(entry["split"]))

    # -- measurement -------------------------------------------------------------

    def _synthetic_batch(self, padded_length: int, rows: int) -> EncodedPair:
        """A deterministic batch of the given shape over the real vocab."""
        rng = np.random.default_rng(padded_length * 1_000_003 + rows)
        ids = rng.integers(0, self.vocab_size, size=(rows, padded_length)).astype(np.int64)
        segments = np.zeros((rows, padded_length), dtype=np.int64)
        segments[:, padded_length // 2 :] = 1
        mask = np.ones((rows, padded_length), dtype=np.int64)
        if rows > 1 and padded_length > 2:
            # A realistic plan always carries some padding: give a quarter of
            # the rows a short tail so masking cost is represented.
            mask[: max(rows // 4, 1), -(padded_length // 4 or 1) :] = 0
        return EncodedPair(input_ids=ids, segment_ids=segments, attention_mask=mask)

    def _time(self, fn: Callable[[], np.ndarray]) -> float:
        fn()  # warm caches / first-touch allocations outside the timed runs
        best = float("inf")
        for _ in range(self.repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def measure_shape(
        self,
        padded_length: int,
        rows: int,
        float_score: Callable[[EncodedPair], np.ndarray],
        quant_score: Callable[[EncodedPair, str, int], np.ndarray],
    ) -> dict:
        """Time every candidate on this shape and record the winner.

        ``float_score`` is the engine's exact path; ``quant_score`` takes
        ``(batch, packing, split)``.  A candidate only wins if it beats the
        float32 baseline *and* its scores stay within ``score_atol`` of the
        exact ones on the probe batch.
        """
        batch = self._synthetic_batch(padded_length, rows)
        reference = np.asarray(float_score(batch), dtype=np.float64)
        baseline = self._time(lambda: float_score(batch))
        entry = {
            "rung": FLOAT32_DECISION[0],
            "packing": FLOAT32_DECISION[1],
            "split": FLOAT32_DECISION[2],
            "speedup": 1.0,
            "max_deviation": 0.0,
        }
        best_seconds = baseline
        for rung, packing, split in CANDIDATES:
            if rung == "float32":
                continue
            if split > rows:
                continue
            try:
                scores = np.asarray(
                    quant_score(batch, packing, split), dtype=np.float64
                )
            except Exception:
                continue
            deviation = float(np.abs(scores - reference).max()) if scores.size else 0.0
            if not np.isfinite(deviation) or deviation > self.score_atol:
                continue  # automatic float32 fallback for this candidate
            seconds = self._time(lambda: quant_score(batch, packing, split))
            if seconds < best_seconds:
                best_seconds = seconds
                entry = {
                    "rung": rung,
                    "packing": packing,
                    "split": split,
                    "speedup": baseline / max(seconds, 1e-12),
                    "max_deviation": deviation,
                }
        self.plan[shape_key(padded_length, rows)] = entry
        return entry

    def ensure_shapes(
        self,
        shapes: Sequence[tuple[int, int]],
        float_score: Callable[[EncodedPair], np.ndarray],
        quant_score: Callable[[EncodedPair, str, int], np.ndarray],
        stats=None,
    ) -> int:
        """Measure every shape the plan does not cover yet; returns #measured.

        Newly measured shapes are merged into the persisted per-machine plan
        so the next startup skips the measurement entirely.
        """
        self.load()
        missing: list[tuple[int, int]] = []
        seen: set[str] = set()
        for padded_length, rows in shapes:
            key = shape_key(padded_length, rows)
            if key not in self.plan and key not in seen:
                seen.add(key)
                missing.append((padded_length, rows))
        if not missing:
            return 0
        for padded_length, rows in missing:
            if stats is not None:
                timer = stats.timer("autotune")
            else:
                from contextlib import nullcontext

                timer = nullcontext()
            with timer:
                self.measure_shape(padded_length, rows, float_score, quant_score)
            if stats is not None:
                stats.autotune_shapes += 1
        self.save()
        if stats is not None:
            stats.autotune_runs += 1
        return len(missing)
