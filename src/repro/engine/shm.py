"""Persistent serving plane: shared-memory weight arena + zero-respawn pool.

The paper's interactive loop re-fine-tunes the encoder after (nearly) every
label, and its Fig. 9 response-time experiment measures exactly the latency
a user feels between labels.  Tearing down and respawning the scoring pool
on every weight bump -- N process spawns, each re-pickling and re-loading
the full state dict -- dominates that latency.  This module keeps the pool
alive for the whole session instead:

* :class:`WeightArena` (parent side) publishes every parameter tensor once
  into a named shared-memory *data segment*, with a version stamp and a
  compact manifest (names, shapes, dtypes, offsets, checksums) in a fixed
  *control segment*.  A publish is an in-place memcpy plus a manifest
  rewrite; the version stamp is written last, so readers of a new version
  always see a complete manifest.
* :class:`ArenaClient` (worker side) attaches the control segment once, and
  on every task compares the arena's version stamp to its cached one.  On
  mismatch it re-reads the manifest, verifies the manifest and weight
  checksums (a torn or corrupted publish fails loudly and the engine falls
  back in-process) and re-binds **zero-copy numpy views** of the shared
  weights into its model -- a hot swap, not a respawn.
* :class:`ScratchRegion` ships large micro-batch input arrays through a
  reusable shared-memory scratch segment, so per-task IPC stops scaling
  with batch bytes.
* :class:`ShmServingPlane` orchestrates all three as the top rung of the
  engine's fallback ladder (shm-pool -> pickle-pool -> in-process).  Every
  failure mode -- shared memory unavailable, segment creation denied, pool
  creation denied, torn publish, mid-flight worker error -- degrades to the
  next rung without ever surfacing an error, and pool creation failures are
  retried through a bounded :class:`repro.engine.executor.RetryGate`.

Lifecycle discipline: the parent owns every segment and unlinks all of them
in :meth:`close` (asserted via an ``obs.check`` invariant); workers only
ever attach, and because spawn children share the parent's
``resource_tracker`` a worker exit cannot unlink segments the parent still
serves from.  Stale segments left over from a crashed previous run are
reclaimed on name collision.

Set ``REPRO_DISABLE_SHM=1`` (or ``EngineConfig.use_shm=False``) to disable
the plane entirely and exercise the fallback ladder.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import struct
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..lm.tokenizer import EncodedPair
from .batching import MicroBatch
from .executor import RetryGate

logger = logging.getLogger(__name__)

#: Tensor offsets inside the data segment are rounded up to this, keeping
#: every zero-copy view alignment-safe for any numpy dtype.
ALIGNMENT = 64
#: Digest width of the manifest and weight checksums (blake2b).
DIGEST_BYTES = 16
#: Control-segment layout: version stamp (int64) | manifest length (int64) |
#: manifest digest (16 bytes) | pickled manifest payload.
CTRL_HEADER_BYTES = 32
_CTRL_MIN_CAPACITY = 1 << 16

#: Names of every live (created, not yet unlinked) segment owned by this
#: process -- the leak-check surface for tests and ``obs.check`` invariants.
_LIVE_SEGMENTS: set[str] = set()


class ArenaError(RuntimeError):
    """A shared-memory publish/attach/verify step failed."""


def shared_memory_available() -> bool:
    """Whether the shm serving plane may be used at all in this process."""
    if os.environ.get("REPRO_DISABLE_SHM"):
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except Exception:
        return False
    return True


def live_segment_names() -> list[str]:
    """Segments created by this process and not yet unlinked (test surface)."""
    return sorted(_LIVE_SEGMENTS)


def _digest(buffer) -> bytes:
    return hashlib.blake2b(buffer, digest_size=DIGEST_BYTES).digest()


def _align(offset: int) -> int:
    return -(-offset // ALIGNMENT) * ALIGNMENT


def _new_segment(name: str, size: int):
    """Create a named segment, reclaiming a stale orphan with the same name."""
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        # A previous run crashed before unlinking: reclaim the name.
        logger.warning("reclaiming stale shared-memory segment %s", name)
        try:
            stale = shared_memory.SharedMemory(name=name)
            stale.close()
            stale.unlink()
        except FileNotFoundError:
            pass
        segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    _LIVE_SEGMENTS.add(name)
    return segment


def _attach_segment(name: str):
    """Attach an existing segment without claiming ownership of its lifetime.

    Pool workers share the parent's ``resource_tracker`` (spawn hands the
    tracker fd down), so the attach-time register is a duplicate of the
    parent's create-time register and is harmless: the tracker's cache is a
    set, and it only runs cleanup once *every* process holding the fd has
    exited.  Deliberately do NOT ``unregister`` here -- that would remove
    the parent's entry, dropping the crash-cleanup backstop and making the
    parent's own unlink-time unregister fail noisily.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _unlink_segment(segment) -> None:
    name = segment.name
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        logger.warning("failed to unlink shared-memory segment %s", name, exc_info=True)
    _LIVE_SEGMENTS.discard(name)


# -- manifest --------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSpec:
    """Location and layout of one published tensor inside the data segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int
    nbytes: int


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a worker needs to (re)bind views of one published version."""

    version: int
    data_segment: str
    total_bytes: int
    data_digest: bytes
    tensors: tuple[TensorSpec, ...]

    def to_payload(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_payload(payload: bytes) -> "ArenaManifest":
        manifest = pickle.loads(payload)
        if not isinstance(manifest, ArenaManifest):
            raise ArenaError(f"manifest payload decoded to {type(manifest).__name__}")
        return manifest


# -- parent side -----------------------------------------------------------------


class WeightArena:
    """Parent-side publisher of versioned weights into shared memory.

    One fixed-name control segment carries the version stamp and manifest;
    data segments are generation-named so the arena can grow (a new, larger
    segment replaces the old one and the manifest re-points workers at it).
    Within a session tensor shapes are stable, so in practice every publish
    after the first is an in-place overwrite of the same data segment.
    """

    def __init__(self, token: str | None = None) -> None:
        self.base = f"repro-{os.getpid()}-{token or uuid.uuid4().hex[:8]}"
        self._ctrl = None
        self._data = None
        self._data_generation = 0
        self.manifest: ArenaManifest | None = None
        self.publishes = 0
        self.published_bytes = 0

    @property
    def ctrl_name(self) -> str:
        return f"{self.base}-ctrl"

    def publish(
        self, tensors: Sequence[tuple[str, np.ndarray]], version: int
    ) -> ArenaManifest:
        """Copy ``tensors`` into the arena and stamp them as ``version``.

        Write order is the torn-publish defence: data bytes, then manifest
        payload and its digest, then the version stamp last.  A reader that
        observes the new stamp therefore either sees the complete publish or
        detects a digest mismatch and refuses the swap.
        """
        specs: list[TensorSpec] = []
        arrays: list[np.ndarray] = []
        offset = 0
        for name, array in tensors:
            array = np.ascontiguousarray(array)
            offset = _align(offset)
            specs.append(
                TensorSpec(name, tuple(array.shape), str(array.dtype), offset, array.nbytes)
            )
            arrays.append(array)
            offset += array.nbytes
        total_bytes = max(offset, 1)
        data = self._ensure_data_segment(total_bytes)
        for spec, array in zip(specs, arrays):
            destination = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=data.buf, offset=spec.offset
            )
            destination[...] = array
        manifest = ArenaManifest(
            version=version,
            data_segment=data.name,
            total_bytes=total_bytes,
            data_digest=_digest(data.buf[:total_bytes]),
            tensors=tuple(specs),
        )
        payload = manifest.to_payload()
        ctrl = self._ensure_ctrl_segment(len(payload))
        struct.pack_into("<q", ctrl.buf, 8, len(payload))
        ctrl.buf[CTRL_HEADER_BYTES : CTRL_HEADER_BYTES + len(payload)] = payload
        ctrl.buf[16 : 16 + DIGEST_BYTES] = _digest(payload)
        struct.pack_into("<q", ctrl.buf, 0, version)
        self.manifest = manifest
        self.publishes += 1
        self.published_bytes += total_bytes
        return manifest

    def _ensure_data_segment(self, total_bytes: int):
        if self._data is not None and self._data.size >= total_bytes:
            return self._data
        old = self._data
        self._data_generation += 1
        self._data = _new_segment(
            f"{self.base}-d{self._data_generation}", total_bytes
        )
        if old is not None:
            # Workers still mapping the old generation keep it alive until
            # they re-attach via the new manifest; unlinking now only removes
            # the name.
            _unlink_segment(old)
        return self._data

    def _ensure_ctrl_segment(self, payload_len: int):
        needed = CTRL_HEADER_BYTES + payload_len
        if self._ctrl is None:
            self._ctrl = _new_segment(
                self.ctrl_name, max(_CTRL_MIN_CAPACITY, 4 * needed)
            )
        if self._ctrl.size < needed:
            # The control name is baked into worker bootstraps, so it cannot
            # move mid-session; callers fall down the serving ladder instead.
            raise ArenaError(
                f"manifest needs {needed} bytes, control segment holds {self._ctrl.size}"
            )
        return self._ctrl

    def views(self) -> dict[str, np.ndarray]:
        """Read-only zero-copy views of the last published tensors.

        This is the *parent-side* counterpart of :meth:`ArenaClient.sync`:
        the serving layer's model residency (:mod:`repro.serve.residency`)
        binds in-process model skeletons to these views, so every session of
        a tenant scores against the single shared copy of that tenant's
        weights instead of a private deep copy per session.
        """
        if self.manifest is None or self._data is None:
            raise ArenaError("no published version to view")
        views: dict[str, np.ndarray] = {}
        for spec in self.manifest.tensors:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=self._data.buf, offset=spec.offset
            )
            view.flags.writeable = False
            views[spec.name] = view
        return views

    def info(self) -> dict[str, object]:
        return {
            "active": self.manifest is not None,
            "version": self.manifest.version if self.manifest else None,
            "bytes": self.manifest.total_bytes if self.manifest else 0,
            "tensors": len(self.manifest.tensors) if self.manifest else 0,
            "publishes": self.publishes,
        }

    def close(self) -> None:
        """Unlink every owned segment (idempotent).

        The ``obs.check`` invariant turns a leaked ``/dev/shm`` entry into a
        loud failure whenever tracing is active.
        """
        for segment in (self._data, self._ctrl):
            if segment is not None:
                _unlink_segment(segment)
        self._data = None
        self._ctrl = None
        self.manifest = None
        leaked = [name for name in _LIVE_SEGMENTS if name.startswith(self.base)]
        obs.check("shm.arena_unlinked", not leaked, arena=self.base, leaked=leaked)


class ScratchRegion:
    """A reusable, growable shared-memory staging area for micro-batch inputs."""

    def __init__(self, base: str) -> None:
        self.base = base
        self._segment = None
        self._generation = 0

    @property
    def name(self) -> str | None:
        return self._segment.name if self._segment is not None else None

    def write(
        self, arrays: Sequence[np.ndarray]
    ) -> tuple[str, list[tuple[tuple[int, ...], str, int]]]:
        """Stage ``arrays`` into shared memory; returns (segment name, descriptors)."""
        offsets: list[int] = []
        offset = 0
        staged = [np.ascontiguousarray(array) for array in arrays]
        for array in staged:
            offset = _align(offset)
            offsets.append(offset)
            offset += array.nbytes
        segment = self._ensure(max(offset, 1))
        descriptors = []
        for array, start in zip(staged, offsets):
            destination = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf, offset=start
            )
            destination[...] = array
            descriptors.append((tuple(array.shape), str(array.dtype), start))
        return segment.name, descriptors

    def _ensure(self, nbytes: int):
        if self._segment is not None and self._segment.size >= nbytes:
            return self._segment
        old = self._segment
        self._generation += 1
        capacity = max(nbytes, _CTRL_MIN_CAPACITY)
        if old is not None:
            capacity = max(capacity, 2 * old.size)
        self._segment = _new_segment(f"{self.base}{self._generation}", capacity)
        if old is not None:
            _unlink_segment(old)
        return self._segment

    def close(self) -> None:
        if self._segment is not None:
            _unlink_segment(self._segment)
            self._segment = None


# -- worker side -----------------------------------------------------------------


class ArenaClient:
    """Worker-side attachment: version-checked zero-copy weight views."""

    def __init__(self, ctrl_name: str, model, classifier) -> None:
        self._ctrl = _attach_segment(ctrl_name)
        self.model = model
        self.classifier = classifier
        self._data = None
        self._data_name: str | None = None
        self.version: int | None = None

    def sync(self) -> tuple[bool, float]:
        """Hot-swap to the arena's current version if it moved.

        Returns ``(swapped, seconds)``.  Raises :class:`ArenaError` on any
        integrity failure (torn publish, digest mismatch) -- the caller
        reports the task as failed and the parent falls down the ladder.
        """
        version = struct.unpack_from("<q", self._ctrl.buf, 0)[0]
        if version == self.version:
            return False, 0.0
        started = time.perf_counter()
        payload_len = struct.unpack_from("<q", self._ctrl.buf, 8)[0]
        if payload_len <= 0 or CTRL_HEADER_BYTES + payload_len > self._ctrl.size:
            raise ArenaError(f"control block has no valid manifest (len={payload_len})")
        payload = bytes(
            self._ctrl.buf[CTRL_HEADER_BYTES : CTRL_HEADER_BYTES + payload_len]
        )
        if bytes(self._ctrl.buf[16 : 16 + DIGEST_BYTES]) != _digest(payload):
            raise ArenaError("manifest digest mismatch (torn publish)")
        manifest = ArenaManifest.from_payload(payload)
        if manifest.version != version:
            raise ArenaError(
                f"manifest version {manifest.version} != stamp {version} (torn publish)"
            )
        if manifest.data_segment != self._data_name:
            data = _attach_segment(manifest.data_segment)
            old = self._data
            self._data, self._data_name = data, manifest.data_segment
        else:
            old = None
        if _digest(self._data.buf[: manifest.total_bytes]) != manifest.data_digest:
            raise ArenaError("weight digest mismatch (torn publish)")
        views: dict[str, np.ndarray] = {}
        for spec in manifest.tensors:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=self._data.buf, offset=spec.offset
            )
            view.flags.writeable = False
            views[spec.name] = view
        from ..nn.serialize import bind_state_views

        bind_state_views(
            self.model,
            {
                name.removeprefix("model."): view
                for name, view in views.items()
                if name.startswith("model.")
            },
        )
        bind_state_views(
            self.classifier,
            {
                name.removeprefix("classifier."): view
                for name, view in views.items()
                if name.startswith("classifier.")
            },
        )
        if old is not None:
            try:
                old.close()
            except BufferError:
                pass  # a stray view still maps it; the OS reclaims at exit
        self.version = version
        return True, time.perf_counter() - started

    def close(self) -> None:
        for segment in (self._data, self._ctrl):
            if segment is not None:
                try:
                    segment.close()
                except Exception:
                    pass
        self._data = None
        self._ctrl = None


#: Per-worker singletons, built by :func:`_init_shm_worker`.
_WORKER_CLIENT: ArenaClient | None = None
_WORKER_SPECIAL_IDS: list[int] = []
_WORKER_SCRATCH: dict[str, object] = {}


def make_bootstrap_payload(
    bert_config: dict,
    hidden_size: int,
    classifier_size: int,
    special_ids: Sequence[int],
    ctrl_name: str,
) -> bytes:
    """The tiny spawn payload: config + segment names, never weights."""
    return pickle.dumps(
        {
            "bert_config": bert_config,
            "hidden_size": hidden_size,
            "classifier_size": classifier_size,
            "special_ids": list(special_ids),
            "ctrl_name": ctrl_name,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _init_shm_worker(payload: bytes) -> None:
    """Pool initializer: build weight-less skeletons, attach the arena."""
    global _WORKER_CLIENT, _WORKER_SPECIAL_IDS
    from ..featurizers.bert import MatchingClassifier
    from ..lm.bert import MiniBert
    from ..lm.config import BertConfig

    spec = pickle.loads(payload)
    model = MiniBert(BertConfig.from_dict(spec["bert_config"]))
    model.eval()
    classifier = MatchingClassifier(
        spec["hidden_size"], spec["classifier_size"], np.random.default_rng(0)
    )
    classifier.eval()
    _WORKER_CLIENT = ArenaClient(spec["ctrl_name"], model, classifier)
    _WORKER_SPECIAL_IDS = spec["special_ids"]


def _worker_scratch(name: str):
    segment = _WORKER_SCRATCH.get(name)
    if segment is None:
        for stale_name, stale in list(_WORKER_SCRATCH.items()):
            try:
                stale.close()
            except Exception:
                pass
            del _WORKER_SCRATCH[stale_name]
        segment = _attach_segment(name)
        _WORKER_SCRATCH[name] = segment
    return segment


def _ping_worker(_: int) -> bool:
    """Health-check task: proves the initializer ran and the arena attached."""
    return _WORKER_CLIENT is not None


def _score_shm_task(task) -> tuple:
    """Pool task: sync weights, materialise inputs, score one micro-batch.

    Returns ``("ok", scores, swapped, attach_seconds)`` or ``("error",
    message, False, 0.0)`` -- failures travel as values so one bad task
    cannot poison the pool.
    """
    try:
        assert _WORKER_CLIENT is not None, "worker used before initialization"
        swapped, attach_seconds = _WORKER_CLIENT.sync()
        kind = task[0]
        if kind == "scratch":
            segment = _worker_scratch(task[1])
            arrays = [
                np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
                for shape, dtype, offset in task[2]
            ]
        else:
            arrays = list(task[1])
        batch = EncodedPair(
            input_ids=arrays[0], segment_ids=arrays[1], attention_mask=arrays[2]
        )
        from ..featurizers.bert import score_encoded_batch

        scores = score_encoded_batch(
            _WORKER_CLIENT.model, _WORKER_CLIENT.classifier, _WORKER_SPECIAL_IDS, batch
        )
        return ("ok", np.asarray(scores), swapped, attach_seconds)
    except Exception as exc:  # degrade, never error
        return ("error", f"{type(exc).__name__}: {exc}", False, 0.0)


# -- orchestration ---------------------------------------------------------------


class ShmServingPlane:
    """Top rung of the serving ladder: arena + persistent pool + scratch.

    The pool is spawned once per session with a bootstrap payload (config +
    segment names); every subsequent weight update is an arena publish that
    workers hot-swap on their next task.  Any failure returns ``None`` from
    :meth:`score` and the engine falls to the pickle-pool rung.
    """

    def __init__(
        self,
        n_workers: int,
        start_method: str,
        bootstrap_extra: dict,
        scratch_min_bytes: int,
        retry_cooldown: int = 8,
        max_pool_failures: int = 3,
        spawn_timeout: float = 60.0,
    ) -> None:
        self.n_workers = n_workers
        self.start_method = start_method
        #: Seconds to wait for the post-spawn health ping.  A worker whose
        #: initializer keeps crashing (so the pool respawns it forever) would
        #: otherwise hang the first ``map`` indefinitely instead of degrading.
        self.spawn_timeout = spawn_timeout
        self._bootstrap_extra = bootstrap_extra
        self.scratch_min_bytes = scratch_min_bytes
        self.arena = WeightArena()
        self.scratch = ScratchRegion(f"{self.arena.base}-s")
        self._pool = None
        self._gate = RetryGate(cooldown=retry_cooldown, max_failures=max_pool_failures)
        self._disabled = n_workers <= 0 or not shared_memory_available()

    @property
    def usable(self) -> bool:
        return not self._disabled and not self._gate.exhausted

    @property
    def pool_active(self) -> bool:
        return self._pool is not None

    def publish(
        self,
        tensors_factory: Callable[[], Sequence[tuple[str, np.ndarray]]],
        version: int,
        stats,
    ) -> bool:
        """Best-effort publish of the current weights at ``version``."""
        if self._disabled:
            return False
        if self.arena.manifest is not None and self.arena.manifest.version == version:
            return True
        try:
            with stats.timer("publish"):
                manifest = self.arena.publish(tensors_factory(), version)
        except Exception:
            logger.warning(
                "shared-memory publish failed; disabling the shm serving plane",
                exc_info=True,
            )
            self.close()
            self._disabled = True
            return False
        stats.publishes += 1
        stats.publish_bytes += manifest.total_bytes
        if self._pool is not None:
            # The old lifecycle would have torn down and respawned the pool
            # for this version bump.
            stats.respawns_avoided += 1
        return True

    def _ensure_pool(self) -> bool:
        if self._pool is not None:
            return True
        if not self._gate.may_attempt():
            return False
        try:
            import multiprocessing

            context = multiprocessing.get_context(self.start_method)
            payload = make_bootstrap_payload(
                ctrl_name=self.arena.ctrl_name, **self._bootstrap_extra
            )
            pool = context.Pool(
                processes=self.n_workers,
                initializer=_init_shm_worker,
                initargs=(payload,),
            )
            try:
                healthy = pool.map_async(_ping_worker, [0]).get(
                    timeout=self.spawn_timeout
                )
                if not all(healthy):
                    raise ArenaError("worker initialized without an arena client")
            except Exception:
                pool.terminate()
                pool.join()
                raise
            self._pool = pool
            self._gate.record_success()
            return True
        except Exception:
            logger.warning(
                "persistent shm worker pool unavailable; falling back", exc_info=True
            )
            self._pool = None
            self._gate.record_failure()
            return False

    def _build_tasks(self, plan: Sequence[MicroBatch], stats) -> list:
        triples = [
            (mb.batch.input_ids, mb.batch.segment_ids, mb.batch.attention_mask)
            for mb in plan
        ]
        total_bytes = sum(array.nbytes for triple in triples for array in triple)
        if total_bytes >= self.scratch_min_bytes:
            try:
                with stats.timer("scratch"):
                    flat = [array for triple in triples for array in triple]
                    name, descriptors = self.scratch.write(flat)
                return [
                    ("scratch", name, descriptors[3 * i : 3 * i + 3])
                    for i in range(len(triples))
                ]
            except Exception:
                logger.warning(
                    "scratch staging failed; sending micro-batches inline",
                    exc_info=True,
                )
        return [("inline", triple) for triple in triples]

    def score(
        self,
        plan: Sequence[MicroBatch],
        version: int,
        tensors_factory: Callable[[], Sequence[tuple[str, np.ndarray]]],
        stats,
    ) -> list[np.ndarray] | None:
        """Score ``plan`` on the persistent pool; ``None`` means fall back."""
        if not self.usable:
            return None
        if not self.publish(tensors_factory, version, stats):
            return None
        if not self._ensure_pool():
            return None
        tasks = self._build_tasks(plan, stats)
        try:
            with stats.timer("forward"):
                raw = self._pool.map(_score_shm_task, tasks, chunksize=1)
        except Exception:
            logger.warning(
                "shm worker pool failed mid-flight; falling back", exc_info=True
            )
            self.close_pool()
            self._gate.record_failure()
            return None
        results: list[np.ndarray] = []
        swapped = 0
        attach_seconds = 0.0
        for item in raw:
            if item[0] != "ok":
                logger.warning("shm worker task failed (%s); falling back", item[1])
                return None
            results.append(item[1])
            swapped += int(bool(item[2]))
            attach_seconds += item[3]
        if swapped:
            stats.hot_swaps += swapped
            stats.add_time("attach", attach_seconds, calls=swapped)
        return results

    def info(self) -> dict[str, object]:
        payload = {f"arena.{key}": value for key, value in self.arena.info().items()}
        payload["pool.active"] = self.pool_active
        payload["pool.workers"] = self.n_workers
        payload["scratch.segment"] = self.scratch.name
        return payload

    def close_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception:
                pass
            self._pool = None

    def close(self) -> None:
        """Tear down the pool and unlink every segment (idempotent)."""
        self.close_pool()
        self.scratch.close()
        self.arena.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
