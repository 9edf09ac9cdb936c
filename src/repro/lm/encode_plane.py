"""The vectorized encode plane: attribute-level token caching + zero-copy
batch assembly.

The paper's serving cost is "encode ``[CLS] a_s [SEP] a_t [SEP]`` then
score" (§IV-C1).  The scoring half is bucketed and threaded; this
module removes the remaining hot-path cost, the pure-Python encode half:

* **attribute-level token store** -- each attribute's text is WordPiece-
  tokenised *once* into an int64 id array, keyed on a content hash of
  ``(name, description)`` and optionally persisted through
  :mod:`repro.store`.  An attribute participating in O(n) candidate pairs
  used to be re-tokenised for every one of them;
* **pair halves** -- a candidate pair is represented as two cached token
  arrays plus the pair-truncation lengths (computed in closed form on the
  lengths, not by ``list.pop``), so forming a pair is two dict hits and a
  little arithmetic;
* **zero-copy batch assembly** -- :meth:`EncodePlane.assemble` writes
  ``input_ids``/``segment_ids``/``attention_mask`` for a whole micro-batch
  directly into pooled, preallocated buffers by slice-copying the cached
  halves, so per-pair Python list building, ``np.asarray`` and
  ``stack_encoded`` disappear from the hot path;
* **fingerprint parity** -- each scored :class:`PairHalves` carries the *same*
  blake2b digest as :func:`repro.engine.engine.fingerprint_encoded`
  over the assembled row, without materialising it, so the engine's
  in-memory and persisted score caches are shared bit-for-bit between the
  sequential and the batched encode paths.

Everything is held bit-exact to the sequential reference
(:meth:`repro.lm.tokenizer.WordPieceTokenizer.encode_pair`); the hypothesis
suite in ``tests/lm/test_encode_plane.py`` is the contract.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.counters import Counters
from ..text.tokenize import name_and_description_tokens
from .tokenizer import EncodedPair, WordPieceTokenizer

#: Bytes of one content-hash key in the attribute token store.
TOKEN_KEY_BYTES = 16

#: Default bound on cached attribute token arrays.
TOKEN_CACHE_CAPACITY = 65536

#: Default bound on the pooled assembly buffers, in bytes.
POOL_MAX_BYTES = 64 << 20

#: Persist the token store at most once per this many new entries.
PERSIST_EVERY = 512


# -- stats ---------------------------------------------------------------------


@dataclass
class EncodeStats(Counters):
    """Counters and stage timings of one :class:`EncodePlane`.

    Registered as the ``encode`` metrics source on the matcher's
    :class:`repro.obs.MetricsRegistry` and rendered by ``repro engine
    stats``.  Stages are ``tokenize``, ``assemble`` and ``persist``; LRU
    evictions are read from the caches by :meth:`EncodePlane.stats_payload`.
    """

    #: Attribute token arrays served from the in-memory store.
    token_cache_hits: int = 0
    #: Attribute texts tokenised from scratch.
    token_cache_misses: int = 0
    #: Token arrays recovered from a persisted store block.
    tokens_persisted_hits: int = 0
    #: Pair-halves served from the bounded pair LRU.
    pair_cache_hits: int = 0
    #: Pair-halves built fresh (token-store lookups + truncation).
    pair_cache_misses: int = 0
    #: Micro-batches assembled directly into pooled buffers.
    batches_assembled: int = 0
    #: Rows written across all assembled batches.
    rows_assembled: int = 0
    #: Single-segment rows assembled by :meth:`EncodePlane.assemble_singles`
    #: (MLM batches come from ``WordPieceTokenizer.encode_singles`` instead).
    singles_assembled: int = 0
    #: Assembly buffer requests served by pool reuse.
    pool_hits: int = 0
    #: Assembly buffer requests that had to allocate.
    pool_misses: int = 0
    #: Bytes served from pooled (reused) buffers.
    bytes_pooled: int = 0
    #: Pair fingerprints computed from halves (score-cache keys).
    fingerprints: int = 0


# -- bounded LRU ---------------------------------------------------------------


class LruDict:
    """A small bounded mapping with LRU eviction and hit/miss counters.

    Replaces the formerly unbounded per-pair encoded cache: at the
    10x-scaled ISS the old dict grew without bound (~150 MB); this one holds
    ``capacity`` entries and evicts the least recently used.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LruDict capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def pop(self, key) -> bool:
        """Drop ``key`` if present; returns whether it was."""
        return self._data.pop(key, None) is not None

    def keys(self):
        return list(self._data.keys())

    def clear(self) -> None:
        self._data.clear()


# -- attribute token store -----------------------------------------------------


def token_key(name: str, description: str = "") -> bytes:
    """Content hash of one attribute's text (the token-store key).

    Keyed on *content*, not on the attribute's ref: a rename or description
    edit changes the key, so stale tokens can never be served for evolved
    text -- the staleness-bug class PR 9 swept out of the ref-keyed caches
    is structurally impossible here.
    """
    digest = hashlib.blake2b(digest_size=TOKEN_KEY_BYTES)
    digest.update(name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(description.encode("utf-8"))
    return digest.digest()


def words_key(words: Sequence[str]) -> bytes:
    """Content hash of a pre-tokenised word sequence."""
    digest = hashlib.blake2b(digest_size=TOKEN_KEY_BYTES)
    for word in words:
        digest.update(word.encode("utf-8"))
        digest.update(b"\x00")
    return digest.digest()


class AttributeTokenStore:
    """Content-addressed cache of WordPiece id arrays per attribute text.

    Each attribute document is tokenised once; every candidate pair it
    participates in (O(n) of them) reuses the cached int64 array.  Entries
    are LRU-bounded; when a ``cache_token`` is supplied the store
    round-trips through :mod:`repro.store` so a second process skips the
    tokenisation entirely.
    """

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        capacity: int = TOKEN_CACHE_CAPACITY,
        cache_token: str | None = None,
        stats: EncodeStats | None = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.stats = stats or EncodeStats()
        self._entries = LruDict(capacity)
        self._cache_token = cache_token
        self._store_key: str | None = None
        self._unsaved = 0
        self._loaded = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def _persist_key(self) -> str | None:
        if self._cache_token is None:
            return None
        if self._store_key is None:
            from .. import store

            self._store_key = store.content_key(
                "encode-plane-tokens-v1",
                self._cache_token,
                self.tokenizer.vocab.fingerprint(),
            )
        return self._store_key

    def load_persisted(self) -> int:
        """Fold a previously saved token block into the store (idempotent)."""
        if self._loaded:
            return 0
        self._loaded = True
        key = self._persist_key()
        if key is None:
            return 0
        from .. import store

        with self.stats.timer("persist"):
            block = store.load_arrays("encode-tokens", key)
        if not block:
            return 0
        loaded = 0
        for hexkey, ids in block.items():
            try:
                raw = bytes.fromhex(hexkey)
            except ValueError:
                continue
            self._entries.put(raw, np.ascontiguousarray(ids, dtype=np.int64))
            loaded += 1
        self.stats.tokens_persisted_hits += loaded
        return loaded

    def save_persisted(self, force: bool = False) -> bool:
        """Write the current entries through :mod:`repro.store` (throttled)."""
        key = self._persist_key()
        if key is None:
            return False
        if not force and self._unsaved < PERSIST_EVERY:
            return False
        if self._unsaved == 0:
            return False
        from .. import store

        with self.stats.timer("persist"):
            block = {k.hex(): v for k, v in zip(self._entries.keys(), self._values())}
            store.save_arrays("encode-tokens", key, block)
        self._unsaved = 0
        return True

    def _values(self):
        return [self._entries.get(k) for k in self._entries.keys()]

    def ids_for(self, name: str, description: str = "") -> np.ndarray:
        """The attribute's WordPiece id array (tokenised once per content)."""
        key = token_key(name, description)
        cached = self._entries.get(key)
        if cached is not None:
            self.stats.token_cache_hits += 1
            return cached
        self.stats.token_cache_misses += 1
        with self.stats.timer("tokenize"):
            ids = self.tokenizer.ids_array(
                name_and_description_tokens(name, description)
            )
        ids.setflags(write=False)
        self._entries.put(key, ids)
        self._unsaved += 1
        return ids

    def ids_for_words(self, words: Sequence[str]) -> np.ndarray:
        """Id array of a pre-tokenised word sequence (training samples)."""
        key = words_key(words)
        cached = self._entries.get(key)
        if cached is not None:
            self.stats.token_cache_hits += 1
            return cached
        self.stats.token_cache_misses += 1
        with self.stats.timer("tokenize"):
            ids = self.tokenizer.ids_array(words)
        ids.setflags(write=False)
        self._entries.put(key, ids)
        self._unsaved += 1
        return ids


# -- pair halves + truncation --------------------------------------------------


def truncate_pair_lengths(len_a: int, len_b: int, budget: int) -> tuple[int, int]:
    """Closed form of the BERT pair-truncation loop, on lengths.

    Reference semantics (``WordPieceTokenizer.encode_pair``)::

        while la + lb > budget:
            if la >= lb: la -= 1
            else:        lb -= 1

    i.e. repeatedly shorten the longer span (ties shorten A).  The fixpoint
    is reachable without iterating: either one span already fits under half
    the budget and keeps everything, or both converge to the balanced split
    with B keeping the odd token (ties pop A first).
    """
    budget = max(0, budget)
    if len_a + len_b <= budget:
        return len_a, len_b
    half_lo = budget // 2
    half_hi = budget - half_lo
    if len_a <= half_lo:
        return len_a, budget - len_a
    if len_b <= half_hi:
        return budget - len_b, len_b
    return half_lo, half_hi


@dataclass(frozen=True)
class PairHalves:
    """One candidate pair as two cached token arrays plus truncated lengths."""

    ids_a: np.ndarray
    ids_b: np.ndarray
    #: Post-truncation token counts of each half.
    len_a: int
    len_b: int
    #: The assembled row's score-cache key, computed once when the halves
    #: are built (see :meth:`EncodePlane._fingerprint`); None for training
    #: halves, which never reach the score cache.
    fingerprint: bytes | None = None

    @property
    def length(self) -> int:
        """Real (non-padding) tokens of the assembled row: halves + [CLS] + 2x[SEP]."""
        return self.len_a + self.len_b + 3


# -- pooled assembly buffers ---------------------------------------------------


class BatchBufferPool:
    """Reusable (rows, width) int64 buffer triples for batch assembly.

    A micro-batch's arrays live only for the duration of one scoring call;
    recycling them keeps steady-state serving allocation-free.  Buffers are
    keyed by exact shape (bucketed plans repeat few shapes), bounded by
    total bytes, and handed out LIFO.  Thread-safe: the serve front end
    assembles from executor threads.
    """

    def __init__(self, max_bytes: int = POOL_MAX_BYTES, stats: EncodeStats | None = None) -> None:
        self.max_bytes = int(max_bytes)
        self.stats = stats or EncodeStats()
        self._free: dict[tuple[int, int], list[np.ndarray]] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    @property
    def pooled_bytes(self) -> int:
        return self._bytes

    def acquire(self, rows: int, width: int) -> np.ndarray:
        """A writable ``(3, rows, width)`` int64 block (ids/segments/mask)."""
        key = (int(rows), int(width))
        with self._lock:
            stack = self._free.get(key)
            if stack:
                buffer = stack.pop()
                self._bytes -= buffer.nbytes
                self.stats.pool_hits += 1
                self.stats.bytes_pooled += buffer.nbytes
                return buffer
        self.stats.pool_misses += 1
        return np.empty((3, rows, width), dtype=np.int64)

    def release(self, buffer: np.ndarray) -> None:
        """Return an ``acquire``d block; dropped when over the byte bound."""
        if buffer.ndim != 3 or buffer.shape[0] != 3 or buffer.dtype != np.int64:
            return
        with self._lock:
            if self._bytes + buffer.nbytes > self.max_bytes:
                return
            key = (int(buffer.shape[1]), int(buffer.shape[2]))
            self._free.setdefault(key, []).append(buffer)
            self._bytes += buffer.nbytes


# -- the plane -----------------------------------------------------------------


class EncodePlane:
    """Attribute-token caching + zero-copy batched pair assembly.

    One plane per :class:`repro.featurizers.bert.BertFeaturizer`; the
    scoring engine's :meth:`repro.engine.ScoringEngine.score_halves` drives
    it for inference and the featurizer's training path for sample
    encoding.  Pairs live here as halves in :attr:`pair_cache`; no full
    encoded row is cached.
    """

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        max_length: int,
        cache_token: str | None = None,
        token_cache_capacity: int = TOKEN_CACHE_CAPACITY,
        pair_cache_capacity: int = 8192,
        pool_max_bytes: int = POOL_MAX_BYTES,
        persist_tokens: bool = True,
        stats: EncodeStats | None = None,
    ) -> None:
        if max_length < 3:
            raise ValueError(f"max_length must be >= 3, got {max_length}")
        self.tokenizer = tokenizer
        self.max_length = int(max_length)
        self.stats = stats or EncodeStats()
        self.tokens = AttributeTokenStore(
            tokenizer,
            capacity=token_cache_capacity,
            cache_token=cache_token if persist_tokens else None,
            stats=self.stats,
        )
        #: Bounded LRU of :class:`PairHalves` keyed by the pair's text
        #: ``(name_a, desc_a, name_b, desc_b)``, like the token store keys on
        #: content: evolved text misses by construction.
        self.pair_cache = LruDict(pair_cache_capacity)
        self.pool = BatchBufferPool(pool_max_bytes, stats=self.stats)
        vocab = tokenizer.vocab
        self._cls_id = vocab.cls_id
        self._sep_id = vocab.sep_id
        self._pad_id = vocab.pad_id
        #: Precomputed byte strips for digest-parity fingerprinting: slices
        #: of these are fed to blake2b in place of materialised rows.
        self._cls_bytes = np.int64(self._cls_id).tobytes()
        self._sep_bytes = np.int64(self._sep_id).tobytes()
        self._pad_bytes = np.full(self.max_length, self._pad_id, dtype=np.int64).tobytes()
        self._zero_bytes = bytes(8 * self.max_length)
        self._one_bytes = np.ones(self.max_length, dtype=np.int64).tobytes()
        self.tokens.load_persisted()

    # -- halves ----------------------------------------------------------------

    def halves(
        self,
        name_a: str,
        desc_a: str,
        name_b: str,
        desc_b: str,
        max_length: int | None = None,
    ) -> PairHalves:
        """The pair's cached token halves with truncation applied on lengths."""
        return self._halves(
            self.tokens.ids_for(name_a, desc_a),
            self.tokens.ids_for(name_b, desc_b),
            max_length,
            fingerprint=True,
        )

    def halves_for_words(
        self,
        words_a: Sequence[str],
        words_b: Sequence[str],
        max_length: int | None = None,
    ) -> PairHalves:
        """Halves of a pre-tokenised pair (training samples, unfingerprinted)."""
        return self._halves(
            self.tokens.ids_for_words(words_a),
            self.tokens.ids_for_words(words_b),
            max_length,
            fingerprint=False,
        )

    def _halves(
        self,
        ids_a: np.ndarray,
        ids_b: np.ndarray,
        max_length: int | None,
        fingerprint: bool,
    ) -> PairHalves:
        max_length = self.max_length if max_length is None else max_length
        len_a, len_b = truncate_pair_lengths(
            int(ids_a.size), int(ids_b.size), max_length - 3
        )
        return PairHalves(
            ids_a=ids_a,
            ids_b=ids_b,
            len_a=len_a,
            len_b=len_b,
            fingerprint=(
                self._fingerprint(ids_a[:len_a], ids_b[:len_b]) if fingerprint else None
            ),
        )

    # -- assembly --------------------------------------------------------------

    def assemble(
        self,
        halves: Sequence[PairHalves],
        pad_to: int | None = None,
        pooled: bool = True,
    ) -> EncodedPair:
        """Write a whole micro-batch into (pooled) buffers from cached halves.

        Bit-exact with ``trim_encoded(stack_encoded([encode_pair(...)]),
        pad_to)``: row ``i`` is ``[CLS] a_i [SEP] b_i [SEP] PAD...`` with the
        matching segment ids and attention mask.  ``pad_to`` is the bucket's
        padded width (defaults to the longest row).  Pooled batches must be
        handed back via :meth:`release` once scored.
        """
        rows = len(halves)
        if rows == 0:
            raise ValueError("cannot assemble an empty batch")
        longest = max(pair.length for pair in halves)
        width = longest if pad_to is None else int(pad_to)
        if width < longest:
            raise ValueError(
                f"pad_to {width} drops real tokens (longest row: {longest})"
            )
        width = min(width, self.max_length)
        with self.stats.timer("assemble"):
            buffer = (
                self.pool.acquire(rows, width)
                if pooled
                else np.empty((3, rows, width), dtype=np.int64)
            )
            input_ids, segment_ids, attention = buffer[0], buffer[1], buffer[2]
            input_ids.fill(self._pad_id)
            segment_ids.fill(0)
            attention.fill(0)
            cls_id, sep_id = self._cls_id, self._sep_id
            for row, pair in enumerate(halves):
                len_a, len_b = pair.len_a, pair.len_b
                row_ids = input_ids[row]
                row_ids[0] = cls_id
                row_ids[1 : 1 + len_a] = pair.ids_a[:len_a]
                row_ids[1 + len_a] = sep_id
                stop = 2 + len_a + len_b
                row_ids[2 + len_a : stop] = pair.ids_b[:len_b]
                row_ids[stop] = sep_id
                segment_ids[row, 2 + len_a : stop + 1] = 1
                attention[row, : stop + 1] = 1
            self.stats.batches_assembled += 1
            self.stats.rows_assembled += rows
        return EncodedPair(
            input_ids=input_ids, segment_ids=segment_ids, attention_mask=attention
        )

    def assemble_one(self, pair: PairHalves, max_length: int | None = None) -> EncodedPair:
        """One fresh (non-pooled, full-width) row -- the drop-in replacement
        for ``encode_pair`` where the result is retained (training caches)."""
        width = self.max_length if max_length is None else int(max_length)
        buffer = np.zeros((3, 1, width), dtype=np.int64)
        input_ids, segment_ids, attention = buffer[0], buffer[1], buffer[2]
        if self._pad_id != 0:
            input_ids.fill(self._pad_id)
        len_a, len_b = pair.len_a, pair.len_b
        row = input_ids[0]
        row[0] = self._cls_id
        row[1 : 1 + len_a] = pair.ids_a[:len_a]
        row[1 + len_a] = self._sep_id
        stop = 2 + len_a + len_b
        row[2 + len_a : stop] = pair.ids_b[:len_b]
        row[stop] = self._sep_id
        segment_ids[0, 2 + len_a : stop + 1] = 1
        attention[0, : stop + 1] = 1
        self.stats.rows_assembled += 1
        return EncodedPair(
            input_ids=input_ids[0],
            segment_ids=segment_ids[0],
            attention_mask=attention[0],
            length=pair.length,
        )

    def assemble_singles(
        self, id_rows: Sequence[np.ndarray], pad_to: int | None = None
    ) -> EncodedPair:
        """Batched single-segment assembly (``[CLS] A [SEP]`` rows).

        Equivalent to stacking ``encode_single`` rows and trimming to the
        longest.  Rows longer than ``max_length - 2`` ids are truncated
        exactly like ``encode_single``.  Always freshly allocated, not
        pooled.
        """
        rows = len(id_rows)
        if rows == 0:
            raise ValueError("cannot assemble an empty batch")
        limit = self.max_length - 2
        lengths = [min(int(ids.size), limit) + 2 for ids in id_rows]
        longest = max(lengths)
        width = longest if pad_to is None else min(int(pad_to), self.max_length)
        if width < longest:
            raise ValueError(
                f"pad_to {width} drops real tokens (longest row: {longest})"
            )
        with self.stats.timer("assemble"):
            input_ids = np.full((rows, width), self._pad_id, dtype=np.int64)
            segment_ids = np.zeros((rows, width), dtype=np.int64)
            attention = np.zeros((rows, width), dtype=np.int64)
            for row, ids in enumerate(id_rows):
                real = lengths[row]
                input_ids[row, 0] = self._cls_id
                input_ids[row, 1 : real - 1] = ids[: real - 2]
                input_ids[row, real - 1] = self._sep_id
                attention[row, :real] = 1
            self.stats.singles_assembled += rows
        return EncodedPair(
            input_ids=input_ids, segment_ids=segment_ids, attention_mask=attention
        )

    def release(self, batch: EncodedPair) -> None:
        """Hand a pooled batch's backing buffer back for reuse.

        Safe to call with non-pooled batches (shape mismatch is ignored).
        """
        base = batch.input_ids.base
        if base is not None and base.ndim == 3 and base.shape[0] == 3:
            self.pool.release(base)

    # -- fingerprinting --------------------------------------------------------

    def _fingerprint(self, ids_a: np.ndarray, ids_b: np.ndarray) -> bytes:
        """Digest-parity fingerprint of the assembled row, without assembly.

        Bit-identical to ``fingerprint_encoded`` over the row
        ``[CLS] a [SEP] b [SEP] PAD..`` padded to ``max_length``, so the
        engine's in-memory and persisted score caches hit across both
        encode paths.
        """
        self.stats.fingerprints += 1
        len_a, len_b = int(ids_a.size), int(ids_b.size)
        pad = self.max_length - (len_a + len_b + 3)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._cls_bytes)
        digest.update(np.ascontiguousarray(ids_a).tobytes())
        digest.update(self._sep_bytes)
        digest.update(np.ascontiguousarray(ids_b).tobytes())
        digest.update(self._sep_bytes)
        digest.update(self._pad_bytes[: 8 * pad])
        digest.update(b"\x00")
        digest.update(self._zero_bytes[: 8 * (len_a + 2)])
        digest.update(self._one_bytes[: 8 * (len_b + 1)])
        digest.update(self._zero_bytes[: 8 * pad])
        return digest.digest()

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        """Persist any unsaved token-store entries (close/checkpoint hook)."""
        self.tokens.save_persisted(force=True)

    def stats_payload(self) -> dict[str, object]:
        """EncodeStats plus cache/pool gauges (the ``encode`` metrics source)."""
        payload = self.stats.as_dict()
        payload["token_cache_evictions"] = self.tokens.evictions
        payload["pair_cache_evictions"] = self.pair_cache.evictions
        payload["pair_cache_entries"] = len(self.pair_cache)
        payload["token_cache_entries"] = len(self.tokens)
        payload["pool_bytes_held"] = self.pool.pooled_bytes
        payload["word_cache_hits"] = self.tokenizer.word_cache_hits
        payload["word_cache_misses"] = self.tokenizer.word_cache_misses
        return payload
