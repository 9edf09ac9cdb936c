"""The vectorized encode plane: attribute-level token caching + direct
batch assembly.

The paper's serving cost is "encode ``[CLS] a_s [SEP] a_t [SEP]`` then
score" (§IV-C1).  The scoring half is bucketed and threaded; this
module removes the remaining hot-path cost, the pure-Python encode half:

* **attribute-level token store** -- each attribute's text is WordPiece-
  tokenised *once* into an int64 id array, held in memory and keyed on
  the text itself.  An attribute participating in O(n) candidate pairs
  used to be re-tokenised for every one of them.  Nothing is persisted:
  re-tokenising a whole vertical's attributes takes tens of
  milliseconds, less than reading a saved copy back;
* **pair halves** -- a candidate pair is represented as two cached token
  arrays plus the pair-truncation lengths (computed in closed form on the
  lengths, not by ``list.pop``), so forming a pair is two dict hits and a
  little arithmetic;
* **direct batch assembly** -- :meth:`EncodePlane.assemble` writes
  ``input_ids``/``segment_ids``/``attention_mask`` for a whole micro-batch
  into one fresh block by slice-copying the cached halves, so per-pair
  Python list building, ``np.asarray`` and ``stack_encoded`` disappear
  from the hot path;
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
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.counters import Counters
from ..text.tokenize import name_and_description_tokens
from .tokenizer import EncodedPair, WordPieceTokenizer

#: Default bound on cached attribute token arrays.
TOKEN_CACHE_CAPACITY = 65536


# -- stats ---------------------------------------------------------------------


@dataclass
class EncodeStats(Counters):
    """Counters and stage timings of one :class:`EncodePlane`.

    Registered as the ``encode`` metrics source on the matcher's
    :class:`repro.obs.MetricsRegistry` and rendered by ``repro engine
    stats``.  Stages are ``tokenize`` and ``assemble``; LRU
    evictions are read from the caches by :meth:`EncodePlane.stats_payload`.
    """

    #: Attribute token arrays served from the in-memory store.
    token_cache_hits: int = 0
    #: Attribute texts tokenised from scratch.
    token_cache_misses: int = 0
    #: Pair-halves served from the bounded pair LRU.
    pair_cache_hits: int = 0
    #: Pair-halves built fresh (token-store lookups + truncation).
    pair_cache_misses: int = 0
    #: Micro-batches assembled from cached halves.
    batches_assembled: int = 0
    #: Rows written across all assembled batches.
    rows_assembled: int = 0
    #: Single-segment rows assembled by :meth:`EncodePlane.assemble_singles`
    #: (MLM batches come from ``WordPieceTokenizer.encode_singles`` instead).
    singles_assembled: int = 0
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


class AttributeTokenStore:
    """In-memory cache of WordPiece id arrays per attribute text.

    Each attribute document is tokenised once; every candidate pair it
    participates in (O(n) of them) reuses the cached int64 array.  Entries
    are LRU-bounded and keyed on the text itself, so a rename or
    description edit misses by construction.  Attributes key on
    ``("attr", name, description)`` and training samples on
    ``("words", *words)``: the tags keep the two key spaces disjoint, so a
    sample's words never alias an attribute's text.
    """

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        capacity: int = TOKEN_CACHE_CAPACITY,
        stats: EncodeStats | None = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.stats = stats or EncodeStats()
        self._entries = LruDict(capacity)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def _ids(self, key: tuple, make_words) -> np.ndarray:
        """Cached ids under ``key``; ``make_words()`` yields the words on a miss."""
        cached = self._entries.get(key)
        if cached is not None:
            self.stats.token_cache_hits += 1
            return cached
        self.stats.token_cache_misses += 1
        with self.stats.timer("tokenize"):
            ids = self.tokenizer.ids_array(make_words())
        ids.setflags(write=False)
        self._entries.put(key, ids)
        return ids

    def ids_for(self, name: str, description: str = "") -> np.ndarray:
        """The attribute's WordPiece id array (tokenised once per content)."""
        return self._ids(
            ("attr", name, description),
            lambda: name_and_description_tokens(name, description),
        )

    def ids_for_words(self, words: Sequence[str]) -> np.ndarray:
        """Id array of a pre-tokenised word sequence (training samples)."""
        return self._ids(("words", *words), lambda: words)


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


# -- the plane -----------------------------------------------------------------


class EncodePlane:
    """Attribute-token caching + batched pair assembly from cached halves.

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
        token_cache_capacity: int = TOKEN_CACHE_CAPACITY,
        pair_cache_capacity: int = 8192,
        stats: EncodeStats | None = None,
    ) -> None:
        if max_length < 3:
            raise ValueError(f"max_length must be >= 3, got {max_length}")
        self.tokenizer = tokenizer
        self.max_length = int(max_length)
        self.stats = stats or EncodeStats()
        self.tokens = AttributeTokenStore(
            tokenizer, capacity=token_cache_capacity, stats=self.stats
        )
        #: Bounded LRU of :class:`PairHalves` keyed by the pair's text
        #: ``(name_a, desc_a, name_b, desc_b)``, like the token store keys on
        #: content: evolved text misses by construction.
        self.pair_cache = LruDict(pair_cache_capacity)
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
    ) -> EncodedPair:
        """Write a whole micro-batch into one fresh block from cached halves.

        Bit-exact with ``trim_encoded(stack_encoded([encode_pair(...)]),
        pad_to)``: row ``i`` is ``[CLS] a_i [SEP] b_i [SEP] PAD...`` with the
        matching segment ids and attention mask.  ``pad_to`` is the bucket's
        padded width (defaults to the longest row).
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
            buffer = np.empty((3, rows, width), dtype=np.int64)
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
        """One full-width row -- the drop-in replacement
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
        exactly like ``encode_single``.
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

    def stats_payload(self) -> dict[str, object]:
        """EncodeStats plus cache gauges (the ``encode`` metrics source)."""
        payload = self.stats.as_dict()
        payload["token_cache_evictions"] = self.tokens.evictions
        payload["pair_cache_evictions"] = self.pair_cache.evictions
        payload["pair_cache_entries"] = len(self.pair_cache)
        payload["token_cache_entries"] = len(self.tokens)
        payload["word_cache_hits"] = self.tokenizer.word_cache_hits
        payload["word_cache_misses"] = self.tokenizer.word_cache_misses
        return payload
