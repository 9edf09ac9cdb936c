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
* **columnar pair batches** -- a batch of candidate pairs is a
  :class:`BatchHalves`: one padded id table per side holding each
  attribute's cached ids once, per-row index arrays into the tables and
  the pair-truncation lengths, computed in closed form on length arrays
  (not by ``list.pop``).  Forming a batch is one token-store lookup per
  distinct attribute, not two per pair;
* **gather assembly** -- :meth:`EncodePlane.assemble` gathers
  ``input_ids``/``segment_ids``/``attention_mask`` for a whole micro-batch
  from the id tables in whole-array operations, so per-pair Python list
  building, ``np.asarray`` and ``stack_encoded`` disappear from the hot
  path;
* **fingerprint parity** -- :meth:`EncodePlane.fingerprint_rows` hashes
  each row assembled at full width, in bounded chunks, with the *same*
  blake2b digest as :func:`repro.engine.engine.fingerprint_encoded`, so
  the engine's score cache is shared bit-for-bit between the sequential
  and the batched encode paths.

Everything is held bit-exact to the sequential reference
(:meth:`repro.lm.tokenizer.WordPieceTokenizer.encode_pair`); the hypothesis
suite in ``tests/lm/test_encode_plane.py`` is the contract.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..obs.counters import Counters
from ..text.tokenize import name_and_description_tokens
from .tokenizer import EncodedPair, WordPieceTokenizer

#: Default bound on cached attribute token arrays.
TOKEN_CACHE_CAPACITY = 65536

#: Bytes of one pair fingerprint (blake2b digest size); the scoring engine
#: keys its score cache on these.
FINGERPRINT_BYTES = 16


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
    #: Micro-batches assembled from cached halves.
    batches_assembled: int = 0
    #: Rows written across all assembled batches.
    rows_assembled: int = 0
    #: Single-segment rows assembled by :meth:`EncodePlane.assemble_singles`.
    singles_assembled: int = 0
    #: Rows fingerprinted (score-cache keys).
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


def truncate_pair_lengths(len_a, len_b, budget: int):
    """Closed form of the BERT pair-truncation loop, on lengths.

    Reference semantics (``WordPieceTokenizer.encode_pair``)::

        while la + lb > budget:
            if la >= lb: la -= 1
            else:        lb -= 1

    i.e. repeatedly shorten the longer span (ties shorten A).  The fixpoint
    is reachable without iterating: either one span already fits under half
    the budget and keeps everything, or both converge to the balanced split
    with B keeping the odd token (ties pop A first).  ``len_a``/``len_b``
    may be ints or integer arrays (one pair per element).
    """
    budget = max(0, budget)
    len_a, len_b = np.asarray(len_a), np.asarray(len_b)
    half_lo = budget // 2
    half_hi = budget - half_lo
    fits = len_a + len_b <= budget
    a_short = len_a <= half_lo
    b_short = len_b <= half_hi
    out_a = np.where(fits | a_short, len_a, np.where(b_short, budget - len_b, half_lo))
    out_b = np.where(
        fits, len_b, np.where(a_short, budget - len_a, np.where(b_short, len_b, half_hi))
    )
    if out_a.ndim == 0:
        return int(out_a), int(out_b)
    return out_a, out_b


@dataclass(frozen=True)
class PairHalves:
    """One candidate pair as two cached token arrays plus truncated lengths."""

    ids_a: np.ndarray
    ids_b: np.ndarray
    #: Post-truncation token counts of each half.
    len_a: int
    len_b: int
    #: The assembled row's score-cache key (see
    #: :meth:`EncodePlane.fingerprint_rows`); None for training halves,
    #: which never reach the score cache.
    fingerprint: bytes | None = None

    @property
    def length(self) -> int:
        """Real (non-padding) tokens of the assembled row: halves + [CLS] + 2x[SEP]."""
        return self.len_a + self.len_b + 3


def _id_table(rows: Sequence[np.ndarray], budget: int) -> np.ndarray:
    """Id arrays cut to ``budget`` and zero-padded into one ``(len(rows), w)`` table."""
    width = max(1, min(budget, max((row.size for row in rows), default=0)))
    table = np.zeros((len(rows), width), dtype=np.int64)
    for entry, ids in enumerate(rows):
        kept = ids[:width]
        table[entry, : kept.size] = kept
    return table


@dataclass(frozen=True)
class BatchHalves:
    """Many candidate pairs as per-attribute id tables plus per-row indices.

    Row ``i`` is ``[CLS] ids_a[index_a[i], :len_a[i]] [SEP]
    ids_b[index_b[i], :len_b[i]] [SEP]``: each attribute's ids sit in its
    side's table once, however many rows it takes part in.
    """

    #: ``(entries, width)`` int64 id tables, each row cut to the pair budget.
    ids_a: np.ndarray
    ids_b: np.ndarray
    index_a: np.ndarray
    index_b: np.ndarray
    #: Post-truncation token counts of each half, per row.
    len_a: np.ndarray
    len_b: np.ndarray
    #: ``(rows, 16)`` uint8 score-cache keys, or None before fingerprinting.
    fingerprints: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.index_a.size)

    @property
    def lengths(self) -> np.ndarray:
        """Real tokens of each assembled row: halves + [CLS] + 2x[SEP]."""
        return self.len_a + self.len_b + 3

    def take(self, rows) -> "BatchHalves":
        """The listed rows, sharing this batch's id tables."""
        return replace(
            self,
            index_a=self.index_a[rows],
            index_b=self.index_b[rows],
            len_a=self.len_a[rows],
            len_b=self.len_b[rows],
            fingerprints=None if self.fingerprints is None else self.fingerprints[rows],
        )

    def fingerprint_keys(self) -> list[bytes]:
        """Each row's fingerprint as ``bytes`` (the engine's cache keys)."""
        assert self.fingerprints is not None, "batch was not fingerprinted"
        raw = np.ascontiguousarray(self.fingerprints).tobytes()
        size = self.fingerprints.shape[1]
        return [raw[start : start + size] for start in range(0, len(raw), size)]

    @classmethod
    def of_pairs(cls, pairs: Sequence[PairHalves]) -> "BatchHalves":
        """One table entry per pair and side (ad-hoc pairs, tests)."""
        rows = np.arange(len(pairs), dtype=np.intp)
        len_a = np.fromiter((p.len_a for p in pairs), dtype=np.intp, count=len(pairs))
        len_b = np.fromiter((p.len_b for p in pairs), dtype=np.intp, count=len(pairs))
        budget = int(max(len_a.max(initial=0), len_b.max(initial=0)))
        fingerprints = None
        if pairs and all(p.fingerprint is not None for p in pairs):
            fingerprints = np.frombuffer(
                b"".join(p.fingerprint for p in pairs), dtype=np.uint8
            ).reshape(len(pairs), -1)
        return cls(
            ids_a=_id_table([p.ids_a for p in pairs], budget),
            ids_b=_id_table([p.ids_b for p in pairs], budget),
            index_a=rows,
            index_b=rows,
            len_a=len_a,
            len_b=len_b,
            fingerprints=fingerprints,
        )


# -- the plane -----------------------------------------------------------------


class EncodePlane:
    """Attribute-token caching + batched pair assembly from id tables.

    One plane per :class:`repro.featurizers.bert.BertFeaturizer`; the
    scoring engine's :meth:`repro.engine.ScoringEngine.score_halves` drives
    it for inference, and the featurizer's training path gathers every
    training micro-batch from it.  Candidate pairs and training samples
    travel as :class:`BatchHalves`; no full encoded row is cached.  MLM
    pretraining gathers its single-segment batches with
    :meth:`assemble_singles`.
    """

    #: Rows fingerprinted per assembled block, bounding the transient
    #: ``(rows, max_length)`` arrays however many rows are keyed at once.
    FINGERPRINT_CHUNK = 256

    def __init__(
        self,
        tokenizer: WordPieceTokenizer,
        max_length: int,
        token_cache_capacity: int = TOKEN_CACHE_CAPACITY,
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
        vocab = tokenizer.vocab
        self._cls_id = vocab.cls_id
        self._sep_id = vocab.sep_id
        self._pad_id = vocab.pad_id

    # -- halves ----------------------------------------------------------------

    def halves(
        self,
        name_a: str,
        desc_a: str,
        name_b: str,
        desc_b: str,
    ) -> PairHalves:
        """One pair's cached token halves, truncated and fingerprinted."""
        halves = self._halves(
            self.tokens.ids_for(name_a, desc_a), self.tokens.ids_for(name_b, desc_b)
        )
        fingerprint = self.fingerprint_rows(BatchHalves.of_pairs([halves]))
        return replace(halves, fingerprint=fingerprint.tobytes())

    def halves_for_words(
        self, words_a: Sequence[str], words_b: Sequence[str]
    ) -> PairHalves:
        """Halves of a pre-tokenised pair (training samples, unfingerprinted)."""
        return self._halves(
            self.tokens.ids_for_words(words_a), self.tokens.ids_for_words(words_b)
        )

    def _halves(self, ids_a: np.ndarray, ids_b: np.ndarray) -> PairHalves:
        len_a, len_b = truncate_pair_lengths(
            int(ids_a.size), int(ids_b.size), self.max_length - 3
        )
        return PairHalves(ids_a=ids_a, ids_b=ids_b, len_a=len_a, len_b=len_b)

    def batch_halves(
        self,
        texts_a: Sequence[tuple[str, str]],
        texts_b: Sequence[tuple[str, str]],
        index_a: np.ndarray,
        index_b: np.ndarray,
    ) -> BatchHalves:
        """Rows pairing ``texts_a[index_a[i]]`` with ``texts_b[index_b[i]]``.

        Each ``(name, description)`` entry is looked up in the token store
        once, and the closed-form truncation runs on length arrays.
        """
        rows_a = [self.tokens.ids_for(name, desc) for name, desc in texts_a]
        rows_b = [self.tokens.ids_for(name, desc) for name, desc in texts_b]
        return self._batch_of_ids(rows_a, rows_b, index_a, index_b)

    def batch_halves_for_words(
        self, words: Sequence[tuple[Sequence[str], Sequence[str]]]
    ) -> BatchHalves:
        """One row per pre-tokenised ``(words_a, words_b)`` pair (training
        samples, unfingerprinted): :meth:`halves_for_words` for many pairs."""
        rows_a = [self.tokens.ids_for_words(words_a) for words_a, _ in words]
        rows_b = [self.tokens.ids_for_words(words_b) for _, words_b in words]
        index = np.arange(len(words), dtype=np.intp)
        return self._batch_of_ids(rows_a, rows_b, index, index)

    def _batch_of_ids(
        self,
        rows_a: Sequence[np.ndarray],
        rows_b: Sequence[np.ndarray],
        index_a: np.ndarray,
        index_b: np.ndarray,
    ) -> BatchHalves:
        budget = self.max_length - 3
        sizes_a = np.fromiter((r.size for r in rows_a), dtype=np.intp, count=len(rows_a))
        sizes_b = np.fromiter((r.size for r in rows_b), dtype=np.intp, count=len(rows_b))
        len_a, len_b = truncate_pair_lengths(sizes_a[index_a], sizes_b[index_b], budget)
        return BatchHalves(
            ids_a=_id_table(rows_a, budget),
            ids_b=_id_table(rows_b, budget),
            index_a=np.asarray(index_a, dtype=np.intp),
            index_b=np.asarray(index_b, dtype=np.intp),
            len_a=np.asarray(len_a, dtype=np.intp),
            len_b=np.asarray(len_b, dtype=np.intp),
        )

    # -- assembly --------------------------------------------------------------

    def _gather(
        self, halves: BatchHalves, width: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``input_ids``/``segment_ids``/``attention_mask`` of every row at
        ``width``, gathered from the id tables in whole-array operations."""
        cols = np.arange(width)
        len_a = halves.len_a[:, None]
        sep = 1 + len_a  # the first [SEP]
        stop = 2 + len_a + halves.len_b[:, None]  # the final [SEP]
        from_a = halves.ids_a[
            halves.index_a[:, None], np.clip(cols - 1, 0, halves.ids_a.shape[1] - 1)
        ]
        from_b = halves.ids_b[
            halves.index_b[:, None], np.clip(cols - 1 - sep, 0, halves.ids_b.shape[1] - 1)
        ]
        input_ids = np.where(
            cols < sep, from_a, np.where(cols < stop, from_b, self._pad_id)
        )
        input_ids[:, 0] = self._cls_id
        input_ids[(cols == sep) | (cols == stop)] = self._sep_id
        segment_ids = ((cols > sep) & (cols <= stop)).astype(np.int64)
        attention = (cols <= stop).astype(np.int64)
        return input_ids.astype(np.int64, copy=False), segment_ids, attention

    def assemble(self, halves: BatchHalves, pad_to: int | None = None) -> EncodedPair:
        """Gather a whole micro-batch from the id tables into fresh arrays.

        Bit-exact with ``trim_encoded(stack_encoded([encode_pair(...)]),
        pad_to)``: row ``i`` is ``[CLS] a_i [SEP] b_i [SEP] PAD...`` with the
        matching segment ids and attention mask.  ``pad_to`` is the bucket's
        padded width (defaults to the longest row).
        """
        rows = len(halves)
        if rows == 0:
            raise ValueError("cannot assemble an empty batch")
        longest = int(halves.lengths.max())
        width = longest if pad_to is None else int(pad_to)
        if width < longest:
            raise ValueError(
                f"pad_to {width} drops real tokens (longest row: {longest})"
            )
        width = min(width, self.max_length)
        with self.stats.timer("assemble"):
            input_ids, segment_ids, attention = self._gather(halves, width)
            self.stats.batches_assembled += 1
            self.stats.rows_assembled += rows
        return EncodedPair(
            input_ids=input_ids, segment_ids=segment_ids, attention_mask=attention
        )

    def assemble_one(self, pair: PairHalves) -> EncodedPair:
        """One full-width row of one pair, equal to ``encode_pair``'s."""
        width = self.max_length
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

    def fingerprint_rows(self, halves: BatchHalves) -> np.ndarray:
        """Each row's score-cache key, ``(rows, 16)`` uint8.

        One blake2b per row over the row assembled at full ``max_length``
        width, ``input_ids ‖ 0x00 ‖ segment_ids`` -- digest-identical to
        ``fingerprint_encoded(encode_attribute_pair(...))``, so both encode
        paths hit the same score-cache entries.  Rows are assembled
        :attr:`FINGERPRINT_CHUNK` at a time.
        """
        rows = len(halves)
        out = np.empty((rows, FINGERPRINT_BYTES), dtype=np.uint8)
        ids_bytes = 8 * self.max_length
        for start in range(0, rows, self.FINGERPRINT_CHUNK):
            chunk = halves.take(slice(start, start + self.FINGERPRINT_CHUNK))
            input_ids, segment_ids, _ = self._gather(chunk, self.max_length)
            block = np.zeros((len(chunk), 2 * ids_bytes + 1), dtype=np.uint8)
            block[:, :ids_bytes] = input_ids.view(np.uint8)
            block[:, ids_bytes + 1 :] = segment_ids.view(np.uint8)
            digests = b"".join(
                hashlib.blake2b(row, digest_size=FINGERPRINT_BYTES).digest()
                for row in block
            )
            out[start : start + len(chunk)] = np.frombuffer(digests, dtype=np.uint8).reshape(
                len(chunk), FINGERPRINT_BYTES
            )
        self.stats.fingerprints += rows
        return out

    # -- lifecycle -------------------------------------------------------------

    def stats_payload(self) -> dict[str, object]:
        """EncodeStats plus cache gauges (the ``encode`` metrics source)."""
        payload = self.stats.as_dict()
        payload["token_cache_evictions"] = self.tokens.evictions
        payload["token_cache_entries"] = len(self.tokens)
        payload["word_cache_hits"] = self.tokenizer.word_cache_hits
        payload["word_cache_misses"] = self.tokenizer.word_cache_misses
        return payload
