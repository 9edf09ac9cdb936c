"""The encode plane's contract: bit-exact with the sequential reference.

Every fast path introduced by :mod:`repro.lm.encode_plane` -- the trie
WordPiece walk, the closed-form pair truncation, zero-copy batch assembly,
digest-parity fingerprints -- is held bit-identical to the per-pair
reference (`encode_pair`/`encode_single`/`fingerprint_encoded`) under
property-based randomisation, including random vocabularies, truncation
overflow and max_length edges.  Plus unit coverage of the LRU bound, the
buffer pool, token-store persistence, and the content-keyed pair cache
under schema drift (renamed or re-added text never meets stale halves).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.batching import plan_bucket_chunks, plan_microbatches
from repro.engine.engine import fingerprint_encoded
from repro.featurizers.bert import BertFeaturizer, BertFeaturizerConfig
from repro.featurizers.base import make_pair_view
from repro.lm.encode_plane import (
    AttributeTokenStore,
    BatchBufferPool,
    EncodePlane,
    EncodeStats,
    LruDict,
    token_key,
    truncate_pair_lengths,
)
from repro.lm.tokenizer import (
    EncodedPair,
    WordPieceTokenizer,
    encoded_length,
    stack_encoded,
    trim_encoded,
)
from repro.lm.vocab import build_vocab, trie_longest_match
from repro.schema import AttributeRef
from repro.text.tokenize import split_identifier

CORPUS = [
    ["product", "item", "price", "amount", "discount", "quantity"],
    ["transaction", "date", "identifier", "brand", "name", "status"],
    ["european", "article", "number", "customer", "order", "line"],
]


@pytest.fixture(scope="module")
def tokenizer() -> WordPieceTokenizer:
    return WordPieceTokenizer(build_vocab(CORPUS, target_size=120))


def make_plane(tokenizer: WordPieceTokenizer, max_length: int = 24, **kwargs) -> EncodePlane:
    kwargs.setdefault("persist_tokens", False)
    return EncodePlane(tokenizer, max_length=max_length, **kwargs)


def reference_word_pieces(vocab, word: str) -> list[str]:
    """The classic O(L^2) greedy longest-match WordPiece, as the oracle."""
    if word in vocab:
        return [word]
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        piece = None
        while end > start:
            candidate = word[start:end]
            if start > 0:
                candidate = "##" + candidate
            if candidate in vocab:
                piece = candidate
                break
            end -= 1
        if piece is None:
            return ["[UNK]"]
        pieces.append(piece)
        start = end
    return pieces


# -- strategies ----------------------------------------------------------------

# Mostly in-alphabet words, salted with characters outside the corpus
# alphabet so [UNK] paths are exercised.
word_st = st.text(alphabet="abcdeimnoprstuz_19#", min_size=1, max_size=14)
name_st = st.text(alphabet="abcdeimnoprstuz_19", min_size=1, max_size=18)
desc_st = st.one_of(st.just(""), st.text(alphabet="abcdeimnoprstuz 19", max_size=40))
attr_st = st.tuples(name_st, desc_st)


# -- trie WordPiece ------------------------------------------------------------


class TestTrieWordPiece:
    @settings(max_examples=200, deadline=None)
    @given(word_st)
    def test_matches_reference_implementation(self, tokenizer, word):
        assert tokenizer.tokenize_word(word) == reference_word_pieces(
            tokenizer.vocab, word
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.lists(word_st, min_size=1, max_size=6), min_size=1, max_size=4),
        st.lists(word_st, min_size=1, max_size=12),
    )
    # Merges once re-spelled an existing piece here (``#`` + ``###`` ->
    # ``##``, then ``##`` + ``##1`` -> ``##1``) and build_vocab raised on the
    # duplicate token.
    @example(corpus=[["##1", "##1"]], words=["1"])
    def test_matches_reference_on_random_vocabs(self, corpus, words):
        vocab = build_vocab(corpus, target_size=80)
        fresh = WordPieceTokenizer(vocab)
        for word in words:
            assert fresh.tokenize_word(word) == reference_word_pieces(vocab, word)

    def test_longest_match_prefers_longer_piece(self, tokenizer):
        vocab = tokenizer.vocab
        root = vocab.initial_trie
        # Matching a vocab token from position 0 must span the whole token
        # (the longest match), not stop at a shorter prefix piece.
        longest = max(
            (t for t in vocab.tokens if not t.startswith(("##", "["))), key=len
        )
        end, piece_id = trie_longest_match(root, longest, 0)
        assert end == len(longest)
        assert vocab.tokens[piece_id] == longest

    def test_unknown_character_yields_unk(self, tokenizer):
        assert tokenizer.tokenize_word("préix") == ["[UNK]"]

    def test_word_memo_bounded(self):
        small = WordPieceTokenizer(
            build_vocab(CORPUS, target_size=120), word_cache_capacity=2
        )
        for word in ("price", "amount", "brand", "price"):
            small.word_ids(word)
        assert len(small._word_ids) <= 2

    def test_ids_array_dtype(self, tokenizer):
        ids = tokenizer.ids_array(["price", "amount"])
        assert ids.dtype == np.int64
        assert ids.tolist() == tokenizer.ids(["price", "amount"])

    def test_tokenize_many(self, tokenizer):
        rows = tokenizer.tokenize_many([["price"], ["brand", "name"]])
        assert [row.tolist() for row in rows] == [
            tokenizer.ids(["price"]),
            tokenizer.ids(["brand", "name"]),
        ]


# -- truncation closed form ----------------------------------------------------


class TestTruncatePairLengths:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=64),
    )
    def test_matches_pop_loop(self, len_a, len_b, budget):
        ref_a, ref_b = len_a, len_b
        while ref_a + ref_b > budget:
            if ref_a >= ref_b:
                ref_a -= 1
            else:
                ref_b -= 1
        assert truncate_pair_lengths(len_a, len_b, budget) == (ref_a, ref_b)

    def test_negative_budget_clamps(self):
        assert truncate_pair_lengths(5, 5, -2) == (0, 0)


# -- batch assembly parity -----------------------------------------------------


class TestAssemblyParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(attr_st, min_size=1, max_size=6),
        st.integers(min_value=4, max_value=48),
    )
    def test_batch_assembly_bit_exact(self, tokenizer, attrs, max_length):
        """assemble == trim(stack(encode_attribute_pair...)) to the bit."""
        plane = make_plane(tokenizer, max_length=max_length)
        pairs = [(a, b) for a in attrs for b in attrs]
        halves = [
            plane.halves(a[0], a[1], b[0], b[1]) for a, b in pairs
        ]
        sequential = [
            tokenizer.encode_attribute_pair(
                a[0], a[1], b[0], b[1], max_length=max_length
            )
            for a, b in pairs
        ]
        batch = plane.assemble(halves)
        reference = trim_encoded(stack_encoded(sequential))
        np.testing.assert_array_equal(batch.input_ids, reference.input_ids)
        np.testing.assert_array_equal(batch.segment_ids, reference.segment_ids)
        np.testing.assert_array_equal(batch.attention_mask, reference.attention_mask)

        for pair_halves, encoded in zip(halves, sequential):
            one = plane.assemble_one(pair_halves)
            np.testing.assert_array_equal(one.input_ids, encoded.input_ids)
            np.testing.assert_array_equal(one.segment_ids, encoded.segment_ids)
            np.testing.assert_array_equal(one.attention_mask, encoded.attention_mask)
            assert encoded_length(one) == encoded_length(encoded)
            # Digest parity: halves fingerprints key the same score cache.
            assert pair_halves.fingerprint == fingerprint_encoded(encoded)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(attr_st, min_size=1, max_size=8),
        st.integers(min_value=8, max_value=32),
        st.integers(min_value=1, max_value=8),
    )
    def test_bucketed_chunks_match_plan_microbatches(
        self, tokenizer, attrs, max_length, granularity
    ):
        """plan_bucket_chunks on half lengths == plan_microbatches batches."""
        plane = make_plane(tokenizer, max_length=max_length)
        halves = [plane.halves(a[0], a[1], a[0], a[1]) for a in attrs]
        sequential = [
            tokenizer.encode_attribute_pair(a[0], a[1], a[0], a[1], max_length=max_length)
            for a in attrs
        ]
        chunks = plan_bucket_chunks(
            [pair.length for pair in halves],
            microbatch_size=3,
            bucket_granularity=granularity,
        )
        plan = plan_microbatches(
            sequential, microbatch_size=3, bucket_granularity=granularity
        )
        assert [chunk for _, chunk in chunks] == [list(mb.indices) for mb in plan]
        for (padded, chunk), microbatch in zip(chunks, plan):
            assembled = plane.assemble([halves[i] for i in chunk], pad_to=padded)
            np.testing.assert_array_equal(
                assembled.input_ids, microbatch.batch.input_ids
            )
            np.testing.assert_array_equal(
                assembled.segment_ids, microbatch.batch.segment_ids
            )
            np.testing.assert_array_equal(
                assembled.attention_mask, microbatch.batch.attention_mask
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(word_st, max_size=10), min_size=1, max_size=6),
        st.integers(min_value=4, max_value=40),
    )
    def test_encode_singles_bit_exact(self, tokenizer, sentences, max_length):
        batched = tokenizer.encode_singles(sentences, max_length=max_length)
        for sentence, fast in zip(sentences, batched):
            reference = tokenizer.encode_single(list(sentence), max_length=max_length)
            np.testing.assert_array_equal(fast.input_ids, reference.input_ids)
            np.testing.assert_array_equal(fast.segment_ids, reference.segment_ids)
            np.testing.assert_array_equal(fast.attention_mask, reference.attention_mask)
            assert encoded_length(fast) == encoded_length(reference)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(word_st, min_size=1, max_size=10), min_size=1, max_size=6),
        st.integers(min_value=4, max_value=40),
    )
    def test_assemble_singles_bit_exact(self, tokenizer, sentences, max_length):
        plane = make_plane(tokenizer, max_length=max_length)
        id_rows = [plane.tokens.ids_for_words(tuple(words)) for words in sentences]
        batch = plane.assemble_singles(id_rows)
        reference = trim_encoded(
            stack_encoded(
                [
                    tokenizer.encode_single(list(words), max_length=max_length)
                    for words in sentences
                ]
            )
        )
        np.testing.assert_array_equal(batch.input_ids, reference.input_ids)
        np.testing.assert_array_equal(batch.segment_ids, reference.segment_ids)
        np.testing.assert_array_equal(batch.attention_mask, reference.attention_mask)

    def test_assemble_rejects_narrow_pad(self, tokenizer):
        plane = make_plane(tokenizer)
        halves = plane.halves("product_name", "the name", "brand_name", "")
        with pytest.raises(ValueError, match="drops real tokens"):
            plane.assemble([halves], pad_to=4)

    def test_assemble_rejects_empty(self, tokenizer):
        plane = make_plane(tokenizer)
        with pytest.raises(ValueError, match="empty"):
            plane.assemble([])


# -- encoded_length / REPRO_CHECKS ---------------------------------------------


class TestEncodedLength:
    def test_precomputed_length_served(self, tokenizer):
        encoded = tokenizer.encode_pair(["price"], ["amount"], max_length=16)
        assert encoded.length is not None
        assert len(encoded) == encoded.length
        assert encoded_length(encoded) == int(encoded.attention_mask.sum())

    def test_checks_catch_mismatch(self, tokenizer, monkeypatch):
        encoded = tokenizer.encode_pair(["price"], ["amount"], max_length=16)
        lying = EncodedPair(
            input_ids=encoded.input_ids,
            segment_ids=encoded.segment_ids,
            attention_mask=encoded.attention_mask,
            length=encoded.length + 1,
        )
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        assert encoded_length(lying) == encoded.length + 1  # trusted when off
        monkeypatch.setenv("REPRO_CHECKS", "1")
        with pytest.raises(AssertionError, match="disagrees"):
            encoded_length(lying)


# -- LRU / pool / token store --------------------------------------------------


class TestLruDict:
    def test_eviction_order_and_counters(self):
        lru = LruDict(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3)  # evicts b
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert lru.evictions == 1
        assert lru.hits == 3
        assert lru.misses == 1
        assert len(lru) == 2

    def test_pop(self):
        lru = LruDict(4)
        lru.put("a", 1)
        assert lru.pop("a") is True
        assert lru.pop("a") is False

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruDict(0)


class TestBatchBufferPool:
    def test_reuses_released_buffer(self):
        pool = BatchBufferPool()
        first = pool.acquire(4, 16)
        pool.release(first)
        second = pool.acquire(4, 16)
        assert second is first
        assert pool.stats.pool_hits == 1
        assert pool.stats.pool_misses == 1

    def test_shape_mismatch_allocates(self):
        pool = BatchBufferPool()
        pool.release(pool.acquire(4, 16))
        other = pool.acquire(4, 24)
        assert other.shape == (3, 4, 24)
        assert pool.stats.pool_misses == 2

    def test_byte_bound_drops_excess(self):
        pool = BatchBufferPool(max_bytes=0)
        buffer = pool.acquire(4, 16)
        pool.release(buffer)
        assert pool.pooled_bytes == 0

    def test_release_ignores_foreign_arrays(self, tokenizer):
        plane = make_plane(tokenizer)
        encoded = tokenizer.encode_pair(["price"], ["amount"], max_length=16)
        plane.release(stack_encoded([encoded]))  # not pool-backed; no-op
        plane.release(encoded)  # 1-D; no-op

    def test_pooled_assembly_roundtrip(self, tokenizer):
        plane = make_plane(tokenizer)
        halves = [plane.halves("product_name", "", "brand_name", "")]
        batch = plane.assemble(halves)
        plane.release(batch)
        again = plane.assemble(halves)
        assert plane.stats.pool_hits == 1
        np.testing.assert_array_equal(batch.input_ids, again.input_ids)

    def test_stats_payload_reports_lru_evictions(self, tokenizer):
        plane = make_plane(tokenizer, token_cache_capacity=2, pair_cache_capacity=1)
        names = ["price", "amount", "brand", "status", "order", "line", "date", "name"]
        for key, (name_a, name_b) in enumerate(zip(names[::2], names[1::2])):
            plane.pair_cache.put(key, plane.halves(name_a, "", name_b, ""))
        assert plane.tokens.evictions == 6
        assert plane.pair_cache.evictions == 3
        payload = plane.stats_payload()
        assert payload["token_cache_evictions"] == 6
        assert payload["pair_cache_evictions"] == 3
        assert payload["pair_cache_entries"] == len(plane.pair_cache) == 1
        assert "encode_cache_entries" not in payload
        assert "encode_cache_evictions" not in payload


class TestAttributeTokenStore:
    def test_hit_miss_counters(self, tokenizer):
        store = AttributeTokenStore(tokenizer, capacity=8)
        first = store.ids_for("product_name", "the name")
        second = store.ids_for("product_name", "the name")
        np.testing.assert_array_equal(first, second)
        assert store.stats.token_cache_misses == 1
        assert store.stats.token_cache_hits == 1

    def test_content_addressing_differs_on_text(self, tokenizer):
        assert token_key("a", "b") != token_key("a", "c")
        assert token_key("ab", "") != token_key("a", "b")

    def test_lru_bound(self, tokenizer):
        store = AttributeTokenStore(tokenizer, capacity=2)
        for name in ("a", "b", "c"):
            store.ids_for(name, "")
        assert len(store) == 2
        assert store.evictions == 1

    def test_arrays_are_readonly(self, tokenizer):
        store = AttributeTokenStore(tokenizer, capacity=8)
        ids = store.ids_for("product_name", "")
        with pytest.raises(ValueError):
            ids[0] = 0

    def test_persistence_roundtrip(self, tokenizer, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        stats = EncodeStats()
        writer = AttributeTokenStore(
            tokenizer, capacity=64, cache_token="tok-test", stats=stats
        )
        expected = writer.ids_for("product_name", "the name of the product")
        assert writer.save_persisted(force=True)

        reader = AttributeTokenStore(tokenizer, capacity=64, cache_token="tok-test")
        assert reader.load_persisted() == 1
        recovered = reader.ids_for("product_name", "the name of the product")
        np.testing.assert_array_equal(recovered, expected)
        assert reader.stats.token_cache_misses == 0  # served from disk block

    def test_persistence_keyed_on_vocab(self, tokenizer, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        writer = AttributeTokenStore(tokenizer, capacity=64, cache_token="tok-test")
        writer.ids_for("product_name", "")
        writer.save_persisted(force=True)
        other_vocab = build_vocab(CORPUS + [["extra", "tokens"]], target_size=140)
        reader = AttributeTokenStore(
            WordPieceTokenizer(other_vocab), capacity=64, cache_token="tok-test"
        )
        assert reader.load_persisted() == 0  # different vocab, different key


# -- engine fast path ----------------------------------------------------------


class TestScoreHalvesParity:
    def test_matches_score_encoded(self, tiny_artifacts, source_schema, target_schema):
        from repro.engine import EngineConfig, ScoringEngine

        # persist_scores off: otherwise one engine would serve the other's
        # persisted block (same weights + digest-parity fingerprints) and
        # never exercise assembly at all.
        engine_config = EngineConfig(persist_scores=False)
        planed = BertFeaturizer(
            tiny_artifacts.tokenizer,
            tiny_artifacts.bert,
            BertFeaturizerConfig(max_length=24, seed=0, persist_tokens=False),
            engine_config=engine_config,
        )
        # The sequential reference: a second engine over the same weights,
        # scoring per-pair encode_attribute_pair rows through score_encoded.
        reference = ScoringEngine(
            planed.model,
            planed.classifier,
            sorted(planed.tokenizer.vocab.special_ids()),
            config=engine_config,
        )
        try:
            pairs = [
                make_pair_view(source_schema, target_schema, source_ref, target_ref)
                for source_ref, _ in source_schema.iter_attributes()
                for target_ref, _ in target_schema.iter_attributes()
            ]
            rows = [
                planed.tokenizer.encode_attribute_pair(
                    pair.source_name,
                    pair.source_description,
                    pair.target_name,
                    pair.target_description,
                    max_length=planed.config.max_length,
                )
                for pair in pairs
            ]
            baseline = reference.score_encoded(rows)
            fast = planed.score_pairs(pairs)
            np.testing.assert_allclose(fast, baseline, atol=1e-8)
            rescored = planed.score_pairs(pairs)
            np.testing.assert_array_equal(rescored, fast)
            assert planed.engine.stats.pairs_skipped >= len(pairs)
            assert planed.encode_plane.stats.batches_assembled > 0
            # Identical fingerprints: the plane path must hit the score
            # cache the sequential path populated.
            halves = [planed._pair_halves(pair) for pair in pairs]  # noqa: SLF001
            crossed = reference.score_halves(halves, planed.encode_plane)
            np.testing.assert_array_equal(crossed, baseline)
            assert reference.stats.pairs_skipped >= len(pairs)
        finally:
            reference.close()
            planed.close()


# -- drift: content-keyed caches ---------------------------------------------


def _evolve(schema, *ops):
    from repro.schema import SchemaDelta, apply_delta

    return apply_delta(schema, SchemaDelta(tuple(ops)))[0]


class TestDriftInvalidation:
    """The pair-halves LRU keys on the pair's text, so evolved text misses
    by construction and no drift sweep is needed."""

    def _featurizer(self, tiny_artifacts):
        return BertFeaturizer(
            tiny_artifacts.tokenizer,
            tiny_artifacts.bert,
            BertFeaturizerConfig(max_length=24, seed=0, persist_tokens=False),
        )

    def _expected_fingerprint(self, featurizer, view):
        encoded = featurizer.tokenizer.encode_attribute_pair(
            view.source_name,
            view.source_description,
            view.target_name,
            view.target_description,
            max_length=featurizer.config.max_length,
        )
        return fingerprint_encoded(encoded)

    def test_rename_never_serves_stale_halves(
        self, tiny_artifacts, source_schema, target_schema
    ):
        from repro.schema import AddColumn, Attribute, DataType, DropColumn, RenameColumn

        featurizer = self._featurizer(tiny_artifacts)
        try:
            source_ref = AttributeRef("Orders", "qty")
            target_ref = AttributeRef("Transaction", "quantity")
            original = make_pair_view(source_schema, target_schema, source_ref, target_ref)
            renamed_schema = _evolve(source_schema, RenameColumn(source_ref, "quantity_sold"))
            renamed = make_pair_view(
                renamed_schema, target_schema, AttributeRef("Orders", "quantity_sold"), target_ref
            )
            # Dropped, then re-added under the same name with new text.
            readded_schema = _evolve(
                _evolve(source_schema, DropColumn(source_ref)),
                AddColumn("Orders", Attribute("qty", DataType.DECIMAL, "units shipped")),
            )
            readded = make_pair_view(readded_schema, target_schema, source_ref, target_ref)
            assert readded.key == original.key and readded != original

            plane = featurizer.encode_plane
            for view in (original, renamed, readded):
                misses = plane.stats.pair_cache_misses
                featurizer.score_pairs([view])
                assert plane.stats.pair_cache_misses == misses + 1
                halves = featurizer._pair_halves(view)
                assert halves.fingerprint == self._expected_fingerprint(featurizer, view)
            fingerprints = {featurizer._pair_halves(v).fingerprint for v in (original, renamed, readded)}
            assert len(fingerprints) == 3

            # Renaming back restores the original text: its halves hit.
            back_schema = _evolve(
                renamed_schema, RenameColumn(AttributeRef("Orders", "quantity_sold"), "qty")
            )
            back = make_pair_view(back_schema, target_schema, source_ref, target_ref)
            hits = plane.stats.pair_cache_hits
            assert featurizer._pair_halves(back) is featurizer._pair_halves(original)
            assert plane.stats.pair_cache_hits == hits + 2
        finally:
            featurizer.close()

    def test_stale_tokens_structurally_impossible(self, tiny_artifacts):
        """Content addressing: changed text can never be served stale tokens."""
        featurizer = self._featurizer(tiny_artifacts)
        try:
            plane = featurizer.encode_plane
            before = plane.tokens.ids_for("quantity", "the quantity purchased")
            after = plane.tokens.ids_for("quantity_sold", "the quantity purchased")
            assert not np.array_equal(before, after)
            # Even WITHOUT any invalidation sweep, the renamed text keys a
            # different entry -- the stale-token bug class cannot occur.
            assert token_key("quantity", "x") != token_key("quantity_sold", "x")
        finally:
            featurizer.close()

    def test_untouched_refs_survive(self, tiny_artifacts, source_schema, target_schema):
        from repro.schema import RenameColumn

        featurizer = self._featurizer(tiny_artifacts)
        try:
            target_ref = AttributeRef("Transaction", "quantity")
            touched = AttributeRef("Orders", "qty")
            untouched = AttributeRef("Item", "ean")
            pairs = [
                make_pair_view(source_schema, target_schema, s, target_ref)
                for s in (touched, untouched)
            ]
            featurizer.score_pairs(pairs)
            evolved = _evolve(source_schema, RenameColumn(touched, "quantity_sold"))
            drifted = [
                make_pair_view(evolved, target_schema, s, target_ref)
                for s in (AttributeRef("Orders", "quantity_sold"), untouched)
            ]
            plane = featurizer.encode_plane
            hits, misses = plane.stats.pair_cache_hits, plane.stats.pair_cache_misses
            featurizer.score_pairs(drifted)
            assert plane.stats.pair_cache_hits == hits + 1  # the untouched pair
            assert plane.stats.pair_cache_misses == misses + 1  # the renamed one
            assert len(plane.pair_cache) == 3
        finally:
            featurizer.close()
