"""The encode plane's contract: bit-exact with the sequential reference.

Every fast path introduced by :mod:`repro.lm.encode_plane` -- the trie
WordPiece walk, the closed-form pair truncation, gather assembly from id
tables, digest-parity fingerprints -- is held bit-identical to the
per-pair reference (`encode_pair`/`encode_single`/`fingerprint_encoded`)
under property-based randomisation, including random vocabularies,
truncation overflow and max_length edges.  Plus unit coverage of the LRU
bound and the text-keyed token store, and of tokens and fingerprints under
schema drift (renamed or re-added text never meets a stale entry).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.batching import plan_bucket_chunks, plan_microbatches
from repro.engine.engine import fingerprint_encoded
from repro.featurizers.bert import BertFeaturizer, BertFeaturizerConfig
from repro.featurizers.base import PairBatch, make_pair_view
from repro.lm.encode_plane import (
    AttributeTokenStore,
    BatchHalves,
    EncodePlane,
    LruDict,
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
        batch = plane.assemble(BatchHalves.of_pairs(halves))
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(attr_st, min_size=1, max_size=5),
        st.lists(attr_st, min_size=1, max_size=5),
        st.integers(min_value=4, max_value=48),
        st.integers(min_value=1, max_value=8),
    )
    def test_table_gather_bit_exact(self, tokenizer, attrs_a, attrs_b, max_length, granularity):
        """Rows sharing per-attribute id tables: every bucketed micro-batch
        gathered from a ``take`` of the batch, and every row fingerprint,
        equal the sequential rows."""
        plane = make_plane(tokenizer, max_length=max_length)
        index_a = np.repeat(np.arange(len(attrs_a)), len(attrs_b))
        index_b = np.tile(np.arange(len(attrs_b)), len(attrs_a))
        halves = plane.batch_halves(attrs_a, attrs_b, index_a, index_b)
        sequential = [
            tokenizer.encode_attribute_pair(
                *attrs_a[a], *attrs_b[b], max_length=max_length
            )
            for a, b in zip(index_a, index_b)
        ]
        fingerprints = plane.fingerprint_rows(halves)
        for row, encoded in enumerate(sequential):
            assert fingerprints[row].tobytes() == fingerprint_encoded(encoded)
        chunks = plan_bucket_chunks(
            halves.lengths.tolist(), microbatch_size=3, bucket_granularity=granularity
        )
        plan = plan_microbatches(sequential, microbatch_size=3, bucket_granularity=granularity)
        assert [chunk for _, chunk in chunks] == [list(mb.indices) for mb in plan]
        for (padded, chunk), microbatch in zip(chunks, plan):
            assembled = plane.assemble(halves.take(np.asarray(chunk)), pad_to=padded)
            np.testing.assert_array_equal(assembled.input_ids, microbatch.batch.input_ids)
            np.testing.assert_array_equal(assembled.segment_ids, microbatch.batch.segment_ids)
            np.testing.assert_array_equal(
                assembled.attention_mask, microbatch.batch.attention_mask
            )

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
            assembled = plane.assemble(
                BatchHalves.of_pairs([halves[i] for i in chunk]), pad_to=padded
            )
            np.testing.assert_array_equal(
                assembled.input_ids, microbatch.batch.input_ids
            )
            np.testing.assert_array_equal(
                assembled.segment_ids, microbatch.batch.segment_ids
            )
            np.testing.assert_array_equal(
                assembled.attention_mask, microbatch.batch.attention_mask
            )

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
            plane.assemble(BatchHalves.of_pairs([halves]), pad_to=4)

    def test_assemble_rejects_empty(self, tokenizer):
        plane = make_plane(tokenizer)
        with pytest.raises(ValueError, match="empty"):
            plane.assemble(BatchHalves.of_pairs([]))


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

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruDict(0)


class TestPlaneStats:
    def test_stats_payload_reports_lru_evictions(self, tokenizer):
        plane = make_plane(tokenizer, token_cache_capacity=2)
        names = ["price", "amount", "brand", "status", "order", "line", "date", "name"]
        for name_a, name_b in zip(names[::2], names[1::2]):
            plane.halves(name_a, "", name_b, "")
        assert plane.tokens.evictions == 6
        payload = plane.stats_payload()
        assert payload["token_cache_evictions"] == 6
        assert payload["token_cache_entries"] == len(plane.tokens) == 2
        assert payload["fingerprints"] == 4
        assert not [key for key in payload if key.startswith(("pair_cache", "encode_cache"))]


class TestAttributeTokenStore:
    def test_hit_miss_counters(self, tokenizer):
        store = AttributeTokenStore(tokenizer, capacity=8)
        first = store.ids_for("product_name", "the name")
        second = store.ids_for("product_name", "the name")
        np.testing.assert_array_equal(first, second)
        assert store.stats.token_cache_misses == 1
        assert store.stats.token_cache_hits == 1

    def test_content_addressing_differs_on_text(self, tokenizer):
        store = AttributeTokenStore(tokenizer, capacity=8)
        store.ids_for("a", "b")
        store.ids_for("a", "c")
        store.ids_for("ab", "")
        # Training samples tokenise like the attribute with the same words
        # but never share its entry, not even a one-word sample and a name
        # without a description.
        np.testing.assert_array_equal(store.ids_for_words(("a", "b")), store.ids_for("a", "b"))
        np.testing.assert_array_equal(store.ids_for_words(("ab",)), store.ids_for("ab", ""))
        assert store.stats.token_cache_misses == 5
        assert store.stats.token_cache_hits == 2
        assert len(store) == 5

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


# -- engine fast path ----------------------------------------------------------


class TestScoreHalvesParity:
    def test_matches_score_encoded(self, tiny_artifacts, source_schema, target_schema):
        from repro.engine import EngineConfig, ScoringEngine

        engine_config = EngineConfig()
        planed = BertFeaturizer(
            tiny_artifacts.tokenizer,
            tiny_artifacts.bert,
            BertFeaturizerConfig(max_length=24, seed=0),
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
            fast = planed.score_pairs(PairBatch.from_views(pairs))
            np.testing.assert_allclose(fast, baseline, atol=1e-8)
            rescored = planed.score_pairs(PairBatch.from_views(pairs))
            np.testing.assert_array_equal(rescored, fast)
            assert planed.engine.stats.pairs_skipped >= len(pairs)
            assert planed.encode_plane.stats.batches_assembled > 0
            # Identical fingerprints: the plane path must hit the score
            # cache the sequential path populated.
            halves = [
                planed.encode_plane.halves(
                    pair.source_name, pair.source_description,
                    pair.target_name, pair.target_description,
                )
                for pair in pairs
            ]
            crossed = reference.score_halves(
                BatchHalves.of_pairs(halves), planed.encode_plane
            )
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
    """Token arrays and fingerprints follow the pair's text, so evolved text
    never meets a stale entry and no drift sweep is needed."""

    def _featurizer(self, tiny_artifacts):
        return BertFeaturizer(
            tiny_artifacts.tokenizer,
            tiny_artifacts.bert,
            BertFeaturizerConfig(max_length=24, seed=0),
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

    def _fingerprint(self, featurizer, view) -> bytes:
        halves = featurizer._batch_halves(PairBatch.from_views([view]))
        return halves.fingerprints[0].tobytes()

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
                misses = plane.stats.token_cache_misses
                featurizer.score_pairs(PairBatch.from_views([view]))
                # Only the evolved source text is new; the target's hits.
                assert plane.stats.token_cache_misses == misses + (1 if view is not original else 2)
                assert self._fingerprint(featurizer, view) == self._expected_fingerprint(
                    featurizer, view
                )
            fingerprints = {self._fingerprint(featurizer, v) for v in (original, renamed, readded)}
            assert len(fingerprints) == 3

            # Renaming back restores the original text, hence its tokens
            # and its fingerprint.
            back_schema = _evolve(
                renamed_schema, RenameColumn(AttributeRef("Orders", "quantity_sold"), "qty")
            )
            back = make_pair_view(back_schema, target_schema, source_ref, target_ref)
            misses = plane.stats.token_cache_misses
            assert self._fingerprint(featurizer, back) == self._fingerprint(featurizer, original)
            assert plane.stats.token_cache_misses == misses
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
            misses = plane.stats.token_cache_misses
            plane.tokens.ids_for("quantity", "x")
            plane.tokens.ids_for("quantity_sold", "x")
            assert plane.stats.token_cache_misses == misses + 2
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
            featurizer.score_pairs(PairBatch.from_views(pairs))
            evolved = _evolve(source_schema, RenameColumn(touched, "quantity_sold"))
            drifted = [
                make_pair_view(evolved, target_schema, s, target_ref)
                for s in (AttributeRef("Orders", "quantity_sold"), untouched)
            ]
            plane = featurizer.encode_plane
            stats = featurizer.engine.stats
            misses, scored = plane.stats.token_cache_misses, stats.pairs_scored
            featurizer.score_pairs(PairBatch.from_views(drifted))
            assert plane.stats.token_cache_misses == misses + 1  # the renamed text
            assert stats.pairs_scored == scored + 1  # the untouched pair hits
        finally:
            featurizer.close()
