"""Tests for string similarity metrics, including property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    TfIdfSpace,
    affix_similarity,
    dice_similarity,
    edit_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    lcs_ratio,
    levenshtein,
    longest_common_subsequence,
    longest_common_substring,
    monge_elkan,
    ngram_similarity,
    soundex,
    soundex_similarity,
    substring_similarity,
)

_word = st.from_regex(r"[a-z]{0,12}", fullmatch=True)
#: Small alphabets force repeated characters; the non-ASCII letters check
#: that match masks are keyed by character, not by byte.
_lcs_text = st.text(alphabet="ab_zéü日", max_size=40)


def reference_lcs(a: str, b: str) -> int:
    """The O(n*m) dynamic program (test oracle for the bit-parallel LCS)."""
    previous = [0] * (len(b) + 1)
    for char_a in a:
        current = [0]
        for j, char_b in enumerate(b, start=1):
            if char_a == char_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "abc") == 3

    @settings(max_examples=60, deadline=None)
    @given(_word, _word)
    def test_property_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @settings(max_examples=60, deadline=None)
    @given(_word, _word, _word)
    def test_property_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=60, deadline=None)
    @given(_word, _word)
    def test_property_bounds(self, a, b):
        distance = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))


class TestLcs:
    def test_known_values(self):
        assert longest_common_subsequence("qty", "quantity") == 3
        assert longest_common_subsequence("abc", "xyz") == 0

    def test_lcs_ratio_abbreviation_friendly(self):
        # Every character of "qty" appears in order inside "quantity".
        assert lcs_ratio("qty", "quantity") == 1.0

    def test_lcs_ratio_empty(self):
        assert lcs_ratio("", "abc") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(_word, _word)
    def test_property_lcs_bounded_by_shorter(self, a, b):
        assert longest_common_subsequence(a, b) <= min(len(a), len(b))

    @settings(max_examples=60, deadline=None)
    @given(_word)
    def test_property_self_similarity(self, a):
        if a:
            assert lcs_ratio(a, a) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(_lcs_text, _lcs_text)
    def test_property_matches_dp_oracle(self, a, b):
        assert longest_common_subsequence(a, b) == reference_lcs(a, b)
        assert longest_common_subsequence(b, a) == reference_lcs(a, b)

    def test_matches_dp_oracle_on_long_strings(self):
        # Rows wider than a machine word: the recurrence's carries must run
        # across the whole Python int.
        a = "transaction_line_item_discount_amount" * 3
        b = "txn_ln_itm_disc_amt_" * 5
        assert longest_common_subsequence(a, b) == reference_lcs(a, b)

    def test_substring(self):
        assert longest_common_substring("abcdef", "zabcy") == 3
        assert substring_similarity("abc", "abc") == 1.0


class TestComaMetrics:
    def test_affix(self):
        assert affix_similarity("order_id", "order_date") > 0.5
        assert affix_similarity("abc", "xyz") == 0.0
        assert affix_similarity("", "x") == 0.0

    def test_ngram_identical(self):
        assert ngram_similarity("discount", "discount") == pytest.approx(1.0)

    def test_ngram_disjoint(self):
        assert ngram_similarity("aaa", "zzz") == 0.0

    def test_soundex_codes(self):
        assert soundex("Robert") == "R163"
        assert soundex("Rupert") == "R163"
        assert soundex("") == ""
        assert soundex_similarity("Robert", "Rupert") == 1.0

    @settings(max_examples=60, deadline=None)
    @given(_word, _word)
    def test_property_similarities_in_unit_interval(self, a, b):
        for metric in (
            edit_similarity,
            ngram_similarity,
            affix_similarity,
            soundex_similarity,
            jaro_similarity,
            jaro_winkler_similarity,
        ):
            value = metric(a, b)
            assert 0.0 <= value <= 1.0, metric.__name__


class TestJaro:
    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_winkler_prefix_boost(self):
        plain = jaro_similarity("prefix_a", "prefix_b")
        boosted = jaro_winkler_similarity("prefix_a", "prefix_b")
        assert boosted >= plain

    def test_identity(self):
        assert jaro_similarity("same", "same") == 1.0


class TestTokenSetMetrics:
    def test_jaccard(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard_similarity([], []) == 1.0

    def test_dice(self):
        assert dice_similarity(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_monge_elkan_asymmetric_coverage(self):
        score = monge_elkan(["order"], ["order", "line", "total"])
        assert score == pytest.approx(1.0)

    def test_monge_elkan_empty(self):
        assert monge_elkan([], ["a"]) == 0.0


class TestTfIdf:
    def test_identical_document_is_nearest(self):
        space = TfIdfSpace([["order", "id"], ["product", "name"], ["tax", "rate"]])
        similarities = space.similarity_to_documents(["product", "name"])
        assert max(similarities) == similarities[1]
        assert similarities[1] == pytest.approx(1.0)

    def test_empty_query(self):
        space = TfIdfSpace([["a"]])
        assert space.similarity_to_documents([]) == [0.0]

    def test_idf_downweights_common_tokens(self):
        space = TfIdfSpace([["common", "rare1"], ["common", "rare2"]])
        vector = space.encode(["common", "rare1"])
        assert vector["rare1"] > vector["common"]
