"""String similarity metrics shared by the featurizers and baselines.

Implements every metric the paper's systems rely on:

* Levenshtein edit distance and its normalised similarity (COMA, misc.),
* longest common subsequence and the paper's lexical-featurizer ratio
  ``lcs(a, b) / min(len(a), len(b))`` (Section IV-C2),
* longest common substring (COMA),
* character n-gram (trigram) similarity (COMA),
* affix (common prefix/suffix) similarity (COMA),
* Soundex phonetic codes and similarity (COMA),
* Jaro and Jaro-Winkler similarity (general-purpose),
* token-set Jaccard / Dice coefficients (LSD, MLM featurizers),
* TF-IDF cosine over token multisets (LSD's WHIRL learner).

All similarities are in ``[0, 1]`` with 1 meaning identical.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence


# ---------------------------------------------------------------------------
# Edit distance family
# ---------------------------------------------------------------------------

def levenshtein(a: str, b: str) -> int:
    """Classic dynamic-programming edit distance (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def edit_similarity(a: str, b: str) -> float:
    """``1 - levenshtein / max_len``; 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


# ---------------------------------------------------------------------------
# Subsequence / substring family
# ---------------------------------------------------------------------------

def longest_common_subsequence(a: str, b: str) -> int:
    """Length of the longest common subsequence of two strings.

    Bit-parallel (Allison-Dix / Hyyro): bit ``j`` of ``row`` stands for
    column ``j`` of the DP row over ``b``, cleared where the row's LCS grows
    by one at ``j``.  Each character of ``a`` updates the whole row with one
    add, one subtract and one or on Python ints, so the LCS is the number
    of cleared bits.
    """
    if not a or not b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    matches: dict[str, int] = {}
    for j, char_b in enumerate(b):
        matches[char_b] = matches.get(char_b, 0) | (1 << j)
    full = (1 << len(b)) - 1
    row = full
    for char_a in a:
        match = row & matches.get(char_a, 0)
        row = (row + match) | (row - match)
    return len(b) - (row & full).bit_count()


def lcs_ratio(a: str, b: str) -> float:
    """The paper's lexical-featurizer score: ``lsc(a,b) / min(len(a), len(b))``.

    Dividing by the *shorter* length makes the metric abbreviation-friendly:
    ``lcs("qty", "quantity") = 3`` and ``min`` length 3 give a perfect 1.0.
    """
    shorter = min(len(a), len(b))
    if shorter == 0:
        return 0.0
    return longest_common_subsequence(a, b) / shorter


def longest_common_substring(a: str, b: str) -> int:
    """Length of the longest contiguous common substring."""
    if not a or not b:
        return 0
    best = 0
    previous = [0] * (len(b) + 1)
    for char_a in a:
        current = [0]
        for j, char_b in enumerate(b, start=1):
            if char_a == char_b:
                current.append(previous[j - 1] + 1)
                best = max(best, current[j])
            else:
                current.append(0)
        previous = current
    return best


def substring_similarity(a: str, b: str) -> float:
    """Longest common substring normalised by the shorter length."""
    shorter = min(len(a), len(b))
    if shorter == 0:
        return 0.0
    return longest_common_substring(a, b) / shorter


# ---------------------------------------------------------------------------
# n-gram / affix family (COMA name matchers)
# ---------------------------------------------------------------------------

def character_ngrams(text: str, n: int = 3) -> Counter:
    """Multiset of character n-grams with boundary padding (``#``)."""
    padded = f"{'#' * (n - 1)}{text}{'#' * (n - 1)}"
    if len(padded) < n:
        return Counter()
    return Counter(padded[i : i + n] for i in range(len(padded) - n + 1))


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Dice coefficient over padded character n-gram multisets."""
    grams_a = character_ngrams(a, n)
    grams_b = character_ngrams(b, n)
    total = sum(grams_a.values()) + sum(grams_b.values())
    if total == 0:
        return 1.0 if a == b else 0.0
    overlap = sum((grams_a & grams_b).values())
    return 2.0 * overlap / total


def affix_similarity(a: str, b: str) -> float:
    """COMA's affix matcher: longest shared prefix or suffix over shorter length."""
    shorter = min(len(a), len(b))
    if shorter == 0:
        return 0.0
    prefix = 0
    while prefix < shorter and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < shorter and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    return max(prefix, suffix) / shorter


# ---------------------------------------------------------------------------
# Phonetic family
# ---------------------------------------------------------------------------

_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    "l": "4",
    **dict.fromkeys("mn", "5"),
    "r": "6",
}


def soundex(word: str) -> str:
    """American Soundex code of a word (empty string for non-alpha input)."""
    letters = [ch for ch in word.lower() if ch.isalpha()]
    if not letters:
        return ""
    first = letters[0]
    encoded = [first.upper()]
    previous = _SOUNDEX_CODES.get(first, "")
    for ch in letters[1:]:
        if ch in "hw":
            continue
        code = _SOUNDEX_CODES.get(ch, "")
        if code and code != previous:
            encoded.append(code)
            if len(encoded) == 4:
                break
        previous = code
    return "".join(encoded).ljust(4, "0")


def soundex_similarity(a: str, b: str) -> float:
    """1.0 when Soundex codes agree, fractional agreement otherwise."""
    code_a, code_b = soundex(a), soundex(b)
    if not code_a or not code_b:
        return 0.0
    matches = sum(1 for x, y in zip(code_a, code_b) if x == y)
    return matches / 4.0


# ---------------------------------------------------------------------------
# Jaro / Jaro-Winkler
# ---------------------------------------------------------------------------

def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    matched_b = [False] * len(b)
    matches_a: list[str] = []
    for i, char_a in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == char_a:
                matched_b[j] = True
                matches_a.append(char_a)
                break
    if not matches_a:
        return 0.0
    matches_b = [b[j] for j, used in enumerate(matched_b) if used]
    transpositions = sum(1 for x, y in zip(matches_a, matches_b) if x != y) // 2
    m = len(matches_a)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by up to 4 characters of common prefix."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for x, y in zip(a, b):
        if x != y or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


# ---------------------------------------------------------------------------
# Token-set family
# ---------------------------------------------------------------------------

def jaccard_similarity(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Jaccard index of two token sets (1.0 for two empty sets)."""
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def dice_similarity(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Dice coefficient of two token sets."""
    set_a, set_b = set(tokens_a), set(tokens_b)
    total = len(set_a) + len(set_b)
    if total == 0:
        return 1.0
    return 2.0 * len(set_a & set_b) / total


def monge_elkan(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    base: "callable" = jaro_winkler_similarity,
) -> float:
    """Monge-Elkan: mean over tokens of A of their best ``base`` match in B.

    The hybrid metric used to compare multi-word names token-by-token; COMA's
    composite name matcher behaves this way over word fragments.
    """
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(base(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)


# ---------------------------------------------------------------------------
# TF-IDF cosine (LSD's WHIRL nearest-neighbour learner)
# ---------------------------------------------------------------------------

class TfIdfSpace:
    """A TF-IDF vector space fit on a corpus of token lists.

    LSD's WHIRL learner classifies a source attribute by nearest neighbours
    of TF-IDF encodings; this helper builds the space once over the target
    schema's documents and encodes queries against it.
    """

    def __init__(self, documents: Sequence[Sequence[str]]) -> None:
        self.documents = [list(doc) for doc in documents]
        self.doc_count = len(self.documents)
        doc_frequency: Counter = Counter()
        for doc in self.documents:
            doc_frequency.update(set(doc))
        self.idf: dict[str, float] = {
            token: math.log((1 + self.doc_count) / (1 + freq)) + 1.0
            for token, freq in doc_frequency.items()
        }
        self._vectors = [self.encode(doc) for doc in self.documents]

    def encode(self, tokens: Sequence[str]) -> dict[str, float]:
        """L2-normalised TF-IDF vector of a token list (sparse dict)."""
        counts = Counter(tokens)
        vector = {
            token: count * self.idf.get(token, 1.0) for token, count in counts.items()
        }
        norm = math.sqrt(sum(weight * weight for weight in vector.values()))
        if norm == 0.0:
            return {}
        return {token: weight / norm for token, weight in vector.items()}

    @staticmethod
    def cosine(vec_a: Mapping[str, float], vec_b: Mapping[str, float]) -> float:
        if len(vec_a) > len(vec_b):
            vec_a, vec_b = vec_b, vec_a
        return sum(weight * vec_b.get(token, 0.0) for token, weight in vec_a.items())

    def similarity_to_documents(self, tokens: Sequence[str]) -> list[float]:
        """Cosine of ``tokens`` against every fitted document, in order."""
        query = self.encode(tokens)
        return [self.cosine(query, vector) for vector in self._vectors]
