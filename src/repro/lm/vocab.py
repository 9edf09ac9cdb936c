"""WordPiece-style vocabulary learned from a corpus.

BERT's tokeniser splits unknown words into subword pieces from a vocabulary
learned on the pre-training corpus.  We learn ours the classic way: start
from characters and repeatedly merge the most frequent adjacent symbol pair
(BPE), recording merged symbols as vocabulary pieces.  Word-internal pieces
carry the ``##`` continuation prefix exactly as in BERT.

Special tokens (fixed ids, referenced across the codebase):

====== ====
[PAD]  0
[UNK]  1
[CLS]  2
[SEP]  3
[MASK] 4
====== ====
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN]


#: Key under which a trie node stores the id of the piece ending there.
#: Children are keyed by single characters, so the empty string never
#: collides with a child edge.
_TRIE_PIECE = ""


def _trie_insert(root: dict, text: str, piece_id: int) -> None:
    node = root
    for char in text:
        node = node.setdefault(char, {})
    node[_TRIE_PIECE] = piece_id


def trie_longest_match(root: dict, word: str, start: int) -> tuple[int, int]:
    """Longest vocabulary piece starting at ``word[start:]``.

    Returns ``(end, piece_id)`` where ``end`` is the exclusive end index of
    the longest matching piece, or ``(-1, -1)`` when no piece matches.  A
    single left-to-right walk replaces the O(L^2) shrinking-substring probe
    of greedy WordPiece: the last node carrying a piece id on the path is,
    by construction, the longest match.
    """
    node = root
    best_end = -1
    best_id = -1
    for index in range(start, len(word)):
        node = node.get(word[index])
        if node is None:
            break
        piece_id = node.get(_TRIE_PIECE)
        if piece_id is not None:
            best_end = index + 1
            best_id = piece_id
    return best_end, best_id


class WordPieceVocab:
    """An ordered token -> id mapping with BERT-style special tokens."""

    def __init__(self, tokens: Sequence[str]) -> None:
        for index, special in enumerate(SPECIAL_TOKENS):
            if index >= len(tokens) or tokens[index] != special:
                raise ValueError(f"vocabulary must start with {SPECIAL_TOKENS}")
        self.tokens: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {token: i for i, token in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        #: Prefix tries for longest-match WordPiece, built lazily: one over
        #: every token verbatim (word-initial positions) and one over the
        #: ``##``-stripped continuation pieces (word-internal positions).
        self._initial_trie: dict | None = None
        self._continuation_trie: dict | None = None

    @property
    def initial_trie(self) -> dict:
        """Trie over all tokens verbatim, for matches at word start."""
        if self._initial_trie is None:
            root: dict = {}
            for piece_id, token in enumerate(self.tokens):
                _trie_insert(root, token, piece_id)
            self._initial_trie = root
        return self._initial_trie

    @property
    def continuation_trie(self) -> dict:
        """Trie over ``##``-prefixed tokens (stripped), for internal matches."""
        if self._continuation_trie is None:
            root = {}
            for piece_id, token in enumerate(self.tokens):
                if token.startswith("##") and len(token) > 2:
                    _trie_insert(root, token[2:], piece_id)
            self._continuation_trie = root
        return self._continuation_trie

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, self.token_to_id[UNK_TOKEN])

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK_TOKEN]

    @property
    def cls_id(self) -> int:
        return self.token_to_id[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self.token_to_id[SEP_TOKEN]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK_TOKEN]

    def special_ids(self) -> set[int]:
        return {self.token_to_id[token] for token in SPECIAL_TOKENS}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.tokens))

    @classmethod
    def load(cls, path: str | Path) -> "WordPieceVocab":
        return cls(json.loads(Path(path).read_text()))


def _word_to_symbols(word: str) -> tuple[str, ...]:
    """Initial symbol sequence of a word: first char bare, rest ``##``-prefixed."""
    return tuple([word[0]] + [f"##{ch}" for ch in word[1:]])


def build_vocab(
    corpus: Iterable[Sequence[str]],
    target_size: int = 2000,
    min_word_frequency: int = 1,
) -> WordPieceVocab:
    """Learn a WordPiece vocabulary of about ``target_size`` tokens via BPE.

    The vocabulary always contains the special tokens and every character
    (bare and continuation form) seen in the corpus, so tokenisation of any
    in-alphabet word never fails; merges then add frequent multi-character
    pieces until ``target_size`` is reached or no pair repeats.
    """
    word_frequency: Counter = Counter()
    for sentence in corpus:
        word_frequency.update(sentence)
    words = {
        word: freq
        for word, freq in word_frequency.items()
        if freq >= min_word_frequency and word
    }

    # Base alphabet.
    alphabet: set[str] = set()
    for word in words:
        symbols = _word_to_symbols(word)
        alphabet.update(symbols)
    pieces: list[str] = sorted(alphabet)

    # Iterative BPE merges over the word frequency table.
    segmentations: dict[str, list[str]] = {word: list(_word_to_symbols(word)) for word in words}
    budget = max(0, target_size - len(SPECIAL_TOKENS) - len(pieces))
    merged_pieces: list[str] = []
    # A merge can spell a piece that already exists (``#`` + ``###`` ->
    # ``##``, then ``##`` + ``##1`` -> ``##1``); the segmentations still take
    # it, but the token list keeps one copy.
    known = set(SPECIAL_TOKENS) | alphabet
    for _ in range(budget):
        pair_frequency: Counter = Counter()
        for word, symbols in segmentations.items():
            freq = words[word]
            for left, right in zip(symbols, symbols[1:]):
                pair_frequency[(left, right)] += freq
        if not pair_frequency:
            break
        (left, right), best_freq = pair_frequency.most_common(1)[0]
        if best_freq < 2:
            break
        merged = left + right.removeprefix("##")
        if merged not in known:
            known.add(merged)
            merged_pieces.append(merged)
        for word, symbols in segmentations.items():
            if len(symbols) < 2:
                continue
            rebuilt: list[str] = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                    rebuilt.append(merged)
                    i += 2
                else:
                    rebuilt.append(symbols[i])
                    i += 1
            segmentations[word] = rebuilt

    tokens = SPECIAL_TOKENS + pieces + merged_pieces
    return WordPieceVocab(tokens)
