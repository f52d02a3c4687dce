"""Word/id bookkeeping with reserved boundary tokens.

Every vocabulary contains the reserved tokens ``<s>``, ``</s>`` and
``<unk>`` at ids 0, 1 and 2.  Sentences are framed internally as
``<s> w1 ... wn </s>``; ``<s>`` is input-only while ``</s>`` is a predicted
token, and any out-of-vocabulary word maps to ``<unk>``.
"""

from __future__ import annotations

import itertools
from collections import Counter

__all__ = ["RESERVED", "SENTENCE_START", "SENTENCE_END", "UNKNOWN", "Vocabulary", "build_vocabulary"]

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"
RESERVED = (SENTENCE_START, SENTENCE_END, UNKNOWN)


class Vocabulary:
    """Bidirectional word/id map with per-word corpus counts."""

    def __init__(self, words, counts=None):
        self._index([*RESERVED, *[w for w in words if w not in RESERVED]])
        counts = counts or {}
        _check_counts(counts.keys(), counts.values())
        self.counts = [counts.get(w, 0) for w in self.words]

    @classmethod
    def from_table(cls, words, counts):
        """The vocabulary stored as a table: `words` in id order, starting
        with the reserved tokens, and the parallel list of their `counts`.
        A word that occurs twice, the reserved tokens included, is an error."""
        if tuple(words[: len(RESERVED)]) != RESERVED:
            raise ValueError("vocabulary does not start with the reserved tokens")
        vocab = cls.__new__(cls)
        vocab._index(list(words))
        _check_counts(words, counts)
        vocab.counts = list(counts)
        return vocab

    def _index(self, words):
        self.words = words
        self.ids = dict(zip(words, range(len(words))))
        if len(self.ids) != len(words):
            seen = set()
            for w in words:
                if w in seen:
                    raise ValueError(f"duplicate word {w!r}")
                seen.add(w)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.ids

    @property
    def start_id(self):
        return self.ids[SENTENCE_START]

    @property
    def end_id(self):
        return self.ids[SENTENCE_END]

    @property
    def unk_id(self):
        return self.ids[UNKNOWN]

    def id_of(self, word):
        """Id of `word`, falling back to the unknown token."""
        return self.ids.get(word, self.ids[UNKNOWN])

    def word_of(self, word_id):
        return self.words[word_id]

    def frame(self, tokens):
        """Token ids for ``<s> tokens </s>`` with unknown-word fallback."""
        ids = self.ids
        unk = ids[UNKNOWN]
        return [ids[SENTENCE_START], *[ids.get(t, unk) for t in tokens], ids[SENTENCE_END]]


def _check_counts(words, counts):
    """Raise ValueError naming the first word whose count is negative."""
    if min(counts, default=0) < 0:
        w = next(w for w, c in zip(words, counts) if c < 0)
        raise ValueError(f"negative count for {w!r}")


def build_vocabulary(sentences, max_size=None):
    """Count words over an iterable of token lists and rank by frequency.

    With `max_size` set, the top ``max_size - 3`` words are kept (three slots
    go to the reserved tokens) and everything else falls back to ``<unk>``.
    Ties in frequency break by first occurrence in the corpus.
    """
    counts = Counter(itertools.chain.from_iterable(sentences))
    if not counts:
        raise ValueError("empty corpus")
    for tok in RESERVED:
        counts.pop(tok, None)

    # a Counter keeps first-occurrence order and reverse sorting is stable
    ranked = sorted(counts, key=counts.__getitem__, reverse=True)
    if max_size is not None:
        if max_size < len(RESERVED) + 1:
            raise ValueError(f"max_size must be at least {len(RESERVED) + 1}")
        ranked = ranked[: max_size - len(RESERVED)]
    return Vocabulary(ranked, counts)


def text_lines(path):
    """Yield the lines of a UTF-8 text file.

    Bytes that are not UTF-8 raise ValueError naming the file and the first
    line that holds them.
    """
    with open(path, encoding="utf-8") as f:
        try:
            yield from f
            return
        except UnicodeDecodeError:
            pass
    # no newline byte occurs inside a UTF-8 sequence, so some line fails alone
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: line {line_no}: invalid UTF-8") from None
    raise ValueError(f"{path}: invalid UTF-8")


def read_corpus(path):
    """Yield token lists from a one-sentence-per-line UTF-8 file."""
    for line in text_lines(path):
        tokens = line.split()
        if tokens:
            yield tokens
