"""Word/id bookkeeping with reserved boundary tokens.

Every vocabulary contains the reserved tokens ``<s>``, ``</s>`` and
``<unk>`` at ids 0, 1 and 2.  :func:`frame_sentences`, which scoring and
training both use, frames sentences as ``<s> w1 ... wn </s>``; ``<s>`` is
input-only while ``</s>`` is a predicted token, and any out-of-vocabulary
word maps to ``<unk>``.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["RESERVED", "SENTENCE_START", "SENTENCE_END", "UNKNOWN", "Vocabulary", "build_vocabulary",
           "frame_sentences", "index_tokens", "read_tokens"]

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


def _check_counts(words, counts):
    """Raise ValueError naming the first word whose count is negative."""
    if min(counts, default=0) < 0:
        w = next(w for w, c in zip(words, counts) if c < 0)
        raise ValueError(f"negative count for {w!r}")


def frame_sentences(vocab, sentences):
    """Every sentence framed as ``<s> w1 ... wn </s>``, one after another in
    one unpadded int64 id stream with one vocabulary lookup per token, and
    each sentence's word count; an empty sentence frames as ``<s> </s>``."""
    tokens, words = [], []
    for sentence in sentences:
        before = len(tokens)
        tokens.extend(sentence)
        words.append(len(tokens) - before)
    words = np.array(words, dtype=np.int64)
    ends = np.cumsum(words + 2)  # one past each sentence's </s>
    stream = np.full(len(tokens) + 2 * len(words), vocab.start_id, dtype=np.int64)
    stream[ends - 1] = vocab.end_id
    is_word = np.ones(len(stream), dtype=bool)
    is_word[ends - 1] = is_word[ends - words - 2] = False
    stream[is_word] = np.fromiter(
        map(vocab.ids.get, tokens, itertools.repeat(vocab.unk_id, len(tokens))),
        dtype=np.int64, count=len(tokens))
    return stream, words


def build_vocabulary(sentences, max_size=None):
    """Count words over an iterable of token lists and rank by frequency:
    the vocabulary of `index_tokens` over their tokens."""
    return index_tokens(itertools.chain.from_iterable(sentences), max_size)[0]


def index_tokens(tokens, max_size=None):
    """The vocabulary of a token sequence and the sequence as ids, in one pass.

    Words rank by count, and ties break by first occurrence.  The reserved
    tokens stay outside the ranking: one that occurs in the text keeps its
    id and a count of zero.  With `max_size` set, the top ``max_size - 3``
    words are kept (three slots go to the reserved tokens) and every other
    token maps to ``<unk>``.  Returns ``(vocab, stream)``, `stream` the
    int64 array of the tokens' ids.
    """
    tokens = tokens if isinstance(tokens, list) else list(tokens)
    words = list(dict.fromkeys(tokens))  # first-occurrence order
    if not words:
        raise ValueError("empty corpus")
    if max_size is not None and max_size < len(RESERVED) + 1:
        raise ValueError(f"max_size must be at least {len(RESERVED) + 1}")
    code_of = dict(zip(words, range(len(words))))
    codes = np.fromiter(map(code_of.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    counts = np.bincount(codes, minlength=len(words))

    # the code of each reserved token in the text -> its id
    reserved = {code_of[tok]: i for i, tok in enumerate(RESERVED) if tok in code_of}
    unreserved = np.ones(len(words), dtype=bool)
    unreserved[list(reserved)] = False
    ranked = np.flatnonzero(unreserved)
    # a stable sort keeps first-occurrence order among equal counts
    ranked = ranked[np.argsort(-counts[ranked], kind="stable")]
    if max_size is not None:
        ranked = ranked[: max_size - len(RESERVED)]
    id_of = np.full(len(words), RESERVED.index(UNKNOWN))
    id_of[list(reserved)] = list(reserved.values())
    id_of[ranked] = np.arange(len(RESERVED), len(RESERVED) + ranked.size)
    vocab = Vocabulary.from_table([*RESERVED, *map(words.__getitem__, ranked.tolist())],
                                  [0] * len(RESERVED) + counts[ranked].tolist())
    return vocab, id_of[codes]


def text_lines(path):
    """Yield the lines of a UTF-8 text file.

    Bytes that are not UTF-8 raise ValueError naming the file and the first
    line that holds them, once every line before it has been yielded, so a
    reader that checks each line names the first failing line of either
    kind, wherever the decoder's read-ahead blocks end.
    """
    yielded = 0
    with open(path, encoding="utf-8") as f:
        try:
            for line in f:
                yield line
                yielded += 1
            return
        except UnicodeDecodeError:
            pass
    yield from itertools.islice(_decoded_lines(path), yielded, None)


def _decoded_lines(path):
    """Yield the lines of `path` as text mode reads them, each decoded on
    its own, up to the first that is not UTF-8, which raises ValueError
    naming it."""
    with open(path, "rb") as f:
        data = f.read()
    # bytes split at "\n", "\r\n" and "\r" only, the universal newlines of
    # text mode; no line end byte occurs inside a UTF-8 sequence
    for line_no, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: line {line_no}: invalid UTF-8") from None
        body = text.rstrip("\r\n")
        yield body + "\n" if len(body) < len(text) else text
    raise ValueError(f"{path}: invalid UTF-8")


def read_tokens(path):
    """Every token of a UTF-8 text file as one list: line ends separate
    tokens like any other whitespace, so the text is one unframed stream."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().split()
    except UnicodeDecodeError:
        for _ in _decoded_lines(path):  # raises at the first line that is not UTF-8
            pass


def read_corpus(path):
    """Yield token lists from a one-sentence-per-line UTF-8 file."""
    for line in text_lines(path):
        tokens = line.split()
        if tokens:
            yield tokens
