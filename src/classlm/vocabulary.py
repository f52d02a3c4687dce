"""Word/id bookkeeping with reserved boundary tokens.

Every vocabulary contains the reserved tokens ``<s>``, ``</s>`` and
``<unk>`` at ids 0, 1 and 2.  :func:`frame_sentences`, which scoring and
training both use, frames sentences as ``<s> w1 ... wn </s>``; ``<s>`` is
input-only while ``</s>`` is a predicted token, and any out-of-vocabulary
word maps to ``<unk>``.

A corpus for the exchange algorithm is streamed: :func:`read_token_pieces`
reads a file in pieces of text, and :func:`index_tokens` codes any
iterable of tokens a piece at a time, so neither holds the corpus as text
or as a list of strings.

Every text input is read once with ``errors="surrogateescape"``, so
decoding never stops; :func:`invalid_utf8` finds the bytes that are not
UTF-8 in what was read, and a reader names the first line that holds any.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["RESERVED", "SENTENCE_START", "SENTENCE_END", "UNKNOWN", "Vocabulary", "build_vocabulary",
           "frame_sentences", "index_tokens", "read_token_pieces"]

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"
RESERVED = (SENTENCE_START, SENTENCE_END, UNKNOWN)

# Tokens that `index_tokens` codes at once, and characters of text that
# `read_token_pieces` splits at once; a token is a Python string of about
# 60 bytes while it is held.
PIECE_TOKENS = 1 << 13
PIECE_CHARS = 1 << 16


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

    `tokens` may be any iterable; it is coded `PIECE_TOKENS` tokens at a
    time into 4-byte codes numbered in order of first occurrence, so an
    iterator's tokens are never all held: memory is a piece of tokens, the
    words and 12 bytes a token (the codes and the ids).
    """
    tokens = iter(tokens)
    code_of = {}
    pieces = []
    while piece := list(itertools.islice(tokens, PIECE_TOKENS)):
        codes = np.fromiter(map(code_of.get, piece, itertools.repeat(-1, len(piece))),
                            dtype=np.int32, count=len(piece))
        # the tokens of words first seen in this piece, in order
        missing = codes < 0
        unseen = list(map(piece.__getitem__, np.flatnonzero(missing).tolist()))
        code_of.update(zip(dict.fromkeys(unseen), itertools.count(len(code_of))))
        codes[missing] = np.fromiter(map(code_of.__getitem__, unseen), dtype=np.int32,
                                       count=len(unseen))
        pieces.append(codes)
    words = list(code_of)  # first-occurrence order
    if not words:
        raise ValueError("empty corpus")
    if max_size is not None and max_size < len(RESERVED) + 1:
        raise ValueError(f"max_size must be at least {len(RESERVED) + 1}")
    codes = np.concatenate(pieces)
    del pieces  # before the ids are made: 12 bytes a token at most
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


def invalid_utf8(text):
    """Whether `text`, read with ``errors="surrogateescape"``, holds bytes
    that are not UTF-8.  Each such byte reads as a lone surrogate, U+DC80
    to U+DCFF, which valid UTF-8 never decodes to; only text that is not
    ASCII, an O(1) test, is encoded to look for one."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return True
    return False


def text_lines(path):
    """Yield the lines of a UTF-8 text file.

    The file is read once, its line ends translated as text mode does, in
    batches of about `PIECE_CHARS` characters, each checked with one
    :func:`invalid_utf8` call.  A line that holds bytes that are not UTF-8
    raises ValueError naming the file and the line, once every line before
    it has been yielded, so a reader that checks each line names the first
    failing line of either kind.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        first = 1  # the number of a batch's first line
        while lines := f.readlines(PIECE_CHARS):
            if invalid_utf8("".join(lines)):  # only a failing batch is walked line by line
                bad = next(i for i, line in enumerate(lines) if invalid_utf8(line))
                yield from lines[:bad]
                raise ValueError(f"{path}: line {first + bad}: invalid UTF-8")
            yield from lines
            first += len(lines)


def read_token_pieces(path):
    """Yield the tokens of a UTF-8 text file in lists, one for each piece of
    `PIECE_CHARS` characters, so the text is never held whole.

    Line ends separate tokens like any other whitespace, so the text is one
    unframed stream; a token that a piece's end cuts goes with the next
    piece.  A file without a token raises ValueError ``PATH: empty
    corpus``, and bytes that are not UTF-8 raise ValueError naming the first
    line that holds them, found by reading the file again through
    `text_lines`, line by line.
    """
    found = False
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        cut = ""
        while text := f.read(PIECE_CHARS):
            if invalid_utf8(text):
                for _ in text_lines(path):  # raises at the first line that is not UTF-8
                    pass
                raise ValueError(f"{path}: invalid UTF-8")  # the file changed while read
            tokens = (cut + text).split()
            cut = tokens.pop() if tokens and not text[-1].isspace() else ""
            if tokens:
                found = True
                yield tokens
    if cut:
        yield [cut]
    elif not found:
        raise ValueError(f"{path}: empty corpus")


def read_corpus(path):
    """Yield token lists from a one-sentence-per-line UTF-8 file."""
    for line in text_lines(path):
        tokens = line.split()
        if tokens:
            yield tokens
