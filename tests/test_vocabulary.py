"""The Vocabulary constructor and framing against a plain per-word reference."""

import numpy as np
import pytest

import classlm as cl
from classlm.vocabulary import RESERVED, SENTENCE_END, SENTENCE_START, UNKNOWN, frame_sentences

import support

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class ReferenceVocabulary:
    """The constructor as a loop over every word, and framing by one
    ``id_of`` call per token."""

    def __init__(self, words, counts=None):
        self.words = list(RESERVED)
        seen = set(self.words)
        for w in words:
            if w in seen:
                if w in RESERVED:
                    continue
                raise ValueError(f"duplicate word {w!r}")
            self.words.append(w)
            seen.add(w)
        self.ids = {w: i for i, w in enumerate(self.words)}
        self.counts = [0] * len(self.words)
        if counts:
            for w, c in counts.items():
                if c < 0:
                    raise ValueError(f"negative count for {w!r}")
                if w in self.ids:
                    self.counts[self.ids[w]] = c

    def id_of(self, word):
        return self.ids.get(word, self.ids[UNKNOWN])

    def frame(self, tokens):
        ids = [self.ids[SENTENCE_START]]
        ids.extend(self.id_of(t) for t in tokens)
        ids.append(self.ids[SENTENCE_END])
        return ids


def _outcome(cls, words, counts):
    try:
        vocab = cls(words, counts)
    except ValueError as err:
        return ("error", str(err))
    return vocab.words, vocab.ids, vocab.counts


def test_duplicate_word_is_named():
    with pytest.raises(ValueError, match="duplicate word 'b'"):
        cl.Vocabulary(["a", "b", "c", "b", "a"])


def test_reserved_tokens_in_words_are_skipped():
    vocab = cl.Vocabulary(["a", UNKNOWN, "b", SENTENCE_START, SENTENCE_END, UNKNOWN])
    assert vocab.words == [*RESERVED, "a", "b"]
    assert vocab.ids == {w: i for i, w in enumerate(vocab.words)}


@pytest.mark.parametrize("word", ["a", "outside"])
def test_negative_count_raises_also_outside_the_vocabulary(word):
    with pytest.raises(ValueError, match=f"negative count for '{word}'"):
        cl.Vocabulary(["a", "b"], {"b": 2, word: -1})


def test_counts_of_unknown_words_are_ignored():
    vocab = cl.Vocabulary(["a", "b"], {"b": 2, "zzz": 7, SENTENCE_END: 5})
    assert vocab.counts == [0, 5, 0, 0, 2]


def test_no_counts_gives_zeros():
    assert cl.Vocabulary(["a", "b"]).counts == [0] * 5
    assert cl.Vocabulary(["a", "b"], {}).counts == [0] * 5


_WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", *RESERVED])


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(words=st.lists(_WORDS, max_size=12),
                  counts=st.none() | st.dictionaries(_WORDS | st.just("outside"),
                                                     st.integers(-1, 9), max_size=9))
def test_constructor_equals_reference(words, counts):
    assert _outcome(cl.Vocabulary, words, counts) == _outcome(ReferenceVocabulary, words,
                                                              counts)


def test_frame_equals_per_token_lookup():
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(20)]
    vocab = cl.Vocabulary(words)
    reference = ReferenceVocabulary(words)
    pool = [*words, *RESERVED, "oov", "OOV", ""]
    batch = [[pool[i] for i in rng.integers(len(pool), size=int(rng.integers(0, 15)))]
             for _ in range(200)]
    stream, lengths = frame_sentences(vocab, iter(batch))
    assert stream.dtype == lengths.dtype == np.int64
    assert lengths.tolist() == [len(tokens) for tokens in batch]
    assert stream.tolist() == [i for tokens in batch for i in reference.frame(tokens)]


def _table_outcome(words, counts):
    """A stored table read one entry at a time: the first repeated word,
    else the first negative count, is the error."""
    seen = set()
    for w in words:
        if w in seen:
            return ("error", f"duplicate word {w!r}")
        seen.add(w)
    for w, c in zip(words, counts):
        if c < 0:
            return ("error", f"negative count for {w!r}")
    return list(words), {w: i for i, w in enumerate(words)}, list(counts)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(rows=st.lists(st.tuples(_WORDS, st.integers(-1, 9)), max_size=10),
                  reserved_counts=st.lists(st.integers(0, 9), min_size=3, max_size=3))
def test_from_table_reads_the_stored_table(rows, reserved_counts):
    words = [*RESERVED, *[w for w, _ in rows]]
    counts = [*reserved_counts, *[c for _, c in rows]]
    try:
        vocab = cl.Vocabulary.from_table(words, counts)
        outcome = vocab.words, vocab.ids, vocab.counts
    except ValueError as err:
        outcome = ("error", str(err))
    assert outcome == _table_outcome(words, counts)


def test_from_table_needs_the_reserved_tokens_first():
    with pytest.raises(ValueError, match="does not start with the reserved tokens"):
        cl.Vocabulary.from_table([SENTENCE_START, UNKNOWN, SENTENCE_END, "a"], [0, 0, 0, 1])


def _reference_index(tokens, max_size):
    """The vocabulary counted word by word, ranked by a stable sort of the
    counts, and the tokens looked up one at a time."""
    counts = {}
    for t in tokens:
        if t not in RESERVED:
            counts[t] = counts.get(t, 0) + 1
    ranked = sorted(counts, key=lambda w: -counts[w])  # stable: first occurrence first
    if max_size is not None:
        ranked = ranked[: max_size - len(RESERVED)]
    vocab = cl.Vocabulary(ranked, counts)
    return vocab.words, vocab.counts, [support.id_of(vocab, t) for t in tokens]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(sentences=st.lists(st.lists(_WORDS, max_size=8), max_size=5)
                  .filter(lambda s: any(s)),
                  max_size=st.none() | st.integers(4, 8),
                  piece=st.integers(1, 5) | st.just(cl.vocabulary.PIECE_TOKENS))
def test_index_tokens_equals_a_vocabulary_and_a_lookup_per_token(sentences, max_size, piece):
    # few word types and short corpora: ties in frequency, reserved tokens
    # as text and one-token corpora are all common; small pieces put a
    # word's first occurrence and its later ones in different pieces
    tokens = [t for s in sentences for t in s]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cl.vocabulary, "PIECE_TOKENS", piece)
        vocab, stream = cl.vocabulary.index_tokens(iter(tokens), max_size)
        built = cl.build_vocabulary(sentences, max_size)
    assert stream.dtype == np.int64
    assert (vocab.words, vocab.counts, stream.tolist()) == _reference_index(tokens, max_size)
    assert (built.words, built.counts) == (vocab.words, vocab.counts)


@pytest.mark.parametrize("tokens", [["x"], [UNKNOWN], [SENTENCE_START, "x", SENTENCE_START]])
def test_index_tokens_of_tiny_corpora(tokens):
    vocab, stream = cl.vocabulary.index_tokens(tokens)
    assert stream.tolist() == [vocab.ids[t] for t in tokens]
    assert vocab.counts[: len(RESERVED)] == [0] * len(RESERVED)


def test_index_tokens_rejects_empty_corpora_before_a_bad_max_size():
    with pytest.raises(ValueError, match="^empty corpus$"):
        cl.vocabulary.index_tokens([], max_size=2)
    with pytest.raises(ValueError, match="max_size must be at least 4"):
        cl.vocabulary.index_tokens(["a"], max_size=3)


def _read_tokens(path):
    return [t for piece in cl.vocabulary.read_token_pieces(path) for t in piece]


def test_read_token_pieces_splits_on_every_whitespace(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a  b\tc\r\n\r\n d\x0be\n\nf")
    assert _read_tokens(path) == ["a", "b", "c", "d", "e", "f"]
    path.write_bytes(b"a\nb \xff\n")
    with pytest.raises(ValueError, match=r"line 2: invalid UTF-8$"):
        _read_tokens(path)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(text=st.lists(st.sampled_from(["a", "bc", "\u00e9", " ", "  ", "\t", "\n", "\r",
                                                 "\r\n", "\x0b", "\u2028"]), max_size=40)
                  .map("".join),
                  piece=st.integers(1, 9))
def test_token_pieces_are_the_tokens_of_one_split(tmp_path_factory, text, piece):
    # every piece size cuts tokens, whitespace runs and CRLF line ends
    path = tmp_path_factory.mktemp("pieces") / "corpus.txt"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cl.vocabulary, "PIECE_CHARS", piece)
        if not text.split():
            with pytest.raises(ValueError, match=f"^{path}: empty corpus$"):
                _read_tokens(path)
            return
        pieces = list(cl.vocabulary.read_token_pieces(path))
    assert [t for p in pieces for t in p] == path.read_text(encoding="utf-8").split()
    assert all(pieces)
