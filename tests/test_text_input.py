"""Every text reader against one rule: bytes that are not UTF-8 end the read
with one error naming the first line that a strict per-line decode rejects,
and finding that line holds no more of the file than the read does."""

import collections
import logging
import re
import tracemalloc

import numpy as np
import pytest

import classlm as cl
from classlm.cli import main
from classlm.vocabulary import read_token_pieces, text_lines

import support

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _consume(iterable):
    collections.deque(iterable, maxlen=0)


def _traced_peak(call):
    """The tracemalloc peak of `call()` in bytes, and its ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            call()
        return tracemalloc.get_traced_memory()[1], str(err.value)
    finally:
        tracemalloc.stop()


def _write_bad_last_line(path, lines):
    path.write_bytes(b"u1 -1.5 -2.5 w1 w2 caf\xc3\xa9 w3\n" * lines + b"u2 -1 -2 w1 \xff\n")


@pytest.mark.parametrize("read", [lambda path: _consume(text_lines(path)),
                                  lambda path: _consume(read_token_pieces(path))],
                         ids=["text_lines", "read_token_pieces"])
def test_a_late_invalid_byte_is_named_in_bounded_memory(tmp_path, read):
    # the peak of reading 4x the lines before the bad one stays that of
    # reading 1x: neither the file nor its lines are held to name the line
    peaks = []
    for lines in (8_000, 32_000):
        path = tmp_path / f"{lines}.txt"
        _write_bad_last_line(path, lines)
        peak, message = _traced_peak(lambda: read(path))
        assert message == f"{path}: line {lines + 1}: invalid UTF-8"
        peaks.append(peak)
    assert peaks[1] < peaks[0] + (64 << 10), peaks


def test_the_n_best_error_path_reads_nothing_again(tmp_path, monkeypatch):
    # the n-best reader holds its lines; naming the bad one walks them and
    # allocates next to nothing, whatever the file's size
    extra = []
    raise_error = cl.rescoring._raise_nbest_error

    def measured(*args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            raise_error(*args)
        finally:
            extra.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(cl.rescoring, "_raise_nbest_error", measured)
    for lines in (2_000, 8_000):
        path = tmp_path / f"{lines}.txt"
        _write_bad_last_line(path, lines)
        _, message = _traced_peak(lambda: cl.read_nbest_file(path))
        assert message == f"{path}: line {lines + 1}: invalid UTF-8"
    assert max(extra) < 16 << 10, extra


# pieces of lines: ASCII, non-ASCII UTF-8 (U+2028 is whitespace to str.split
# but no line end to text mode), and bytes that are not UTF-8: a stray
# continuation byte, an encoded surrogate and an overlong "/"
GOOD = [b"", b" w", b"\tw", "\u00e9".encode(), "\u00e4".encode(), "\u2028".encode(),
        "\u20ac".encode()]
BAD = [b"\xff", b"\xed\xa0\x80", b"\xc0\xaf"]
ENDS = [b"\n", b"\r\n", b"\r"]
# the first byte or two of a character that the file's end cuts
CUT = [b"", b"\xc3", b"\xe2\x82"]


@st.composite
def text_files(draw):
    """The bytes of a text file whose lines are n-best, reference and
    corpus lines at once (``u<i> -1 -2 w...``), some malformed or blank,
    some with bytes that are not UTF-8, with every kind of line end."""
    lines = []
    for i in range(draw(st.integers(0, 8))):
        head = draw(st.sampled_from([f"u{i} -1 -2 w".encode(), b"u", b""]))
        tail = draw(st.lists(st.sampled_from(GOOD + BAD * draw(st.booleans())), max_size=4))
        lines.append(head + b"".join(tail) + draw(st.sampled_from(ENDS)))
    return b"".join(lines) + draw(st.sampled_from(CUT))


def _first_invalid_line(data):
    """The number of the first line that does not decode as UTF-8, lines split
    at "\\n", "\\r\\n" and "\\r", or None."""
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return None


def _lines(data):
    """The lines of valid UTF-8 `data` as text mode yields them."""
    return [line.rstrip(b"\r\n").decode() + "\n" * line.endswith((b"\n", b"\r"))
            for line in data.splitlines(keepends=True)]


READERS = {
    "text_lines": lambda path: list(text_lines(path)),
    "read_token_pieces": lambda path: [t for piece in read_token_pieces(path) for t in piece],
    "read_corpus": lambda path: list(cl.read_corpus(path)),
    "read_nbest_file": cl.read_nbest_file,
    "read_reference_file": cl.read_reference_file,
    "load_class_file": cl.load_class_file,
}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=text_files(), piece=st.integers(1, 5) | st.just(cl.vocabulary.PIECE_CHARS))
def test_every_reader_names_the_first_line_a_strict_decode_rejects(tmp_path_factory, data,
                                                                   piece):
    # small pieces put a piece's end inside multibyte characters' lines
    path = tmp_path_factory.getbasetemp() / "text.txt"
    path.write_bytes(data)
    bad = _first_invalid_line(data)
    for name, read in READERS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cl.vocabulary, "PIECE_CHARS", piece)
            try:
                result = read(path)
            except ValueError as err:
                message = str(err)
            else:
                assert bad is None, name
                if name == "text_lines":
                    assert result == _lines(data)
                if name == "read_token_pieces":
                    assert result == data.decode().split()
                continue
        assert message.startswith(f"{path}: "), (name, message)
        named = re.match(r"line (\d+): ", message[len(f"{path}: "):])
        if message.endswith("invalid UTF-8"):
            assert bad is not None and message == f"{path}: line {bad}: invalid UTF-8", name
        elif bad is not None:
            # a line before the first that is not UTF-8 fails another check
            assert named and int(named.group(1)) < bad, (name, message)
        if name in ("text_lines", "read_token_pieces") and bad is None:
            assert name == "read_token_pieces" and message == f"{path}: empty corpus"


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "random.clm"
    cl.save_model(path, support.random_class_network(np.random.default_rng(0),
                                                     vocab_size=6, num_classes=3))
    return path


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@hypothesis.settings(max_examples=12, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=text_files().filter(lambda data: _first_invalid_line(data) is not None),
                  command=st.sampled_from(["classes", "score", "rescore"]))
def test_the_command_line_reports_invalid_utf8_in_one_line(tmp_path_factory, model, data,
                                                          command):
    work = tmp_path_factory.getbasetemp()
    path = work / "bad.txt"
    path.write_bytes(data)
    argv = {"classes": ["classes", "--corpus", str(path), "--num-classes", "2",
                        "--output", str(work / "classes.tsv")],
            "score": ["score", "--model", str(model), "--input", str(path),
                      "--output", str(work / "scores.txt")],
            "rescore": ["rescore", "--model", str(model), "--nbest", str(path),
                        "--output", str(work / "ranked.txt")]}[command]
    errors = _Errors()
    logger = logging.getLogger("classlm")
    logger.addHandler(errors)
    try:
        assert main(argv) == 1
    finally:
        logger.removeHandler(errors)
    [record] = errors.records
    assert record.exc_info is None and "\n" not in record.getMessage()
    assert record.getMessage().startswith(f"{path}: line ")
