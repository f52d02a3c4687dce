"""The columnar n-best reader against the line-at-a-time reference reader
on generated files."""

import pytest

import classlm as cl

import support

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# scores that float() reads as finite numbers, some in forms numpy's own
# string parsing reads differently or not at all
FINITE = ["-12.25", "0", "1_0", "+.5", "-0.0", "1e3", "-3.5E-2", "١٢",
          "-1.7976931348623157e308", "5e-324"]
# scores that must be rejected: not numbers, or not finite
REJECTED = ["0x10", "nan", "-NaN", "inf", "-Infinity", "1e400", "-1e999", "x", "1__0", "_1"]
GAPS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\u2028", "\x1e"]
ENDS = ["\n", "\r\n", "\r"]


@st.composite
def nbest_files(draw):
    """The bytes of an n-best file: hypothesis lines of a few interleaved
    utterances, blank and whitespace-only lines, assorted whitespace and
    line ends; with `bad` set, also short lines and rejected scores, and
    perhaps a line that is not UTF-8."""
    bad = draw(st.booleans())
    finite = st.one_of(st.sampled_from(FINITE),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
    score = st.one_of(finite, st.sampled_from(REJECTED)) if bad else finite
    hyp = st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]), score, score,
                    st.lists(st.sampled_from(["a", "b", "c", "<unk>"]), min_size=1, max_size=4))
    row = st.one_of(hyp.map(lambda h: [h[0], h[1], h[2], *h[3]]),
                    st.lists(st.sampled_from(["u0", "1.5", "a"]), max_size=3 if bad else 0))
    lines = []
    for parts in draw(st.lists(row, max_size=12)):
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        text = lead + "".join(p + draw(st.sampled_from(GAPS)) for p in parts[:-1])
        lines.append((text + (parts[-1] if parts else "")).encode()
                     + draw(st.sampled_from(ENDS)).encode())
    if bad and lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), b"u0 -1 -2 \xff\n")
    return b"".join(lines)


def _read(reader, path):
    try:
        return reader(path)
    except ValueError as err:
        return str(err)


def _same(a, b):
    """Equal messages, or equal NBest tables, the float columns bit for bit."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (a.utterances == b.utterances and a.tokens == b.tokens
            and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in ((a.counts, b.counts), (a.acoustic, b.acoustic),
                                 (a.backoff, b.backoff))))


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(nbest_files())
def test_reader_equals_the_line_reader(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "nbest.txt"
    path.write_bytes(blob)
    new, old = _read(cl.read_nbest_file, path), _read(support.read_nbest_lines, path)
    assert _same(new, old), (new, old)

