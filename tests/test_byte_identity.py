"""The seeded end-to-end run of tools/byte_identity.py is deterministic,
covers a sparse class bigram table, and prints the digests pinned in
tests/data/byte_identity.txt.

The pinned file holds the tool's lines under the build that printed them:
the numpy and Python versions, the BLAS that numpy was built with, and the
core OpenBLAS chose at run time, whose kernels decide the bits.  On another
build the pinned comparison is skipped, naming the build it found.  A new
output of the tool appends its line to the file; an existing line changes
only with a change to what the program is meant to output.
"""

import ctypes
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import classlm as cl
from classlm.classing import BLOCK_CELLS, BigramStats
from classlm.network import MAX_STEP_ROWS
from classlm.vocabulary import PIECE_CHARS, PIECE_TOKENS, RESERVED, read_corpus

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"
PINNED = Path(__file__).resolve().parent / "data" / "byte_identity.txt"
BUILD = "# build: "  # the prefix of a fingerprint line in the pinned file


def _openblas_core():
    """The core whose kernels OpenBLAS runs, as the library names it; the
    configuration string numpy reports names the core of the machine that
    built it."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(handle, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unreported"


def build_fingerprint():
    """The lines naming the numpy, Python and BLAS build of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"numpy {np.__version__}", f"python {platform.python_version()}",
            f"blas {blas.get('name')} {blas.get('version')}",
            f"openblas configuration {blas.get('openblas configuration')}",
            f"openblas core {_openblas_core()}"]


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The output directories and results of two concurrent runs of the tool."""
    tmp_path = tmp_path_factory.mktemp("byte_identity")
    outs = [tmp_path / "a", tmp_path / "b"]
    runs = [subprocess.Popen([sys.executable, str(TOOL), str(out)], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for out in outs]
    try:
        results = [run.communicate(timeout=120) + (run.returncode,) for run in runs]
    finally:
        for run in runs:
            run.kill()
    return outs, results


def test_two_runs_print_the_same_digests(two_runs):
    outs, results = two_runs
    for stdout, stderr, rc in results:
        assert rc == 0, stderr
    assert results[0][0] == results[1][0]
    lines = results[0][0].splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(names) == len(set(names)) >= 40
    for line, name in zip(lines, names):
        assert len(line.split("  ", 1)[0]) == 64
        assert all((out / name).is_file() for out in outs)
    suffixes = {name.rsplit(".", 1)[-1] for name in names}
    assert {"clm", "score", "score-unk0", "rescore", "rescore-lambda0", "rescore-tuned",
            "sample"} <= suffixes
    assert {"classes.tsv", "classes-sparse.tsv", "classes-messy.tsv"} <= set(names)
    assert {f"{arch}-double.sample" for arch in ("lstm", "gru", "skip")} <= set(names)
    # the first class table is nearly full, the second mostly empty
    assert _class_table_fill(outs[0], "train.txt", "classes.tsv") > 0.9
    assert _class_table_fill(outs[0], "sparse.txt", "classes-sparse.tsv") < 0.1
    # the outputs before the stopping model score a trie level wider than one step
    chunked, grouped = ({f"{arch}-{precision}.score-{kind}" for arch in ("lstm", "gru")
                         for precision in ("double", "single")} for kind in ("chunked", "grouped"))
    stop = names.index("lstm-double-sgd-stop.clm")
    assert names[stop - len(chunked) - 1:stop] == ["chunked.txt",
                                                   *sorted(chunked, key=names.index)]
    assert chunked <= set(names)
    assert _widest_level(outs[0], "chunked.txt", "lstm-double.clm") > MAX_STEP_ROWS
    # then a model whose validations anneal and stop training mid-epoch
    assert names[stop:stop + 2] == ["lstm-double-sgd-stop.clm", "lstm-double-sgd-stop.score"]
    training = cl.load_model(outs[0] / names[stop])[1]
    assert [scale for _, _, scale in training["history"]] == [1.0, 0.5, 0.25]
    assert training["stopped_reason"] == "patience exceeded"
    # then an input scored in three groups or more, one around a long sentence
    assert names[stop + 2:stop + 3 + len(grouped)] == ["grouped.txt",
                                                       *sorted(grouped, key=names.index)]
    assert grouped <= set(names)
    sizes = _group_sizes(outs[0] / "grouped.txt")
    assert len(sizes) >= 3 and 1 < min(sizes) < 100
    # then classes of a corpus read in several pieces, with blocks summed in tiles
    zipf = stop + 3 + len(grouped)
    assert names[zipf:zipf + 2] == ["zipf.txt", "classes-zipf.tsv"]
    corpus = outs[0] / "zipf.txt"
    assert corpus.stat().st_size > PIECE_CHARS
    assert len(corpus.read_text(encoding="utf-8").split()) > PIECE_TOKENS
    assert _largest_block(outs[0], "zipf.txt", "classes-zipf.tsv") > BLOCK_CELLS
    # last, a corpus that is not ASCII, with every kind of line end, classed and scored
    assert names[zipf + 2:] == ["non-ascii.txt", "classes-non-ascii.tsv",
                                "lstm-double.score-non-ascii", "gru-double.score-non-ascii"]
    text = (outs[0] / "non-ascii.txt").read_bytes()
    assert not text.isascii() and "\u2028".encode() in text
    assert b"\r\n" in text and re.search(rb"\r[^\n]", text) and re.search(rb"[^\r]\n", text)


def test_the_digests_equal_the_pinned_ones_on_the_pinned_build(two_runs):
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    pinned_build = [line[len(BUILD):] for line in lines if line.startswith(BUILD)]
    found = build_fingerprint()
    if found != pinned_build:
        pytest.skip(f"digests pinned on {'; '.join(pinned_build)}; this build is"
                    f" {'; '.join(found)}")
    stdout, stderr, rc = two_runs[1][0]
    assert rc == 0, stderr
    assert stdout.splitlines() == [line for line in lines if not line.startswith("#")]


def _group_sizes(corpus):
    """The sentences of each group that ``score`` reads the corpus in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cl.scoring, "score_arrays", lambda network, group, policy: cl.ScoreArrays(
            *[np.zeros(len(group))] * 5))
        return [len(group) for group, _, _ in cl.scoring.score_groups(None, read_corpus(corpus))]


def _widest_level(out, corpus, model):
    """Rows of the widest level of the prefix trie the model scores the
    corpus sentences on: its most distinct id prefixes of one length."""
    vocab = cl.load_model(out / model)[0].vocab
    ids = [[vocab.ids.get(w, vocab.unk_id) for w in sentence]
           for sentence in read_corpus(out / corpus)]
    return max(len({tuple(s[:t]) for s in ids if len(s) >= t})
               for t in range(1, max(map(len, ids)) + 1))


def _largest_block(out, corpus, class_file):
    """Cells of the widest block a visit gathers under the final classes of
    a class run: the most neighbour classes of one word (its own apart)
    times the class count."""
    stats = _final_stats(out, corpus, class_file)
    widest = 0
    for w in np.flatnonzero(stats.word_counts).tolist():
        s, p, _, _, _ = stats._transition_mass(w)
        own = stats.class_of[w]
        widest = max(widest, np.count_nonzero(s) - bool(s[own]) + np.count_nonzero(p)
                     - bool(p[own]))
    return widest * stats.num_classes


def _final_stats(out, corpus, class_file):
    """The exchange statistics of the corpus under the classes of a class run."""
    vocab, classmap = cl.load_class_file(out / class_file)
    sentences = list(read_corpus(out / corpus))
    return BigramStats([vocab.ids[w] for sentence in sentences for w in sentence], classmap)


def _class_table_fill(out, corpus, class_file):
    """Share of nonzero cells in the class bigram table of a class run,
    over the classes of corpus words (reserved tokens never occur)."""
    stats = _final_stats(out, corpus, class_file)
    k = stats.num_classes - len(RESERVED)
    table = stats.class_bigrams[:k, :k]
    return np.count_nonzero(table) / table.size
