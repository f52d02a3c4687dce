"""The seeded end-to-end run of tools/byte_identity.py is deterministic and
covers a sparse class bigram table."""

import subprocess
import sys
from pathlib import Path

import numpy as np

import classlm as cl
from classlm.classing import BigramStats
from classlm.scoring import MAX_STEP_ROWS
from classlm.vocabulary import RESERVED, read_corpus

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"


def test_two_runs_print_the_same_digests(tmp_path):
    # the digests depend on the numpy/BLAS build, so they are compared, not pinned
    outs = [tmp_path / "a", tmp_path / "b"]
    runs = [subprocess.Popen([sys.executable, str(TOOL), str(out)], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for out in outs]
    try:
        results = [run.communicate(timeout=120) + (run.returncode,) for run in runs]
    finally:
        for run in runs:
            run.kill()
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
    # the last outputs score a trie level wider than one step
    chunked = {f"{arch}-{precision}.score-chunked" for arch in ("lstm", "gru")
               for precision in ("double", "single")}
    assert names[-len(chunked) - 1:] == ["chunked.txt", *sorted(chunked, key=names.index)]
    assert chunked <= set(names)
    assert _widest_level(outs[0], "chunked.txt", "lstm-double.clm") > MAX_STEP_ROWS


def _widest_level(out, corpus, model):
    """Rows of the widest level of the prefix trie the model scores the
    corpus sentences on: its most distinct id prefixes of one length."""
    vocab = cl.load_model(out / model)[0].vocab
    ids = [[vocab.ids.get(w, vocab.unk_id) for w in sentence]
           for sentence in read_corpus(out / corpus)]
    return max(len({tuple(s[:t]) for s in ids if len(s) >= t})
               for t in range(1, max(map(len, ids)) + 1))


def _class_table_fill(out, corpus, class_file):
    """Share of nonzero cells in the class bigram table of a class run,
    over the classes of corpus words (reserved tokens never occur)."""
    vocab, classmap = cl.load_class_file(out / class_file)
    sentences = list(read_corpus(out / corpus))
    stream = [vocab.ids[w] for sentence in sentences for w in sentence]
    k = classmap.num_classes - len(RESERVED)
    table = BigramStats(stream, classmap).class_bigrams[:k, :k]
    return np.count_nonzero(table) / table.size
