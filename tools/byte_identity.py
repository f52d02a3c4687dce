"""Run every subcommand on seeded inputs and print a digest of each output.

Usage: python tools/byte_identity.py OUT_DIR

The run writes a seeded Markov corpus (seed 11) and induces 8 word classes
on it, then 150 classes on a second corpus of 300 word types (a class
bigram table with under a tenth of its cells filled, as with many classes
on real text).  It trains three architectures in double and single
precision with the default optimizer, each also at a batch size of 13 (no
multiple of the 8-row matmul block): an LSTM with dropout, a GRU+tanh over
word and class inputs, and a word projection through a tanh into an LSTM
whose softmax also reads the projection (so network steps hand a value
computed once per distinct word both to the LSTM and, through a ``take``,
to the softmax).  It also trains the first LSTM in both precisions with
each optimizer under a clip norm that some batches exceed.  It then scores
with and without ``--unk-penalty 0``, rescores n-best lists with fixed
weights, with ``--lambda 0`` and with ``--tune --refs``, scores 300
sentences whose widest prefix-trie levels hold 160 rows or more (steps
that run in parts on several threads where the process may use several
CPUs), and samples from each of the six architecture models twice: 15
sentences of at most 20 tokens, and 37 of at most 70.  It tunes each of
the six models again with ``--unk-penalty 0``.  It induces 6 classes on a
corpus that holds the reserved tokens as words, blank lines, CRLF line
ends, tabs and words of equal frequency.  Last, it rescores the n-best
lists written out of order (utterances interleaved), with blank lines,
CRLF line ends, tabs, one hypothesis twice and one score written ``1_0``,
with fixed weights and with ``--tune --refs``.  Last of all, it scores
1,200 sentences whose first three words differ on the LSTM and GRU models,
so that a trie level of more than ``MAX_STEP_ROWS`` rows runs in chunks.
After that it trains the LSTM with sgd, validating every 3 batches, until
validations that improve by less than 5% anneal the learning rate and stop
training mid-epoch, and scores with that model.  Then it scores 12,001
sentences, one of them 1,000 words long, on the LSTM and GRU models, so
that ``score`` reads its input in several groups.  Last, it induces 400
classes in one pass on 20,000 Zipf-distributed tokens, a corpus read in
several pieces whose most frequent words take blocks of class-bigram
counts larger than ``classing.BLOCK_CELLS``.  After that it induces 6
classes on a corpus of Finnish and ASCII words with CRLF, lone CR and LF
line ends, and scores it on the double-precision LSTM and GRU models.  It
prints one
``sha256  file`` line per output file, paths relative to OUT_DIR, in a
fixed order.

Two checkouts that compute the same bits print the same lines, so a change
that must not alter any output is checked by running this file from both
checkouts on one machine and comparing the printed lines.  The digests
depend on the numpy and BLAS build and on the core OpenBLAS runs on.
``tests/data/byte_identity.txt`` pins them for one build, which it names,
and ``tests/test_byte_identity.py`` compares a run with it on that build.
The package is imported from the ``src`` directory next to this file, and
BLAS runs on one thread unless the environment says otherwise.
"""

import contextlib
import hashlib
import logging
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from classlm.cli import main  # noqa: E402
from classlm.optimizers import ALGORITHMS  # noqa: E402

SEED = 11

ARCHITECTURES = {
    "lstm": (
        "input type=class name=class_input\n"
        "layer type=projection name=proj input=class_input size=8\n"
        "layer type=dropout name=drop1 input=proj dropout_rate=0.2\n"
        "layer type=lstm name=rec input=drop1 size=12\n"
        "layer type=dropout name=drop2 input=rec dropout_rate=0.2\n"
        "layer type=softmax name=out input=drop2\n"
    ),
    "gru": (
        "input type=word name=word_input\n"
        "input type=class name=class_input\n"
        "layer type=projection name=word_proj input=word_input size=6\n"
        "layer type=projection name=class_proj input=class_input size=4\n"
        "layer type=gru name=rec input=word_proj,class_proj size=12\n"
        "layer type=tanh name=ff input=rec size=10\n"
        "layer type=softmax name=out input=ff\n"
    ),
    # word-side layers before the LSTM, and a projection the softmax also reads
    "skip": (
        "input type=word name=word_input\n"
        "layer type=projection name=proj input=word_input size=8\n"
        "layer type=tanh name=ff input=proj size=10\n"
        "layer type=lstm name=rec input=ff size=12\n"
        "layer type=softmax name=out input=rec,proj\n"
    ),
}


def markov_sentences(rng, words, n_sentences, min_len=3, max_len=12):
    """Sentences from a random bigram model with a few preferred successors."""
    trans = np.full((len(words), len(words)), 0.02)
    for row in trans:
        row[rng.choice(len(words), size=4, replace=False)] += 3.0
    trans /= trans.sum(axis=1, keepdims=True)
    sentences = []
    for _ in range(n_sentences):
        w = int(rng.integers(len(words)))
        sent = [words[w]]
        for _ in range(int(rng.integers(min_len, max_len)) - 1):
            w = int(rng.choice(len(words), p=trans[w]))
            sent.append(words[w])
        sentences.append(sent)
    return sentences


def write_inputs(rng, out):
    """Corpora, test sentences with unknown words, n-best lists and references."""
    words = [f"w{i:02d}" for i in range(30)]
    train, dev, test = (markov_sentences(rng, words, n) for n in (240, 30, 24))
    test = [[w if rng.random() > 0.1 else "oov" for w in sent] for sent in test]
    nbest, refs = [], []
    for u, ref in enumerate(test[:8]):
        refs.append(f"u{u} {' '.join(ref)}")
        for h in range(5):
            hyp = list(ref)
            for _ in range(h):
                i = int(rng.integers(len(hyp)))
                hyp[i] = words[int(rng.integers(len(words)))]
            ac, bo = -rng.gamma(20.0, 2.0), -rng.gamma(10.0, 2.0)
            nbest.append(f"u{u} {ac!r} {bo!r} {' '.join(hyp)}")
    # drawn after the inputs above, so that they do not depend on it
    wide = markov_sentences(rng, words, 200)
    # 150 classes leave most cells of its class bigram table empty
    sparse = markov_sentences(rng, [f"v{i:03d}" for i in range(300)], 400)
    # drawn last, so that no other input depends on it: levels 2 to 7 of the
    # prefix trie of all 300 wide sentences hold 160 rows or more, which
    # score in parts on threads
    wide += markov_sentences(rng, words, 100)
    files = {"train.txt": train, "dev.txt": dev, "test.txt": test, "wide.txt": wide,
             "sparse.txt": sparse}
    for name, sentences in files.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as f:
            f.writelines(" ".join(s) + "\n" for s in sentences)
    for name, lines in (("nbest.txt", nbest), ("refs.txt", refs)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)
    for name, text in ARCHITECTURES.items():
        with open(os.path.join(out, f"{name}.arch"), "w", encoding="utf-8") as f:
            f.write(text)
    return [*files, "nbest.txt", "refs.txt"]


def run(argv, stdout_path=None):
    """One in-process CLI call; stdout goes to `stdout_path` when given."""
    with contextlib.ExitStack() as stack:
        if stdout_path is not None:
            f = stack.enter_context(open(stdout_path, "w", encoding="utf-8"))
            stack.enter_context(contextlib.redirect_stdout(f))
        rc = main(argv)
    if rc != 0:
        sys.exit(f"byte_identity: exit status {rc} from classlm {' '.join(argv)}")


def produce(out):
    """Write every output into `out`; returns their names in a fixed order."""
    p = lambda name: os.path.join(out, name)  # noqa: E731
    outputs = write_inputs(np.random.default_rng(SEED), out)
    run(["classes", "--corpus", p("train.txt"), "--num-classes", "8", "--output",
         p("classes.tsv")])
    outputs.append("classes.tsv")
    run(["classes", "--corpus", p("sparse.txt"), "--num-classes", "150", "--output",
         p("classes-sparse.tsv")])
    outputs.append("classes-sparse.tsv")

    def train(model, arch, precision, *options, batch_size=16):
        run(["train", "--train", p("train.txt"), "--dev", p("dev.txt"), "--arch",
             p(f"{arch}.arch"), "--classes", p("classes.tsv"), "--precision", precision,
             "--batch-size", str(batch_size), "--max-seq-length", "10", "--max-epochs", "2",
             "--seed", "5", *options, "--output-model", p(model)])
        outputs.append(model)

    models = []
    for arch in ARCHITECTURES:
        for precision in ("double", "single"):
            models.append(f"{arch}-{precision}.clm")
            train(models[-1], arch, precision)
        # a batch size that is no multiple of the 8-row block: one plain gemm per step
        train(f"{arch}-double-batch13.clm", arch, "double", batch_size=13)
    # a clip norm that some batches exceed, so that clipped steps are compared too
    for optimizer in ALGORITHMS:
        for precision in ("double", "single"):
            train(f"lstm-{precision}-{optimizer}.clm", "lstm", precision,
                  "--optimizer", optimizer, "--clip-norm", "0.5")

    for model in models:
        stem = model[: -len(".clm")]
        m = ["--model", p(model)]
        for name, extra in (("score", []), ("score-unk0", ["--unk-penalty", "0"]),
                            ("score-wide", [])):
            text = "wide.txt" if name == "score-wide" else "test.txt"
            run(["score", *m, "--input", p(text), *extra, "--output", p(f"{stem}.{name}")])
            outputs.append(f"{stem}.{name}")
        for name, extra in (("rescore", ["--lambda", "0.4", "--s-nn", "1.5"]),
                            ("rescore-lambda0", ["--lambda", "0", "--s-bo", "1.5"]),
                            ("rescore-tuned", ["--tune", "--refs", p("refs.txt")])):
            run(["rescore", *m, "--nbest", p("nbest.txt"), *extra, "--output",
                 p(f"{stem}.{name}")])
            outputs.append(f"{stem}.{name}")
        # 37 sentences: no multiple of the 8-row block; 70 tokens: more
        # uniforms than one block of a sentence's stream holds
        for name, count, max_tokens, seed in (("sample", 15, 20, 3), ("sample-long", 37, 70, 5)):
            run(["sample", *m, "--count", str(count), "--max-tokens", str(max_tokens), "--seed",
                 str(seed)], stdout_path=p(f"{stem}.{name}"))
            outputs.append(f"{stem}.{name}")
    # after every other output, so that adding them changed no line above:
    # tuning on totals that exclude the unknown words
    for model in models:
        stem = model[: -len(".clm")]
        run(["rescore", "--model", p(model), "--nbest", p("nbest.txt"), "--tune", "--refs",
             p("refs.txt"), "--unk-penalty", "0", "--output", p(f"{stem}.rescore-tuned-unk0")])
        outputs.append(f"{stem}.rescore-tuned-unk0")
    # after every other output: a corpus read as one token stream
    write_messy_corpus(np.random.default_rng(SEED + 1), p("messy.txt"))
    run(["classes", "--corpus", p("messy.txt"), "--num-classes", "6", "--output",
         p("classes-messy.tsv")])
    outputs += ["messy.txt", "classes-messy.tsv"]
    # after every other output: an n-best file with the same hypotheses, and
    # one more, in a looser layout
    write_messy_nbest(np.random.default_rng(SEED + 2), p("nbest.txt"), p("nbest-messy.txt"))
    outputs.append("nbest-messy.txt")
    m = ["--model", p(models[0]), "--nbest", p("nbest-messy.txt")]
    for name, extra in (("rescore-messy", ["--lambda", "0.4", "--s-nn", "1.5"]),
                        ("rescore-messy-tuned", ["--tune", "--refs", p("refs.txt")])):
        run(["rescore", *m, *extra, "--output", p(f"{models[0][:-len('.clm')]}.{name}")])
        outputs.append(f"{models[0][:-len('.clm')]}.{name}")
    # after every other output: a trie level wider than one step, which
    # scores in chunks of MAX_STEP_ROWS rows
    write_chunked_input(np.random.default_rng(SEED + 3), p("chunked.txt"))
    outputs.append("chunked.txt")
    for model in models:
        stem = model[: -len(".clm")]
        if stem.split("-")[0] not in ("lstm", "gru"):
            continue
        run(["score", "--model", p(model), "--input", p("chunked.txt"), "--output",
             p(f"{stem}.score-chunked")])
        outputs.append(f"{stem}.score-chunked")
    # after every other output: validations that anneal and stop training
    # mid-epoch, where each one a batch follows runs beside that batch
    train("lstm-double-sgd-stop.clm", "lstm", "double", "--optimizer", "sgd",
          "--validation-interval", "3", "--min-improvement", "0.05", "--patience", "1")
    run(["score", "--model", p("lstm-double-sgd-stop.clm"), "--input", p("test.txt"),
         "--output", p("lstm-double-sgd-stop.score")])
    outputs.append("lstm-double-sgd-stop.score")
    # after every other output: an input that scores in several groups, one
    # of them around a long sentence
    write_grouped_input(np.random.default_rng(SEED + 4), p("grouped.txt"))
    outputs.append("grouped.txt")
    for model in models:
        stem = model[: -len(".clm")]
        if stem.split("-")[0] not in ("lstm", "gru"):
            continue
        run(["score", "--model", p(model), "--input", p("grouped.txt"), "--output",
             p(f"{stem}.score-grouped")])
        outputs.append(f"{stem}.score-grouped")
    # after every other output: a corpus of several text and token pieces
    # whose widest visits sum their blocks in column tiles
    write_zipf_corpus(np.random.default_rng(SEED + 5), p("zipf.txt"))
    run(["classes", "--corpus", p("zipf.txt"), "--num-classes", "400", "--max-passes", "1",
         "--output", p("classes-zipf.tsv")])
    outputs += ["zipf.txt", "classes-zipf.tsv"]
    # after every other output: a corpus that is not ASCII, with every kind
    # of line end, through the class and score readers
    write_non_ascii_corpus(np.random.default_rng(SEED + 6), p("non-ascii.txt"))
    run(["classes", "--corpus", p("non-ascii.txt"), "--num-classes", "6", "--output",
         p("classes-non-ascii.tsv")])
    outputs += ["non-ascii.txt", "classes-non-ascii.tsv"]
    for model in ("lstm-double.clm", "gru-double.clm"):
        stem = model[: -len(".clm")]
        run(["score", "--model", p(model), "--input", p("non-ascii.txt"), "--output",
             p(f"{stem}.score-non-ascii")])
        outputs.append(f"{stem}.score-non-ascii")
    return outputs


def write_non_ascii_corpus(rng, path):
    """Markov sentences over corpus words and Finnish words, joined by
    spaces, no-break spaces and U+2028 (whitespace to ``str.split``, no line
    end to text mode), each ended by a CRLF, a lone CR or an LF."""
    words = [f"w{i:02d}" for i in range(10)] + [
        "päivää", "kiitos", "hyvää", "yö", "öljyä", "tämä", "äänestää", "Åland", "€"]
    gaps = [" ", " ", "\u00a0", "\u2028"]
    ends = ["\r\n", "\r", "\n"]
    with open(path, "wb") as f:
        for s in markov_sentences(rng, words, 80):
            text = s[0] + "".join(gaps[int(rng.integers(len(gaps)))] + w for w in s[1:])
            f.write((text + ends[int(rng.integers(len(ends)))]).encode())


def write_zipf_corpus(rng, path, tokens=20000):
    """`tokens` Zipf-distributed tokens over about 2,500 word types, in
    lines of 5 to 29 tokens."""
    words = [f"z{i}" for i in (rng.zipf(1.2, size=tokens) % 3000).tolist()]
    with open(path, "w", encoding="utf-8") as f:
        start = 0
        while start < tokens:
            end = start + int(rng.integers(5, 30))
            f.write(" ".join(words[start:end]) + "\n")
            start = end


def write_grouped_input(rng, path, sentences=12000, outlier=1000):
    """`sentences` sentences of 3 to 12 corpus words, and in the middle one
    of `outlier` words, so that scoring takes at least three groups of
    ``scoring.GROUP_ELEMENTS`` cells and the long sentence shares its group
    with a few sentences only."""
    words = [f"w{i:02d}" for i in range(30)]
    lengths = rng.integers(3, 13, sentences).tolist()
    lengths.insert(sentences // 2, outlier)
    with open(path, "w", encoding="utf-8") as f:
        for n in lengths:
            f.write(" ".join(words[w] for w in rng.integers(len(words), size=n).tolist()) + "\n")


def write_chunked_input(rng, path, sentences=1200):
    """`sentences` sentences over the corpus words whose first three words
    differ, so that level 3 of their prefix trie holds one row each."""
    words = [f"w{i:02d}" for i in range(30)]
    starts = rng.choice(len(words) ** 3, size=sentences, replace=False)
    with open(path, "w", encoding="utf-8") as f:
        for start in starts.tolist():
            head = [start // len(words) ** 2, start // len(words) % len(words),
                    start % len(words)]
            tail = rng.integers(len(words), size=int(rng.integers(0, 5))).tolist()
            f.write(" ".join(words[w] for w in head + tail) + "\n")


def write_messy_corpus(rng, path):
    """Markov sentences over words that include the reserved tokens, and
    three words of equal frequency, joined by assorted whitespace and line
    ends."""
    words = [f"m{i}" for i in range(20)] + ["<s>", "</s>", "<unk>"]
    sentences = markov_sentences(rng, words, 60)
    sentences += [["tie1", "tie2", "tie3"], ["tie3", "tie2", "tie1"]]
    gaps = [" ", "  ", "\t", " \t "]
    ends = ["\r\n", "\n", "\r\n\r\n", "\n\n \n"]
    with open(path, "wb") as f:
        for s in sentences:
            text = s[0] + "".join(gaps[int(rng.integers(len(gaps)))] + w for w in s[1:])
            f.write((text + ends[int(rng.integers(len(ends)))]).encode())


def write_messy_nbest(rng, source, path):
    """The hypotheses of the n-best file `source` in shuffled order, fields
    joined by assorted whitespace and line ends, one line written twice and
    one acoustic score written ``1_0``."""
    with open(source, encoding="utf-8") as f:
        rows = [line.split() for line in f]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    rows[0][1] = "1_0"
    gaps = [" ", "  ", "\t", " \t "]
    ends = ["\r\n", "\n", "\r\n\r\n", "\n\n \n", "\n\t\n"]
    lines = [parts[0] + "".join(gaps[int(rng.integers(len(gaps)))] + w for w in parts[1:])
             + ends[int(rng.integers(len(ends)))] for parts in rows]
    lines.insert(int(rng.integers(len(lines) + 1)), lines[3])
    with open(path, "wb") as f:
        f.write("".join(lines).encode())


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/byte_identity.py OUT_DIR")
    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    for name in produce(out_dir):
        print(f"{digest(os.path.join(out_dir, name))}  {name}")
