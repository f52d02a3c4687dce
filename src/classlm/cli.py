"""Command-line interface.

Subcommands cover the full pipeline:

    classlm classes  --corpus ... --output ...       induce word classes
    classlm train    --train ... --dev ... --arch ...  train a model
    classlm score    --model ... --input ...         sentence scores + perplexity
    classlm rescore  --model ... --nbest ...         rerank n-best lists
    classlm sample   --model ...                     generate text

Progress goes to standard error; results go to files or standard output.
Every subcommand is deterministic given identical flags, files and seeds.
Exit status is 0 exactly when the operation completed and outputs were
written.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import logging
import os
import shutil
import sys
import tempfile

import numpy as np

from .architecture import DescriptionError, parse_description, validate_description
from .classing import identity_classmap, load_class_file, run_exchange, save_class_file
from .graph import GraphError
from .model_io import ModelFormatError, load_model, save_model
from .network import instantiate_network, threads_used
from .optimizers import ALGORITHMS, OptimizerConfig
from .rescoring import (
    InterpolationParams,
    optimize_interpolation,
    rank_hypotheses,
    read_nbest_file,
    read_reference_file,
    score_hypotheses,
)
from .sampling import sample_text
from .scoring import add_in_order, perplexity, score_groups
from .training import TrainingConfig, train
from .vocabulary import RESERVED, build_vocabulary, read_corpus, read_token_pieces, text_lines

log = logging.getLogger("classlm")


def _unk_policy(unk_penalty):
    if unk_penalty is None:
        return "include"
    if unk_penalty == 0.0:
        return "exclude"
    raise ValueError(
        "--unk-penalty only supports the value 0 (exclude unknown words);"
        " omit the flag to score unknown words like any other word"
    )


def _check_output(path):
    """Refuse an output path that names a directory or lies in one that does
    not exist, before any input is read or any work is done; no path means
    standard output."""
    directory = os.path.dirname(path or "") or "."
    if not os.path.isdir(directory):
        raise ValueError(f"{path}: directory {directory} does not exist")
    if path and os.path.isdir(path):
        raise ValueError(f"{path}: is a directory")


def _read_sentences(path):
    """The sentences of a corpus file; a file without any is an error."""
    sentences = list(read_corpus(path))
    if not sentences:
        raise ValueError(f"{path}: empty corpus")
    return sentences


def _output(path):
    """The file at `path` opened for writing, or standard output without one."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def cmd_classes(args):
    _check_output(args.output)
    # the exchange sees the corpus as one stream, so it is read in pieces
    # of text, not in lines
    vocab, classmap, trace = run_exchange(
        read_token_pieces(args.corpus),
        args.num_classes,
        scheme=args.init,
        seed=args.seed,
        max_passes=args.max_passes,
    )
    log.info("initial log-likelihood: %.6f", trace[0])
    for i, value in enumerate(trace[1:], start=1):
        log.info("after pass %d: log-likelihood %.6f", i, value)
    save_class_file(args.output, vocab, classmap)
    log.info("wrote %d words in %d classes to %s", len(vocab), classmap.num_classes, args.output)
    return 0


def cmd_train(args):
    _check_output(args.output_model)
    # the options are checked before any input is read
    opt_config = OptimizerConfig(
        algorithm=args.optimizer,
        learning_rate=args.learning_rate,
        clip_norm=None if args.clip_norm == 0 else args.clip_norm,
    )
    config = TrainingConfig(
        optimizer=opt_config,
        batch_size=args.batch_size,
        max_sequence_length=args.max_seq_length,
        validation_interval=args.validation_interval or None,
        patience=args.patience,
        annealing_factor=args.annealing_factor,
        min_improvement=args.min_improvement,
        max_epochs=args.max_epochs,
        seed=args.seed,
    )
    if args.max_vocab is not None and args.max_vocab < len(RESERVED) + 1:
        raise ValueError(f"--max-vocab must be at least {len(RESERVED) + 1}, got {args.max_vocab}")
    desc_text = "".join(text_lines(args.arch))
    try:
        desc = parse_description(desc_text)
    except DescriptionError as err:
        log.error("%s: %s", args.arch, err)
        return 1
    violations = validate_description(desc)
    if violations:
        log.error("%s: %s", args.arch, "; ".join(violations))
        return 1

    train_sentences = _read_sentences(args.train)
    dev_sentences = _read_sentences(args.dev)
    if args.classes:
        vocab, classmap = load_class_file(args.classes)
    else:
        vocab = build_vocabulary(train_sentences, max_size=args.max_vocab)
        classmap = identity_classmap(vocab)
        log.info("no class file given; using one class per word (%d classes)", len(vocab))

    network = instantiate_network(desc, vocab, classmap, seed=args.seed, precision=args.precision)
    state = train(network, train_sentences, dev_sentences, config)
    training_meta = {
        "best_dev_perplexity": state.best_perplexity,
        "history": [[b, p, s] for b, p, s in state.history],
        "stopped_reason": state.stopped_reason,
    }
    save_model(args.output_model, network, training_meta)
    log.info("wrote model to %s (best dev perplexity %.6f); validations beside a batch:"
             " %d of %d", args.output_model, state.best_perplexity, state.validations_beside,
             len(state.history))
    return 1 if state.diverged else 0


def _keep_freed_memory():
    """Fix glibc's malloc thresholds at the top of the range its own
    heuristic moves them in: a block under 32 MB comes from the heap, and
    a heap keeps up to 64 MB free.  glibc starts at 128 kB and raises the
    thresholds only when a larger mapped block is freed.  A grouped score
    frees none that large, so each step on a worker thread gave its freed
    memory back and faulted it in again (README, "3. Score").  A group
    holds a bounded amount, so the heaps stay small.  Does nothing
    without glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, 64 << 20)
    mallopt(m_mmap_threshold, 32 << 20)


def cmd_score(args):
    _check_output(args.output)
    _keep_freed_memory()
    network, _ = load_model(args.model)
    policy = _unk_policy(args.unk_penalty)
    sentences, total, counted = 0, 0.0, 0
    # the lines wait in a temporary file until the whole input has scored,
    # so an input error leaves no output
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        for group, totals, group_counted in score_groups(network, read_corpus(args.input), policy):
            totals = totals.tolist()
            spool.writelines(f"{i}\t{t!r}\t{c}\t{' '.join(tokens)}\n" for i, (tokens, t, c)
                             in enumerate(zip(group, totals, group_counted.tolist()),
                                          start=sentences + 1))
            sentences += len(group)
            total = add_in_order(total, totals)
            counted += int(group_counted.sum())
        if not sentences:
            raise ValueError(f"{args.input}: empty corpus")
        ppl = perplexity([total], counted)  # 0.0 + total is total
        spool.write(f"ppl\t{ppl!r}\n")
        spool.seek(0)
        with _output(args.output) as out:
            shutil.copyfileobj(spool, out)
    log.info("scored %d sentences, %d tokens, perplexity %.6f; threads: %d",
             sentences, counted, ppl, threads_used())
    return 0


def _parse_grid(text, flag):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ValueError(f"{flag}: empty grid")
    return values


def cmd_rescore(args):
    _check_output(args.output)
    network, _ = load_model(args.model)
    policy = _unk_policy(args.unk_penalty)
    nbest = read_nbest_file(args.nbest)

    if args.tune:
        if not args.refs:
            raise ValueError("--tune requires --refs")
        references = read_reference_file(args.refs)
        lambda_grid = _parse_grid(args.grid_lambda, "--grid-lambda")
        snn_grid = _parse_grid(args.grid_snn, "--grid-snn")
        params, errors, nn_scores = optimize_interpolation(
            nbest, references, network, args.s_bo, lambda_grid, snn_grid, policy
        )
        log.info("tuned lambda=%g s_nn=%g (s_bo=%g, %d word errors)",
                 params.lam, params.s_nn, params.s_bo, errors)
    else:
        params = InterpolationParams(args.lam, args.s_bo, args.s_nn)
        nn_scores = score_hypotheses(nbest, network, policy)

    order, _, _, totals = rank_hypotheses(nbest, nn_scores, params)
    ranked = zip(nbest.utterances, np.cumsum(nbest.counts).tolist(), nbest.counts.tolist(),
                 order.tolist(), np.take_along_axis(totals, order, axis=-1).tolist())
    lines = [f"{utt}\t{total!r}\t{' '.join(nbest.tokens[end - n + i])}\n"
             for utt, end, n, indices, row in ranked
             for i, total in zip(indices[:n], row)]
    header = f"# lambda={params.lam!r} s_bo={params.s_bo!r} s_nn={params.s_nn!r}\n"
    with _output(args.output) as out:
        out.write("".join([header, *lines]))
    log.info("rescored %d utterances; threads: %d", len(nbest.utterances), threads_used())
    return 0


def cmd_sample(args):
    network, _ = load_model(args.model)
    for tokens in sample_text(network, args.seed, args.max_tokens, args.count):
        sys.stdout.write(" ".join(tokens) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="classlm",
        description="Train, score, rescore with and sample from class-factored"
        " recurrent neural network language models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="induce word classes with the exchange algorithm")
    p.add_argument("--corpus", required=True, help="training text, one sentence per line")
    p.add_argument("--num-classes", type=int, default=2000)
    p.add_argument("--output", required=True, help="class file to write")
    p.add_argument("--max-passes", type=int, default=50)
    p.add_argument("--init", choices=("striped", "random"), default="striped")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True, help="training corpus")
    p.add_argument("--dev", required=True, help="development corpus for validation")
    p.add_argument("--arch", required=True, help="architecture description file")
    p.add_argument("--classes", help="class file (default: one class per word)")
    p.add_argument("--optimizer", choices=ALGORITHMS, default="adagrad")
    p.add_argument("--learning-rate", type=float, default=None,
                   help="default: the optimizer's canonical value")
    p.add_argument("--clip-norm", type=float, default=5.0,
                   help="global gradient norm limit; 0 disables clipping")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-seq-length", type=int, default=50)
    p.add_argument("--validation-interval", type=int, default=0,
                   help="batches between validations; 0 = once per epoch")
    p.add_argument("--patience", type=int, default=2)
    p.add_argument("--annealing-factor", type=float, default=0.5)
    p.add_argument("--min-improvement", type=float, default=0.001)
    p.add_argument("--max-epochs", type=int, default=10)
    p.add_argument("--max-vocab", type=int, default=None)
    p.add_argument("--precision", choices=("double", "single"), default="double")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output-model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score sentences and report perplexity")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="sentences to score")
    p.add_argument("--unk-penalty", type=float, default=None,
                   help="0 excludes unknown words from score and count")
    p.add_argument("--output", help="default: standard output")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rescore", help="rerank n-best lists")
    p.add_argument("--model", required=True)
    p.add_argument("--nbest", required=True,
                   help="lines: utt_id acoustic_logprob backoff_logprob words...")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="interpolation weight of the network score")
    p.add_argument("--s-bo", type=float, default=1.0, help="back-off LM scale")
    p.add_argument("--s-nn", type=float, default=1.0, help="network LM scale")
    p.add_argument("--tune", action="store_true",
                   help="grid-search lambda and s-nn on --refs before rescoring")
    p.add_argument("--refs", help="reference transcripts: utt_id words...")
    p.add_argument("--grid-lambda", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
                   help="comma-separated lambda grid for --tune")
    p.add_argument("--grid-snn", default="0.5,1,2",
                   help="comma-separated s-nn grid for --tune")
    p.add_argument("--unk-penalty", type=float, default=None)
    p.add_argument("--output", help="default: standard output")
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("sample", help="generate sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-tokens", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(asctime)s\t%(message)s", stream=sys.stderr
        )
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (DescriptionError, GraphError, ModelFormatError, ValueError, OSError) as err:
        log.error("%s", err)
        return 1
    except MemoryError as err:
        log.error("out of memory: %s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
