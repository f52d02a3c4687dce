"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import functools
import time

import numpy as np
import pytest

import classlm as cl
from classlm.rescoring import InterpolationParams
from classlm.vocabulary import RESERVED, frame_sentences

import support
from support import ReferenceGraph


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number} PASS: {title}")
        return run
    return wrap


# -- 1: gradient correctness ---------------------------------------------------

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def _check_all_params(graph, bindings, params):
    assert graph.parameters == sorted(params)
    for name in graph.parameters:
        err = support.graph_fd_error(graph, bindings, params, name, FD_STEP)
        assert err < GRAD_TOL, f"{name}: {err}"


def _trial_projection(rng):
    g = ReferenceGraph()
    params = {"E": rng.normal(size=(int(rng.integers(3, 7)), 3))}
    out = g.concat([g.gather_rows(g.parameter("E"), g.input("ids"))])
    g.mark_output(g.sum(g.mul(out, out)), "loss")
    rows = params["E"].shape[0]
    _check_all_params(g, {"ids": rng.integers(0, rows, size=2)[None]}, params)


def _recurrent_trial(rng, kind):
    g = ReferenceGraph()
    n_in, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    params = support.stacked_gate_weights(rng, 4 if kind == "lstm" else 3, n_in, n, 0.7)
    p = [g.parameter(name) for name in "WUb"]
    # one time step of two rows
    if kind == "lstm":
        seq = g.lstm(g.input("x"), g.input("h0"), g.input("c0"), *p)
        out = g.add(g.item(seq, 0), g.item(seq, 1))
        bindings = {"x": rng.normal(size=(1, 2, n_in)), "h0": rng.normal(size=(2, n)),
                    "c0": rng.normal(size=(2, n))}
    else:
        out = g.item(g.gru(g.input("x"), g.input("h0"), *p), 0)
        bindings = {"x": rng.normal(size=(1, 2, n_in)), "h0": rng.normal(size=(2, n))}
    g.mark_output(g.sum(g.mul(out, out)), "loss")
    _check_all_params(g, bindings, params)


def _trial_tanh(rng):
    g = ReferenceGraph()
    n_in, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    params = {"W": rng.normal(size=(n_in, n)) * 0.7, "b": rng.normal(size=n)}
    g.mark_output(g.sum(g.tanh(g.add_bias(g.matmul(g.input("x"), g.parameter("W")),
                                          g.parameter("b")))), "loss")
    _check_all_params(g, {"x": rng.normal(size=(2, n_in))[None]}, params)


def _trial_dropout_eval(rng):
    # evaluation-mode dropout is the identity; the gradient must flow through
    # the all-ones mask unchanged
    g = ReferenceGraph()
    n_in, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    params = {"W": rng.normal(size=(n_in, n)) * 0.7}
    dropped = g.mul(g.matmul(g.input("x"), g.parameter("W")), g.input("mask"))
    g.mark_output(g.sum(g.mul(dropped, dropped)), "loss")
    _check_all_params(g, {"x": rng.normal(size=(2, n_in))[None], "mask": np.ones((1, 2, n))},
                      params)


def _trial_class_softmax(rng):
    g = ReferenceGraph()
    n, n_classes = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    params = {"W": rng.normal(size=(n, n_classes)) * 0.7, "b": rng.normal(size=n_classes)}
    logits = g.add_bias(g.matmul(g.input("h"), g.parameter("W")), g.parameter("b"))
    ce = g.cross_entropy(logits, g.input("t"))
    g.mark_output(g.sum(ce), "loss")
    _check_all_params(g, {"h": rng.normal(size=(3, n))[None],
                          "t": rng.integers(0, n_classes, size=3)[None]}, params)


def _check_all_batch_params(net, inputs, targets, step):
    """Every parameter of a multi-step batch, differentiated through time."""
    errors = support.batch_fd_errors(net, inputs, targets, np.ones(inputs.shape), step)
    for name, err in errors.items():
        assert err < GRAD_TOL, f"{name}: {err}"


def _trial_unrolled(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3, sizes=(3, 4, 4))
    inputs = rng.integers(0, len(net.vocab), size=(2, 3))
    targets = rng.integers(0, len(net.vocab), size=(2, 3))
    _check_all_batch_params(net, inputs, targets, FD_STEP)


@criterion(1, "gradients match finite differences for every layer kind")
def test_criterion_1_gradient_correctness(reference_ops):
    start = time.monotonic()
    rng = np.random.default_rng(2025)
    trials = {
        "projection": _trial_projection,
        "lstm": lambda r: _recurrent_trial(r, "lstm"),
        "gru": lambda r: _recurrent_trial(r, "gru"),
        "tanh": _trial_tanh,
        "dropout-in-eval": _trial_dropout_eval,
        "class-softmax": _trial_class_softmax,
    }
    for kind, trial in trials.items():
        for _ in range(50):
            trial(rng)
    for _ in range(3):
        _trial_unrolled(rng)

    # the small reference architecture (projection 8, lstm 16, tanh 16)
    # over a 5-token batch; a few gradient elements sit near 1e-7, so the
    # step is raised to keep the loss-rounding noise floor
    # (~eps*|loss|/step) well below the tolerance
    corpus = [["a", "b", "c", "d"]] * 4
    net = support.small_network(corpus, num_classes=4, seed=1)
    stream, _ = frame_sentences(net.vocab, [["a", "b", "c", "d"], ["d", "a", "b", "c"]])
    ids = stream.reshape(2, -1)  # two framed sentences of equal length
    inputs, targets = ids[:, :-1], ids[:, 1:]
    _check_all_batch_params(net, inputs, targets, 1e-4)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- 2: class factorization normalizes ------------------------------------------


@criterion(2, "class-factored word distribution sums to 1 over the vocabulary")
def test_criterion_2_normalization():
    rng = np.random.default_rng(7)
    net = support.random_class_network(rng, vocab_size=1000, num_classes=50, sizes=(6, 8, 8))
    checked = 0
    for _ in range(100):
        state = net.initial_state(1)
        probs = None
        for _ in range(int(rng.integers(1, 6))):
            word = np.array([int(rng.integers(0, len(net.vocab)))])
            probs, state = net.step(state, word)
        dist = support.word_distribution(net, probs[0])
        assert abs(dist.sum() - 1.0) < 1e-10
        checked += 1
    assert checked == 100


# -- 3: exchange algorithm --------------------------------------------------------


@criterion(3, "exchange matches exhaustive partition optimum; deltas exact; trace monotone")
def test_criterion_3_exchange():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    # global optimum on structured corpora with <= 8 word types
    cases = [(2, 2, 3), (2, 2, 4), (2, 3, 2), (3, 3, 2)]
    for num_classes, families, per_family in cases:
        for _ in range(3):
            words = support.family_corpus(rng, families, per_family,
                                          int(rng.integers(60, 160)))
            vocab = cl.build_vocabulary([words])
            target = support.brute_force_exchange_optimum(words, vocab, num_classes)
            found = max(
                cl.run_exchange([words], num_classes, scheme="random", seed=s)[2][-1]
                for s in range(5)
            )
            assert found == pytest.approx(target, abs=1e-8)

    # incremental deltas equal recomputation
    from classlm.classing import BigramStats, class_bigram_loglik

    for trial in range(6):
        n_types = int(rng.integers(3, 8))
        words = [f"w{i}" for i in rng.integers(0, n_types, size=int(rng.integers(40, 160)))]
        vocab = cl.build_vocabulary([words])
        k = int(min(3, n_types))
        cm = cl.initialize_classes(vocab, k, scheme="random", seed=trial)
        stream = [support.id_of(vocab, t) for t in words]
        stats = BigramStats(stream, cm, movable_classes=np.arange(k))
        for w in range(len(vocab)):
            if vocab.words[w] in RESERVED or stats.word_counts[w] == 0:
                continue
            if stats.class_sizes[stats.class_of[w]] <= 1:
                continue
            deltas = stats.move_deltas(w)
            b = int(np.argmax(deltas))
            if not np.isfinite(deltas[b]):
                continue
            before = class_bigram_loglik(stats)
            stats.apply_move(w, b)
            assert class_bigram_loglik(stats) - before == pytest.approx(deltas[b], abs=1e-8)

    # monotone non-decreasing objective on 20 random corpora
    for trial in range(20):
        n_types = int(rng.integers(3, 10))
        words = [f"w{i}" for i in rng.integers(0, n_types, size=int(rng.integers(30, 250)))]
        _, _, trace = cl.run_exchange([words], int(min(4, n_types)), scheme="random", seed=trial)
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"exchange suite took {elapsed:.1f}s"


# -- 4: end-to-end toy training ----------------------------------------------------


@criterion(4, "toy LSTM reaches dev perplexity < 1.3 within 200 batches")
def test_criterion_4_toy_training():
    start = time.monotonic()
    corpus = [["a", "b", "c", "d"]] * 1000
    net = support.small_network(corpus, num_classes=4, seed=7)
    assert net.classes.num_classes == 4 + 3
    config = cl.TrainingConfig(
        optimizer=cl.OptimizerConfig("adagrad"),
        batch_size=32,
        max_epochs=6,          # 32 batches per epoch -> at most 192 batches
        validation_interval=8,
        patience=1000,
        seed=1,
    )
    state = cl.train(net, corpus, corpus[:50], config)
    elapsed = time.monotonic() - start
    reaching = [b for b, p, _ in state.history if p < 1.3]
    assert reaching, f"never reached perplexity < 1.3: {state.history}"
    assert reaching[0] <= 200
    assert state.batches <= 200
    assert elapsed < 60.0, f"toy training took {elapsed:.1f}s"
    assert state.best_perplexity >= 1.0  # the analytic floor


# -- 5: annealing policy analog ------------------------------------------------------


@criterion(5, "adagrad without annealing converges in no more epochs than annealed sgd")
def test_criterion_5_annealing_analog():
    start = time.monotonic()
    corpus = support.markov_corpus(np.random.default_rng(99), vocab_size=50, n_tokens=20000)
    dev = support.markov_corpus(np.random.default_rng(100), vocab_size=50, n_tokens=2000)
    histories = {}
    for algorithm in ("adagrad", "sgd"):
        net = support.small_network(corpus, num_classes=10, seed=11)
        config = cl.TrainingConfig(
            optimizer=cl.OptimizerConfig(algorithm),
            batch_size=32,
            max_epochs=8,
            patience=1000,   # run all epochs; annealing still fires on failures
            seed=2,
        )
        state = cl.train(net, corpus, dev, config)
        histories[algorithm] = [p for _, p, _ in state.history]

    adagrad = histories["adagrad"]
    level = 1.02 * min(adagrad)  # within 2% of adagrad's best
    epochs_adagrad = next(i + 1 for i, p in enumerate(adagrad) if p <= level)
    epochs_sgd = next((i + 1 for i, p in enumerate(histories["sgd"]) if p <= level), np.inf)
    assert epochs_adagrad <= epochs_sgd, (
        f"adagrad needed {epochs_adagrad} epochs, sgd reached the level in {epochs_sgd}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"annealing comparison took {elapsed:.1f}s"


# -- 6: interpolation endpoints ---------------------------------------------------------


@criterion(6, "interpolation endpoints reproduce back-off/network rankings; formula exact")
def test_criterion_6_interpolation_endpoints(toy_model):
    assert InterpolationParams(0.5, 1.0, 1.0).combine(-10.0, -8.0) == pytest.approx(
        -9.0, abs=1e-12
    )

    hyps = {
        "u1": [support.Hypothesis("u1", -1.0, -1.0, ("d", "c", "b", "a")),
               support.Hypothesis("u1", -2.0, -9.0, ("a", "b", "c", "d"))],
        "u2": [support.Hypothesis("u2", -0.5, -2.0, ("b", "b", "b", "b")),
               support.Hypothesis("u2", -1.5, -8.0, ("a", "b", "c", "d"))],
        "u3": [support.Hypothesis("u3", -0.1, -3.0, ("a", "a", "d", "d")),
               support.Hypothesis("u3", -0.9, -7.0, ("a", "b", "c", "d"))],
    }
    # lambda = 0: exactly the input (first-pass) ranking
    reranked = support.rescore_nbest(support.nbest(hyps), toy_model, InterpolationParams(0.0))
    for utt in hyps:
        assert [r.hypothesis for r in reranked[utt]] == hyps[utt]
    # lambda = 1: exactly the network-score ranking
    reranked = support.rescore_nbest(support.nbest(hyps), toy_model, InterpolationParams(1.0))
    for utt in hyps:
        by_nn = sorted(reranked[utt], key=lambda r: -(r.hypothesis.acoustic + r.log_p_nn))
        assert [r.hypothesis for r in reranked[utt]] == [r.hypothesis for r in by_nn]
        assert reranked[utt][0].hypothesis.tokens == ("a", "b", "c", "d")


# -- 7: perplexity conventions ------------------------------------------------------------


@criterion(7, "perplexity conventions: uniform model, unk policies, trainer vs scorer")
def test_criterion_7_perplexity_conventions(tmp_path):
    # uniform model: perplexity equals the vocabulary size
    words = [f"w{i}" for i in range(7)]
    vocab = cl.Vocabulary(words, {w: 1 for w in words})
    net = cl.instantiate_network(
        cl.parse_description(support.SMALL_ARCH), vocab, cl.identity_classmap(vocab), seed=0
    )
    net.params["output_layer/W"][:] = 0.0
    net.params["output_layer/b"][:] = 0.0
    ppl = cl.corpus_perplexity(net, [["w0", "w1"], ["w4"]])
    assert ppl == pytest.approx(len(vocab), abs=1e-6)

    # include and exclude agree exactly on unknown-free corpora
    rng = np.random.default_rng(5)
    net2 = support.random_class_network(rng, vocab_size=20, num_classes=5)
    sentences = [
        [net2.vocab.words[int(rng.integers(3, len(net2.vocab)))] for _ in range(5)]
        for _ in range(6)
    ]
    assert cl.corpus_perplexity(net2, sentences, "include") == cl.corpus_perplexity(
        net2, sentences, "exclude"
    )

    # the training loop's dev perplexity equals the score command's
    from classlm.cli import main

    train_file = tmp_path / "train.txt"
    train_file.write_text("a b c d\n" * 100)
    dev_file = tmp_path / "dev.txt"
    dev_file.write_text("a b c d\n" * 10)
    arch_file = tmp_path / "arch.net"
    arch_file.write_text(support.SMALL_ARCH)
    model_file = tmp_path / "model.clm"
    rc = main(["train", "--train", str(train_file), "--dev", str(dev_file),
               "--arch", str(arch_file), "--output-model", str(model_file),
               "--max-epochs", "2", "--seed", "3"])
    assert rc == 0
    _, training = cl.load_model(model_file)
    out_file = tmp_path / "scores.txt"
    rc = main(["score", "--model", str(model_file), "--input", str(dev_file),
               "--output", str(out_file)])
    assert rc == 0
    scored_ppl = float(out_file.read_text().splitlines()[-1].split("\t")[1])
    assert scored_ppl == pytest.approx(training["best_dev_perplexity"], abs=1e-6)


# -- 8: persistence --------------------------------------------------------------------------


@criterion(8, "save/load round trip is bit-exact; re-save is byte-identical")
def test_criterion_8_persistence(tmp_path):
    rng = np.random.default_rng(21)
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    p1 = tmp_path / "a.clm"
    p2 = tmp_path / "b.clm"
    meta = {"best_dev_perplexity": 12.5, "history": [[4, 13.0, 1.0]]}
    cl.save_model(p1, net, meta)
    loaded, training = cl.load_model(p1)
    for name in net.params:
        np.testing.assert_array_equal(loaded.params[name], net.params[name])
    sentence = [net.vocab.words[5], net.vocab.words[9], net.vocab.words[4]]
    totals = [cl.score_arrays(model, [sentence]).totals[0] for model in (net, loaded)]
    assert totals[0] == totals[1]
    cl.save_model(p2, loaded, training)
    assert p1.read_bytes() == p2.read_bytes()


# -- 9: parser conformance --------------------------------------------------------------------


@criterion(9, "reference description parses to 8 specs; every rule has a line-numbered failure")
def test_criterion_9_parser_conformance():
    desc = cl.parse_description(support.LARGE_ARCH)
    assert len(desc.layers) == 8
    assert [s.kind for s in desc.layers] == [
        "class_input", "projection", "dropout", "lstm", "dropout", "tanh", "dropout", "softmax",
    ]
    assert desc.layers[1].size == 500
    assert desc.layers[3].size == 1500 and desc.layers[5].size == 1500
    assert all(s.dropout_rate == 0.25 for s in desc.layers if s.kind == "dropout")
    assert cl.validate_description(desc) == []

    # construction-order / acyclicity rule
    forward_ref = (
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=4\n"
        "layer type=softmax name=o input=h\n"
        "layer type=tanh name=h input=p size=4\n"
    )
    violations = cl.validate_description(cl.parse_description(forward_ref))
    assert any("line 3" in v and "undeclared" in v for v in violations)

    # inputs must be followed by a projection layer
    unprojected = (
        "input type=class name=a\n"
        "layer type=tanh name=t input=a size=4\n"
        "layer type=softmax name=o input=t\n"
    )
    violations = cl.validate_description(cl.parse_description(unprojected))
    assert any("line 1" in v and "projection" in v for v in violations)

    # the final layer must be a softmax
    no_softmax = (
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=4\n"
        "layer type=tanh name=t input=p size=4\n"
    )
    violations = cl.validate_description(cl.parse_description(no_softmax))
    assert any("line 3" in v and "softmax" in v for v in violations)
