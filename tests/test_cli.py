"""End-to-end command-line behaviour on temporary files."""

import logging
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import classlm as cl
from classlm.cli import build_parser, main

import support


@pytest.fixture()
def toy_files(tmp_path):
    """Corpus, architecture and class files for a small training run."""
    train = tmp_path / "train.txt"
    train.write_text("a b c d\n" * 120)
    dev = tmp_path / "dev.txt"
    dev.write_text("a b c d\n" * 10)
    arch = tmp_path / "arch.net"
    arch.write_text(support.SMALL_ARCH)
    return {"train": train, "dev": dev, "arch": arch, "dir": tmp_path}


def _train(toy_files, model_name="model.clm", extra=()):
    model = toy_files["dir"] / model_name
    rc = main(
        [
            "train",
            "--train", str(toy_files["train"]),
            "--dev", str(toy_files["dev"]),
            "--arch", str(toy_files["arch"]),
            "--output-model", str(model),
            "--max-epochs", "2",
            "--seed", "7",
            *extra,
        ]
    )
    assert rc == 0
    return model


def test_classes_command_writes_monotone_trace(tmp_path, caplog):
    corpus = tmp_path / "corpus.txt"
    rng = np.random.default_rng(0)
    corpus.write_text("\n".join(" ".join(support.family_corpus(rng, 2, 3, 40))
                                for _ in range(10)) + "\n")
    out = tmp_path / "classes.tsv"
    with caplog.at_level(logging.INFO):
        rc = main(["classes", "--corpus", str(corpus), "--num-classes", "2",
                   "--output", str(out), "--seed", "3"])
    assert rc == 0
    values = [float(rec.message.rsplit(" ", 1)[-1]) for rec in caplog.records
              if "log-likelihood" in rec.message]
    assert len(values) >= 2
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    vocab, classmap = cl.load_class_file(out)
    assert classmap.num_classes == 2 + 3


def test_classes_command_single_class(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b a c\n")
    out = tmp_path / "classes.tsv"
    assert main(["classes", "--corpus", str(corpus), "--num-classes", "1",
                 "--output", str(out)]) == 0
    vocab, classmap = cl.load_class_file(out)
    regular = [w for w in range(len(vocab)) if vocab.words[w] not in cl.vocabulary.RESERVED]
    assert len({int(classmap.class_of[w]) for w in regular}) == 1


def test_classes_command_reads_the_corpus_as_one_token_stream(tmp_path):
    # line breaks, blank lines, tabs and runs of spaces only separate tokens
    rng = np.random.default_rng(5)
    tokens = [f"w{i}" for i in rng.integers(0, 12, size=300)]
    pieces = []
    for i, tok in enumerate(tokens):
        pieces.append(tok + ("\r\n", "\t", "   ", "\r\n\r\n", " \t \n\n", " ")[i % 6])
    messy, plain = tmp_path / "messy.txt", tmp_path / "plain.txt"
    messy.write_bytes(("\n \t\r\n" + "".join(pieces)).encode())
    plain.write_text("\n".join(tokens) + "\n")
    outputs = []
    for corpus in (messy, plain):
        outputs.append(tmp_path / f"{corpus.stem}.tsv")
        assert main(["classes", "--corpus", str(corpus), "--num-classes", "4",
                     "--output", str(outputs[-1]), "--seed", "2"]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_a_classes_run_does_not_import_numpy_ma(tmp_path):
    # importing numpy.ma takes about 10 ms, and classing needs none of it
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b a c <unk> b\n" * 20)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from classlm.cli import main; "
            "argv = ['classes', '--corpus', sys.argv[2], '--num-classes', '2', '--output', "
            "sys.argv[3]]; assert main(argv) == 0; print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(Path(cl.__file__).parents[1]),
                          str(corpus), str(tmp_path / "classes.tsv")],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def test_classes_default_is_2000():
    parser = build_parser()
    args = parser.parse_args(["classes", "--corpus", "x", "--output", "y"])
    assert args.num_classes == 2000


def test_train_score_round_trip_perplexities_match(toy_files):
    model = _train(toy_files)
    _, training = cl.load_model(model)
    out = toy_files["dir"] / "scores.txt"
    rc = main(["score", "--model", str(model), "--input", str(toy_files["dev"]),
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("ppl\t")
    ppl = float(lines[-1].split("\t")[1])
    assert ppl == pytest.approx(training["best_dev_perplexity"], abs=1e-6)
    # one line per sentence plus the perplexity line
    assert len(lines) == 10 + 1


def test_train_same_seed_reproduces_model(toy_files):
    m1 = _train(toy_files, "m1.clm")
    m2 = _train(toy_files, "m2.clm")
    assert m1.read_bytes() == m2.read_bytes()


def test_train_with_class_file(toy_files):
    classes = toy_files["dir"] / "classes.tsv"
    rc = main(["classes", "--corpus", str(toy_files["train"]), "--num-classes", "2",
               "--output", str(classes)])
    assert rc == 0
    model = _train(toy_files, "mc.clm", extra=["--classes", str(classes)])
    net, _ = cl.load_model(model)
    assert net.classes.num_classes == 5
    assert net.params["output_layer/W"].shape[1] == 5


def test_train_sgd_anneals_adagrad_does_not(toy_files):
    # min-improvement 1.0 turns every later validation into a failure
    msgd = _train(toy_files, "sgd.clm",
                  extra=["--optimizer", "sgd", "--min-improvement", "1.0",
                         "--validation-interval", "2", "--patience", "3"])
    _, tr = cl.load_model(msgd)
    sgd_scales = [s for _, _, s in tr["history"]]
    assert sgd_scales[-1] < 1.0

    mada = _train(toy_files, "ada.clm",
                  extra=["--optimizer", "adagrad", "--min-improvement", "1.0",
                         "--validation-interval", "2", "--patience", "3"])
    _, tr = cl.load_model(mada)
    assert all(s == 1.0 for _, _, s in tr["history"])


@pytest.mark.parametrize("cpus, beside", [(2, 2), (1, 0)])
def test_train_names_the_validations_run_beside_a_batch(toy_files, caplog, monkeypatch, cpus,
                                                        beside):
    # 4 batches an epoch: validations after batches 3 and 6, which a batch
    # follows, and after the last batch, 8
    monkeypatch.setattr(cl.training, "cpu_count", lambda: cpus)
    with caplog.at_level(logging.INFO):
        _train(toy_files, extra=["--validation-interval", "3"])
    assert caplog.messages[-1].endswith(f"; validations beside a batch: {beside} of 3")


def test_train_rejects_invalid_architecture(toy_files, caplog):
    bad = toy_files["dir"] / "bad.net"
    bad.write_text(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=4\n"
        "layer type=tanh name=t input=p size=4\n"
    )
    with caplog.at_level(logging.ERROR):
        rc = main(["train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
                   "--arch", str(bad), "--output-model", str(toy_files["dir"] / "x.clm")])
    assert rc == 1
    assert any("line 3" in rec.message and "softmax" in rec.message for rec in caplog.records)


def test_slash_in_a_layer_or_input_name_is_a_one_line_error(toy_files, caplog):
    # parameter names are <layer>/<name>: here the projection's table of
    # input 'x/W' and the tanh layer's weights would both be 'a/E_x/W'
    bad = toy_files["dir"] / "bad.net"
    bad.write_text(
        "input type=word name=x/W\n"
        "layer type=projection name=a input=x/W size=4\n"
        "layer type=tanh name=a/E_x input=a size=4\n"
        "layer type=softmax name=o input=a/E_x\n"
    )
    model = toy_files["dir"] / "x.clm"
    message = _one_line_error(caplog, [
        "train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
        "--arch", str(bad), "--output-model", str(model)])
    assert "line 1: input name 'x/W' contains '/'" in message
    assert "line 3: layer name 'a/E_x' contains '/'" in message
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "sample", "classes-striped", "classes-random"])
def test_negative_seed_is_a_one_line_error(toy_files, tmp_path, rng, caplog, command):
    files = {k: str(v) for k, v in toy_files.items()}
    if command == "train":
        argv = ["train", "--train", files["train"], "--dev", files["dev"], "--arch",
                files["arch"], "--output-model", str(tmp_path / "out.clm"), "--seed", "-1"]
    elif command == "sample":
        model = tmp_path / "model.clm"
        cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
        argv = ["sample", "--model", str(model), "--seed", "-1"]
    else:
        argv = ["classes", "--corpus", files["train"], "--num-classes", "2", "--output",
                str(tmp_path / "classes.tsv"), "--init", command[len("classes-"):],
                "--seed", "-3"]
    message = _one_line_error(caplog, argv)
    assert message == f"--seed must be a non-negative integer, got {argv[-1]}"
    assert not any(tmp_path.glob("out.clm")) and not (tmp_path / "classes.tsv").exists()


def test_score_uniform_model_ppl_is_vocab_size(tmp_path):
    words = [f"w{i}" for i in range(7)]
    vocab = cl.Vocabulary(words, {w: 1 for w in words})
    net = cl.instantiate_network(
        cl.parse_description(support.SMALL_ARCH), vocab, cl.identity_classmap(vocab), seed=0
    )
    net.params["output_layer/W"][:] = 0.0
    net.params["output_layer/b"][:] = 0.0
    model = tmp_path / "uniform.clm"
    cl.save_model(model, net)
    corpus = tmp_path / "in.txt"
    corpus.write_text("w0 w1\nw2\n")
    out = tmp_path / "out.txt"
    assert main(["score", "--model", str(model), "--input", str(corpus),
                 "--output", str(out)]) == 0
    ppl = float(out.read_text().splitlines()[-1].split("\t")[1])
    assert ppl == pytest.approx(10.0, abs=1e-6)


def test_score_unk_policies(toy_files, tmp_path):
    model = _train(toy_files)
    clean = tmp_path / "clean.txt"
    clean.write_text("a b c d\na b\n")
    noisy = tmp_path / "noisy.txt"
    noisy.write_text("a OOV c d\n")

    def ppl_of(corpus, *flags):
        out = tmp_path / "s.txt"
        assert main(["score", "--model", str(model), "--input", str(corpus),
                     "--output", str(out), *flags]) == 0
        return float(out.read_text().splitlines()[-1].split("\t")[1])

    # identical on unknown-free input
    assert ppl_of(clean) == ppl_of(clean, "--unk-penalty", "0")
    # differ when unknowns are present
    assert ppl_of(noisy) != ppl_of(noisy, "--unk-penalty", "0")
    # duplicated corpus keeps the perplexity
    doubled = tmp_path / "doubled.txt"
    doubled.write_text(clean.read_text() * 2)
    assert ppl_of(doubled) == pytest.approx(ppl_of(clean), rel=1e-9)


def test_score_rejects_nonzero_unk_penalty(toy_files, caplog):
    model = _train(toy_files)
    with caplog.at_level(logging.ERROR):
        rc = main(["score", "--model", str(model), "--input", str(toy_files["dev"]),
                   "--unk-penalty", "-1.5"])
    assert rc == 1


def _write_nbest(path):
    path.write_text(
        "u1 0.0 -1.0 d c b a\n"
        "u1 0.0 -9.0 a b c d\n"
        "u2 0.0 -2.0 b b b b\n"
        "u2 0.0 -8.0 a b c d\n"
        "u3 0.0 -3.0 a a d d\n"
        "u3 0.0 -7.0 a b c d\n"
    )


def test_rescore_lambda_endpoints(toy_files, tmp_path):
    model = _train(toy_files, extra=["--max-epochs", "4"])
    nbest = tmp_path / "nbest.txt"
    _write_nbest(nbest)

    out0 = tmp_path / "r0.txt"
    assert main(["rescore", "--model", str(model), "--nbest", str(nbest),
                 "--lambda", "0", "--output", str(out0)]) == 0
    tops0 = [line.split("\t")[2] for line in out0.read_text().splitlines()[1:]][::2]
    assert tops0 == ["d c b a", "b b b b", "a a d d"]  # back-off ranking

    out1 = tmp_path / "r1.txt"
    assert main(["rescore", "--model", str(model), "--nbest", str(nbest),
                 "--lambda", "1", "--output", str(out1)]) == 0
    tops1 = [line.split("\t")[2] for line in out1.read_text().splitlines()[1:]][::2]
    assert tops1 == ["a b c d"] * 3  # the trained model's ranking


def test_rescore_tuning_picks_positive_lambda(toy_files, tmp_path, caplog):
    model = _train(toy_files, extra=["--max-epochs", "4"])
    nbest = tmp_path / "nbest.txt"
    _write_nbest(nbest)
    refs = tmp_path / "refs.txt"
    refs.write_text("u1 a b c d\nu2 a b c d\nu3 a b c d\n")
    out = tmp_path / "tuned.txt"
    with caplog.at_level(logging.INFO):
        rc = main(["rescore", "--model", str(model), "--nbest", str(nbest),
                   "--tune", "--refs", str(refs), "--grid-lambda", "0,0.25,0.5,0.75,1",
                   "--grid-snn", "1", "--output", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    lam = float(header.split()[1].split("=")[1])
    assert lam > 0.0
    tops = [line.split("\t")[2] for line in out.read_text().splitlines()[1:]][::2]
    assert tops == ["a b c d"] * 3


def _zero_membership_files(toy_files):
    """A class file giving "d" a membership of 0.0, so log P_nn(d) = -inf,
    and a development corpus without "d"."""
    classes = toy_files["dir"] / "zero.tsv"
    classes.write_text("a\t0\t1.0\nb\t1\t0.5\nc\t1\t0.5\nd\t1\t0.0\n")
    dev = toy_files["dir"] / "dev-no-d.txt"
    dev.write_text("a b c\n" * 10)
    return classes, dev


def test_rescore_with_a_minus_inf_network_score(toy_files, tmp_path, caplog):
    classes, dev = _zero_membership_files(toy_files)
    model = _train(toy_files, "zero.clm", extra=["--classes", str(classes), "--dev", str(dev)])
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1 -1.0 -9.0 a d c\nu1 -1.0 -1.0 a b c\nu1 -1.0 -0.5 a d d\n")
    refs = tmp_path / "refs.txt"
    refs.write_text("u1 a d c\n")
    out = tmp_path / "out.txt"

    def rescore(*options):
        caplog.clear()
        with warnings.catch_warnings(), caplog.at_level(logging.INFO):
            warnings.simplefilter("error")
            assert main(["rescore", "--model", str(model), "--nbest", str(nbest), *options,
                         "--output", str(out)]) == 0
        return [line.split("\t")[1:] for line in out.read_text().splitlines()[1:]]

    # lambda = 0: acoustic + s_bo * log P_bo, whatever the network says
    assert rescore("--lambda", "0") == [["-1.5", "a d d"], ["-2.0", "a b c"],
                                        ["-10.0", "a d c"]]
    # lambda > 0: -inf ranks last, ties in first-pass order
    rows = rescore("--lambda", "0.5")
    assert [text for _, text in rows] == ["a b c", "a d c", "a d d"]
    assert np.isfinite(float(rows[0][0])) and [total for total, _ in rows[1:]] == ["-inf"] * 2
    # both grid points give one word error: lambda = 0 picks "a d d", 0.5 picks "a b c"
    rows = rescore("--tune", "--refs", str(refs), "--grid-lambda", "0,0.5", "--grid-snn", "1")
    assert any("tuned lambda=0 s_nn=1 (s_bo=1, 1 word errors)" in rec.message
               for rec in caplog.records)
    assert [text for _, text in rows] == ["a d d", "a b c", "a d c"]


def test_nonfinite_last_validation_is_recorded_as_divergence(toy_files):
    # the only validation runs at the end of the last epoch, on a corpus
    # holding a word of membership 0.0, so its perplexity is infinite
    classes, _ = _zero_membership_files(toy_files)
    model = toy_files["dir"] / "diverged.clm"
    rc = main(["train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
               "--arch", str(toy_files["arch"]), "--classes", str(classes),
               "--max-epochs", "1", "--validation-interval", "1000",
               "--output-model", str(model)])
    assert rc == 1
    net, training = cl.load_model(model)
    assert training["stopped_reason"] == "diverged"
    # the header is strict JSON, the infinite perplexity a null, and it
    # survives save -> load -> save byte for byte
    header = support.strict_header(model)["training"]
    assert header["best_dev_perplexity"] is None and header["history"][-1][1] is None
    assert header == training
    resaved = toy_files["dir"] / "resaved.clm"
    cl.save_model(resaved, net, training)
    assert resaved.read_bytes() == model.read_bytes()


def test_rescore_malformed_nbest_reports_line(toy_files, tmp_path, caplog):
    model = _train(toy_files)
    nbest = tmp_path / "bad.txt"
    nbest.write_text("u1 0.0 -1.0 ok\nu2 bad -2.0 oops\n")
    with caplog.at_level(logging.ERROR):
        rc = main(["rescore", "--model", str(model), "--nbest", str(nbest)])
    assert rc == 1
    assert any("line 2" in rec.message for rec in caplog.records)


def test_sample_deterministic_and_count_zero(toy_files, capsys):
    model = _train(toy_files, extra=["--max-epochs", "4"])
    assert main(["sample", "--model", str(model), "--count", "5",
                 "--max-tokens", "8", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--model", str(model), "--count", "5",
                 "--max-tokens", "8", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 5

    assert main(["sample", "--model", str(model), "--count", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_model_file_fails_cleanly(tmp_path, caplog):
    with caplog.at_level(logging.ERROR):
        rc = main(["score", "--model", str(tmp_path / "nope.clm"), "--input", "x"])
    assert rc == 1


def test_train_max_vocab_limits_vocabulary(toy_files):
    model = _train(toy_files, "small_vocab.clm", extra=["--max-vocab", "5"])
    net, _ = cl.load_model(model)
    assert len(net.vocab) == 5  # three reserved tokens plus the top two words


def test_train_single_precision(toy_files):
    model = _train(toy_files, "single.clm", extra=["--precision", "single"])
    net, _ = cl.load_model(model)
    assert net.params["output_layer/W"].dtype == np.float32
    out = toy_files["dir"] / "s32.txt"
    assert main(["score", "--model", str(model), "--input", str(toy_files["dev"]),
                 "--output", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("ppl\t")


def test_train_divergence_exits_nonzero(toy_files):
    model = toy_files["dir"] / "diverged.clm"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([
            "train",
            "--train", str(toy_files["train"]),
            "--dev", str(toy_files["dev"]),
            "--arch", str(toy_files["arch"]),
            "--output-model", str(model),
            "--optimizer", "sgd",
            "--learning-rate", "1e18",
            "--clip-norm", "0",
            "--validation-interval", "1",
            "--max-epochs", "1",
        ])
    assert rc == 1
    # the saved model is the last good checkpoint
    net, training = cl.load_model(model)
    assert all(np.isfinite(v).all() for v in net.params.values())
    assert training["stopped_reason"] == "diverged"


def test_rescore_tune_log_names_s_nn_and_s_bo(toy_files, tmp_path, caplog):
    model = _train(toy_files)
    nbest = tmp_path / "nbest.txt"
    _write_nbest(nbest)
    refs = tmp_path / "refs.txt"
    refs.write_text("u1 a b c d\nu2 a b c d\nu3 a b c d\n")
    with caplog.at_level(logging.INFO):
        rc = main(["rescore", "--model", str(model), "--nbest", str(nbest), "--tune",
                   "--refs", str(refs), "--s-bo", "2", "--grid-snn", "0.5",
                   "--output", str(tmp_path / "out.txt")])
    assert rc == 0
    assert any("s_nn=0.5 (s_bo=2," in rec.message for rec in caplog.records)


def _tune(toy_files, tmp_path, out):
    model = _train(toy_files)
    nbest = tmp_path / "nbest.txt"
    _write_nbest(nbest)
    refs = tmp_path / "refs.txt"
    refs.write_text("u1 a b c d\nu2 a b c d\nu3 d c b a\n")
    assert main(["rescore", "--model", str(model), "--nbest", str(nbest), "--tune",
                 "--refs", str(refs), "--grid-lambda", "0,0.3,0.7,1",
                 "--grid-snn", "0.5,1,2", "--output", str(out)]) == 0
    return model, nbest


def test_rescore_tune_scores_each_hypothesis_once(toy_files, tmp_path, monkeypatch):
    calls = []
    score_arrays = cl.rescoring.score_arrays

    def counting(network, sentences, unk_policy="include"):
        calls.append([" ".join(s) for s in sentences])
        return score_arrays(network, sentences, unk_policy)

    monkeypatch.setattr(cl.rescoring, "score_arrays", counting)
    _tune(toy_files, tmp_path, tmp_path / "tuned.txt")
    hypotheses = [line.split(" ", 3)[3] for line in (tmp_path / "nbest.txt").read_text().splitlines()]
    assert calls == [hypotheses]


def test_rescore_tune_output_equals_fixed_weight_run(toy_files, tmp_path):
    tuned = tmp_path / "tuned.txt"
    model, nbest = _tune(toy_files, tmp_path, tuned)
    params = dict(field.split("=") for field in tuned.read_text().splitlines()[0][2:].split())
    fixed = tmp_path / "fixed.txt"
    assert main(["rescore", "--model", str(model), "--nbest", str(nbest),
                 "--lambda", params["lambda"], "--s-bo", params["s_bo"],
                 "--s-nn", params["s_nn"], "--output", str(fixed)]) == 0
    assert fixed.read_bytes() == tuned.read_bytes()


def _one_line_error(caplog, argv):
    """Run the CLI; assert exit 1 with one single-line error and no traceback."""
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        rc = main(argv)
    errors = [rec for rec in caplog.records if rec.levelno >= logging.ERROR]
    assert rc == 1
    assert len(errors) == 1 and errors[0].exc_info is None
    assert "\n" not in errors[0].getMessage()
    return errors[0].getMessage()


def test_malformed_model_header_is_a_one_line_error(tmp_path, rng, caplog):
    model = tmp_path / "model.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    sentences = tmp_path / "in.txt"
    sentences.write_text("w1 w2\n")
    support.rewrite_header(model, lambda h: h.pop("vocabulary"))
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert "'vocabulary'" in message

    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(model, lambda h: h["parameters"][1].update(offset="0"))
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert "'parameters[1].offset'" in message


@pytest.mark.parametrize("offset, problem", [(8, "overlaps the bytes of parameter"),
                                             (-8, "is negative")])
def test_overlapping_or_negative_parameter_offset_is_a_one_line_error(tmp_path, rng, caplog,
                                                                      offset, problem):
    # an offset of 8 reads the second parameter from inside the first one's bytes
    model = tmp_path / "model.clm"
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    cl.save_model(model, net)
    support.rewrite_header(model, lambda h: h["parameters"][1].update(offset=offset))
    sentences = tmp_path / "in.txt"
    sentences.write_text("w1 w2\n")
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert "'parameters[1].offset'" in message and problem in message
    assert repr(list(support.file_block_views(net))[1]) in message


@pytest.mark.parametrize("old, new, expected", [
    ("input=proj", "input=nope", "line 3: layer 'rec' references undeclared name 'nope'"),
    ("name=ff input=rec", "name=ff input=class_input",
     "line 4: tanh layer 'ff' reads id stream 'class_input' directly"),
    ("type=softmax name=out input=ff", "type=tanh name=out input=ff size=3",
     "line 5: final layer 'out' must be a softmax, got tanh"),
    ("type=tanh", "type=sigmoid", "line 4: unknown layer type 'sigmoid'"),
    ("type=tanh name=ff", "type=tanh name=ff/W", "line 4: layer name 'ff/W' contains '/'"),
])
def test_invalid_architecture_in_a_model_is_a_one_line_error(tmp_path, rng, caplog,
                                                               old, new, expected):
    model = tmp_path / "model.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(
        model, lambda h: h.update(architecture=h["architecture"].replace(old, new)))
    sentences = tmp_path / "in.txt"
    sentences.write_text("w1 w2\n")
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert message.startswith(f"{model}: model architecture: {expected}")


def test_nonfinite_model_and_nbest_scores_are_one_line_errors(tmp_path, rng, caplog):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    good = tmp_path / "good.clm"
    cl.save_model(good, net)
    support.file_block_views(net)["rec/U_f"][1, 2] = np.nan
    bad = tmp_path / "bad.clm"
    cl.save_model(bad, net)
    sentences = tmp_path / "in.txt"
    sentences.write_text("w1 w2\n")
    message = _one_line_error(caplog, ["score", "--model", str(bad), "--input", str(sentences)])
    assert "'rec/U_f'" in message and "non-finite" in message

    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1 -1 -3 w1 w2\nu1 nan -3 w1 w3\n")
    message = _one_line_error(caplog, ["rescore", "--model", str(good), "--nbest", str(nbest)])
    assert "nbest.txt: line 2" in message


def test_error_in_a_worker_part_is_a_one_line_error(tmp_path, rng, caplog, monkeypatch):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    model = tmp_path / "model.clm"
    cl.save_model(model, net)
    sentences = tmp_path / "in.txt"
    sentences.write_text("".join(f"w{i} w{j}\n" for i in range(6) for j in range(6)))
    caller = threading.get_ident()
    step_part = cl.Network._step_part

    def failing_in_workers(self, state, word_ids):
        if threading.get_ident() != caller:
            raise cl.NonFiniteError("time step 0: node 'rec' (lstm) produced a non-finite value")
        return step_part(self, state, word_ids)

    # levels of 16 rows and more run in two parts, each on a worker
    monkeypatch.setattr(cl.network, "PART_ROWS", 8)
    monkeypatch.setattr(cl.network, "cpu_count", lambda: 2)
    monkeypatch.setattr(cl.Network, "_step_part", failing_in_workers)
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert message == "time step 0: node 'rec' (lstm) produced a non-finite value"


def test_score_and_rescore_name_the_threads_of_their_widest_step(toy_files, tmp_path, caplog,
                                                                 monkeypatch):
    model = _train(toy_files)
    narrow = tmp_path / "narrow"
    _write_nbest(narrow)
    # 16 distinct prefixes "<s> a X Y" at level 3: two parts of 8 rows
    wide = tmp_path / "wide"
    wide.write_text("".join(f"u1 0.0 -1.0 a {x} {y}\n" for x in "abcd" for y in "abcd"))
    monkeypatch.setattr(cl.network, "PART_ROWS", 8)
    monkeypatch.setattr(cl.network, "cpu_count", lambda: 3)
    for inputs, threads in ((narrow, 1), (wide, 2)):
        sentences = tmp_path / "sentences"
        sentences.write_text("".join(line.split(" ", 3)[3] + "\n"
                                     for line in inputs.read_text().splitlines()))
        for argv in (["score", "--model", str(model), "--input", str(sentences)],
                     ["rescore", "--model", str(model), "--nbest", str(inputs)]):
            monkeypatch.setattr(cl.network, "_most_threads", 1)  # as in a new process
            caplog.clear()
            with caplog.at_level(logging.INFO):
                assert main(argv) == 0
            assert caplog.records[-1].getMessage().endswith(f"; threads: {threads}")


def test_nonfinite_scale_or_grid_value_is_a_one_line_error(tmp_path, rng, caplog):
    model = tmp_path / "model.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    nbest = tmp_path / "nbest.txt"
    nbest.write_text("u1 -1.0 -2.0 w1 w2\n")
    refs = tmp_path / "refs.txt"
    refs.write_text("u1 w1 w2\n")
    rescore = ["rescore", "--model", str(model), "--nbest", str(nbest)]
    for extra in (["--s-nn", "nan"], ["--s-bo", "inf"],
                  ["--tune", "--refs", str(refs), "--grid-snn", "1,inf"]):
        assert "finite" in _one_line_error(caplog, rescore + extra)


def test_negative_max_passes_is_a_one_line_error(tmp_path, caplog):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c a b\n")
    out = tmp_path / "classes.tsv"
    message = _one_line_error(caplog, ["classes", "--corpus", str(corpus), "--num-classes", "2",
                                       "--max-passes", "-1", "--output", str(out)])
    assert "max_passes" in message and "-1" in message
    assert not out.exists()


def _drop_last_class_entry(header):
    """Shorten class_of and membership by one word, keeping every class normalised."""
    cls = header["classes"]
    c = cls["class_of"].pop()
    cls["membership"].pop()
    members = [w for w, k in enumerate(cls["class_of"]) if k == c]
    total = sum(cls["membership"][w] for w in members)
    for w in members:
        cls["membership"][w] /= total


@pytest.mark.parametrize("edit, field", [
    (_drop_last_class_entry, "classes.class_of"),
    (lambda h: h["vocabulary"]["counts"].pop(), "vocabulary.counts"),
    (lambda h: h["classes"]["membership"].append(0.0), "classes.membership"),
])
def test_header_table_of_wrong_length_is_a_one_line_error(tmp_path, rng, caplog, edit, field):
    model = tmp_path / "model.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=2))
    support.rewrite_header(model, edit)
    sentences = tmp_path / "in.txt"
    sentences.write_text("w1 w5 w2\n")
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert f"{field!r}" in message and "vocabulary words" in message


@pytest.mark.parametrize("command", ["score", "rescore", "sample"])
def test_reserved_token_repeated_in_a_model_is_a_one_line_error(tmp_path, rng, caplog, command):
    # the table <s> </s> <unk> w0 <unk> w2 ... once loaded with every word
    # after the repeat reading its neighbour's class and membership
    model = tmp_path / "model.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(model, lambda h: h["vocabulary"]["words"].__setitem__(4, "<unk>"))
    inputs = tmp_path / "in.txt"
    inputs.write_text("u1 -1.0 -2.0 w1 w5\n" if command == "rescore" else "w1 w5\n")
    argv = {"score": ["--input", str(inputs)], "rescore": ["--nbest", str(inputs)],
            "sample": []}[command]
    message = _one_line_error(caplog, [command, "--model", str(model), *argv])
    assert message.endswith("duplicate word '<unk>'")


@pytest.mark.parametrize("flag, value", [
    ("--clip-norm", "nan"), ("--clip-norm", "-1"), ("--clip-norm", "inf"),
    ("--learning-rate", "nan"), ("--learning-rate", "inf"),
    ("--min-improvement", "nan"), ("--min-improvement", "inf"), ("--patience", "-1"),
])
def test_non_finite_or_negative_hyperparameter_is_a_one_line_error(toy_files, caplog,
                                                                    flag, value):
    model = toy_files["dir"] / "model.clm"
    with caplog.at_level(logging.INFO):
        rc = main(["train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
                   "--arch", str(toy_files["arch"]), "--output-model", str(model), flag, value])
    assert rc == 1
    # refused before any input is read: the error is the only line logged
    [record] = caplog.records
    assert record.levelno == logging.ERROR and record.exc_info is None
    assert "\n" not in record.getMessage()
    assert flag[2:].replace("-", "_") in record.getMessage()
    assert not model.exists()


@pytest.mark.parametrize("value", ["3", "0", "-1"])
def test_a_max_vocab_below_four_is_refused_before_any_input_is_read(toy_files, caplog, value):
    # the training corpus does not exist: reading it would be the error
    message = _one_line_error(caplog, [
        "train", "--train", str(toy_files["dir"] / "missing.txt"), "--dev", str(toy_files["dev"]),
        "--arch", str(toy_files["arch"]), "--output-model", str(toy_files["dir"] / "m.clm"),
        "--max-vocab", value])
    assert message == f"--max-vocab must be at least 4, got {value}"


def test_architecture_lines_end_where_text_mode_ends_them(toy_files, caplog):
    # form feeds, U+2028 and the other line breaks of str.splitlines() stay
    # inside a comment; "\n", "\r\n" and a lone "\r" end a line
    lines = support.SMALL_ARCH.splitlines()
    lines[1:1] = ["# projection\u2028of words", "# one\x0ctwo\x1cthree\x1dfour\x1efive\x85six"]

    def write(lines):
        ends = ["\r\n", "\r", "\n"] * len(lines)
        toy_files["arch"].write_text("".join(map("".join, zip(lines, ends))), newline="")

    write(lines)
    assert _train(toy_files, extra=["--max-epochs", "1"]).exists()
    # a bad declaration after such comments is named by its line in the file
    lines[4] = lines[4].replace("size=16", "size=-4")
    write(lines)
    message = _one_line_error(caplog, [
        "train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
        "--arch", str(toy_files["arch"]), "--output-model", str(toy_files["dir"] / "bad.clm")])
    assert message.startswith(f"{toy_files['arch']}: line 5: ")
    assert "size" in message


def test_dropout_rate_survives_save_and_load(toy_files):
    # 0.9999999 printed with %g reads 1, which the parser rejects
    arch = support.SMALL_ARCH.replace(
        "layer type=lstm name=hidden_layer_1 input=projection_layer",
        "layer type=dropout name=drop input=projection_layer dropout_rate=0.9999999\n"
        "layer type=lstm name=hidden_layer_1 input=drop")
    toy_files["arch"].write_text(arch)
    model = _train(toy_files, extra=["--max-epochs", "1"])
    network, _ = cl.load_model(model)
    assert network.desc.by_name["drop"].dropout_rate == 0.9999999


@pytest.mark.parametrize("class_id", [10**15, 10**23])
def test_class_id_beyond_the_word_count_is_a_one_line_error(toy_files, caplog, class_id):
    # a class per id up to the largest would need more words than the file has
    classes = toy_files["dir"] / "classes.tsv"
    classes.write_text(f"a\t0\t1.0\nb\t1\t0.5\nc\t1\t0.5\nd\t{class_id}\t1.0\n")
    model = toy_files["dir"] / "model.clm"
    message = _one_line_error(caplog, [
        "train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
        "--arch", str(toy_files["arch"]), "--output-model", str(model),
        "--classes", str(classes)])
    assert "classes.tsv: line 4" in message and str(class_id) in message
    assert not model.exists()


def test_class_count_beyond_the_vocabulary_in_a_model_is_a_one_line_error(tmp_path, rng,
                                                                         caplog):
    model = tmp_path / "model.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(model, lambda h: h["classes"].update(num_classes=10**15))
    sentences = tmp_path / "in.txt"
    sentences.write_text("w1 w2\n")
    message = _one_line_error(caplog, ["score", "--model", str(model), "--input", str(sentences)])
    assert "'classes.num_classes'" in message and str(10**15) in message


def test_unallocatable_layer_is_a_one_line_error(toy_files, caplog):
    # 10**15 columns cannot be allocated anywhere, so this fails at once
    toy_files["arch"].write_text(support.SMALL_ARCH.replace(
        "input=class_input size=8", f"input=class_input size={10**15}"))
    model = toy_files["dir"] / "model.clm"
    message = _one_line_error(caplog, [
        "train", "--train", str(toy_files["train"]), "--dev", str(toy_files["dev"]),
        "--arch", str(toy_files["arch"]), "--output-model", str(model)])
    assert "out of memory" in message
    assert not model.exists()


def _reader_argv(kind, bad, toy_files, rng):
    """A command line whose input of the given kind is the file `bad`."""
    files = {k: str(v) for k, v in toy_files.items()}
    train = ["train", "--train", files["train"], "--dev", files["dev"], "--max-epochs", "1",
             "--output-model", str(toy_files["dir"] / "m.clm")]
    if kind == "corpus":
        return ["classes", "--corpus", str(bad), "--num-classes", "2",
                "--output", str(toy_files["dir"] / "c.tsv")]
    if kind == "class file":
        return [*train, "--arch", files["arch"], "--classes", str(bad)]
    if kind == "architecture":
        return [*train, "--arch", str(bad)]
    model = toy_files["dir"] / "random.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    nbest = toy_files["dir"] / "nbest.txt"
    nbest.write_text("u1 -1.0 -2.0 w1 w2\n")
    if kind == "n-best file":
        return ["rescore", "--model", str(model), "--nbest", str(bad)]
    return ["rescore", "--model", str(model), "--nbest", str(nbest), "--tune", "--refs", str(bad)]


@pytest.mark.parametrize("kind, good_line", [
    ("corpus", b"a b c\n"),
    ("class file", b"a\t0\t1.0\n"),
    ("architecture", support.SMALL_ARCH.encode().splitlines(keepends=True)[0]),
    ("n-best file", b"u1 -1.0 -2.0 w1 w2\n"),
    ("reference file", b"u1 w1 w2\n"),
])
def test_invalid_utf8_is_a_one_line_error_naming_file_and_line(toy_files, rng, caplog, kind,
                                                               good_line):
    bad = toy_files["dir"] / "bad.txt"
    bad.write_bytes(good_line + b"caf\xc3\xa9 \xff\n" + good_line)
    message = _one_line_error(caplog, _reader_argv(kind, bad, toy_files, rng))
    assert message == f"{bad}: line 2: invalid UTF-8"


def test_a_late_invalid_line_of_a_class_corpus_leaves_no_class_file(tmp_path, caplog,
                                                                    monkeypatch):
    # 90 kB of text before the bad line: pieces are read and coded before
    # it fails
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"w1 w2 w3\n" * 10_000 + b"w1 \xff\n" + b"w2\n")
    out = tmp_path / "classes.tsv"
    pieces = []
    read_token_pieces = cl.cli.read_token_pieces

    def recording(path):
        for piece in read_token_pieces(path):
            pieces.append(len(piece))
            yield piece

    monkeypatch.setattr(cl.cli, "read_token_pieces", recording)
    message = _one_line_error(caplog, ["classes", "--corpus", str(bad), "--num-classes", "2",
                                       "--output", str(out)])
    assert message == f"{bad}: line 10001: invalid UTF-8"
    assert pieces and sum(pieces) < 30_000
    assert not out.exists()


def _small_groups(monkeypatch):
    """Score in groups of a few short sentences; returns the group sizes scored."""
    sizes = []
    score_arrays = cl.scoring.score_arrays

    def recording(network, sentences, unk_policy):
        sizes.append(len(sentences))
        return score_arrays(network, sentences, unk_policy)

    monkeypatch.setattr(cl.scoring, "GROUP_ELEMENTS", 40)
    monkeypatch.setattr(cl.scoring, "score_arrays", recording)
    return sizes


@pytest.mark.parametrize("to_file", [True, False])
def test_a_late_invalid_line_of_a_scored_input_leaves_no_output(tmp_path, rng, caplog, capsys,
                                                                monkeypatch, to_file):
    model = tmp_path / "random.clm"
    cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"w1 w2 w3\n" * 200 + b"w1 \xff\n" + b"w2\n")
    out = tmp_path / "out.txt"
    sizes = _small_groups(monkeypatch)
    argv = ["score", "--model", str(model), "--input", str(bad)]
    message = _one_line_error(caplog, argv + ["--output", str(out)] * to_file)
    assert message == f"{bad}: line 201: invalid UTF-8"
    assert len(sizes) > 2  # groups scored before the line is read
    assert not out.exists() and capsys.readouterr().out == ""


def test_score_output_does_not_depend_on_the_groups(tmp_path, rng, monkeypatch, capsys):
    net = support.random_class_network(rng, vocab_size=12, num_classes=4)
    model = tmp_path / "random.clm"
    cl.save_model(model, net)
    words = [*net.vocab.words[3:], "OOV"]
    corpus = tmp_path / "in.txt"
    corpus.write_text("".join(" ".join(words[int(i)] for i in rng.integers(0, len(words), n))
                              + "\n" * (1 + (n == 3)) for n in rng.integers(1, 12, 80).tolist()))
    argv = ["score", "--model", str(model), "--input", str(corpus), "--unk-penalty", "0"]
    assert main(argv + ["--output", str(tmp_path / "whole.txt")]) == 0
    sizes = _small_groups(monkeypatch)
    assert main(argv + ["--output", str(tmp_path / "groups.txt")]) == 0
    assert len(sizes) > 5 and sum(sizes) == 80
    whole = (tmp_path / "whole.txt").read_bytes()
    assert (tmp_path / "groups.txt").read_bytes() == whole
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == whole
    assert whole.decode().splitlines()[-2].startswith("80\t")


@pytest.mark.parametrize("text", ["", "\n  \n",
                                  pytest.param(" \t\r\n" * 50_000, id="several pieces")])
@pytest.mark.parametrize("role", ["classes", "train", "dev", "score"])
def test_empty_corpus_is_a_one_line_error_naming_the_file(toy_files, rng, caplog, text, role):
    empty = toy_files["dir"] / "empty.txt"
    empty.write_text(text)
    out = str(toy_files["dir"] / "out")
    if role == "classes":
        argv = ["classes", "--corpus", str(empty), "--num-classes", "2", "--output", out]
    elif role == "score":
        model = toy_files["dir"] / "random.clm"
        cl.save_model(model, support.random_class_network(rng, vocab_size=6, num_classes=3))
        argv = ["score", "--model", str(model), "--input", str(empty)]
    else:
        corpora = {"train": str(toy_files["train"]), "dev": str(toy_files["dev"]),
                   role: str(empty)}
        argv = ["train", "--train", corpora["train"], "--dev", corpora["dev"], "--arch",
                str(toy_files["arch"]), "--output-model", out]
    assert _one_line_error(caplog, argv) == f"{empty}: empty corpus"


@pytest.mark.parametrize("command", ["classes", "train", "score", "rescore"])
def test_output_path_that_cannot_be_a_file_fails_before_any_input_is_read(tmp_path, caplog,
                                                                          command):
    # every input is missing too: the output is checked first, also when it
    # names a directory
    missing = str(tmp_path / "missing.txt")
    out = tmp_path / "no" / "such" / "out"
    argv = {
        "classes": ["classes", "--corpus", missing, "--output", str(out)],
        "train": ["train", "--train", missing, "--dev", missing, "--arch", missing,
                  "--output-model", str(out)],
        "score": ["score", "--model", missing, "--input", missing, "--output", str(out)],
        "rescore": ["rescore", "--model", missing, "--nbest", missing, "--output", str(out)],
    }[command]
    message = _one_line_error(caplog, argv)
    assert message == f"{out}: directory {out.parent} does not exist"
    assert not out.parent.exists()
    out.mkdir(parents=True)
    message = _one_line_error(caplog, argv)
    assert message == f"{out}: is a directory"
