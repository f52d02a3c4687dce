"""Training-loop policies: checkpointing, annealing, stopping, determinism;
validations beside the next batch against one-CPU training;
backpropagation through time against the unrolled reference."""

import dataclasses
import itertools
import logging
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import classlm as cl
from classlm.graph import _OPS, ROW_BLOCK, GraphError, forward_eval
from classlm.training import batch_gradients, batch_loss, dropout_mask

import support
from support import ReferenceGraph

TOY = [["a", "b", "c", "d"]] * 200


def _config(alg="adagrad", **kw):
    defaults = dict(batch_size=16, max_epochs=3, patience=50, seed=1)
    defaults.update(kw)
    opt = kw.pop("optimizer", None) or cl.OptimizerConfig(alg)
    defaults.pop("optimizer", None)
    return cl.TrainingConfig(optimizer=opt, **defaults)


def test_training_reduces_dev_perplexity():
    net = support.small_network(TOY, num_classes=4)
    state = cl.train(net, TOY, TOY[:10], _config())
    ppls = [p for _, p, _ in state.history]
    assert ppls[-1] < ppls[0]
    assert state.best_perplexity == min(ppls)


def test_returned_network_is_best_checkpoint():
    net = support.small_network(TOY, num_classes=4)
    state = cl.train(net, TOY, TOY[:10], _config(max_epochs=4))
    recomputed = cl.corpus_perplexity(net, TOY[:10])
    assert recomputed == pytest.approx(state.best_perplexity, rel=1e-12)


def test_patience_zero_stops_on_first_failure():
    net = support.small_network(TOY, num_classes=4)
    # a destructive learning rate makes the second validation worse
    cfg = _config(optimizer=cl.OptimizerConfig("sgd", learning_rate=50.0),
                  validation_interval=1, patience=0, max_epochs=2)
    state = cl.train(net, TOY, TOY[:10], cfg)
    assert state.stopped_reason == "patience exceeded"
    assert state.failures == 1
    assert cl.corpus_perplexity(net, TOY[:10]) == pytest.approx(state.best_perplexity, rel=1e-12)


def test_identical_seeds_give_identical_histories():
    net1 = support.small_network(TOY, num_classes=4, seed=3)
    net2 = support.small_network(TOY, num_classes=4, seed=3)
    s1 = cl.train(net1, TOY, TOY[:10], _config())
    s2 = cl.train(net2, TOY, TOY[:10], _config())
    assert s1.history == s2.history
    for name in net1.params:
        np.testing.assert_array_equal(net1.params[name], net2.params[name])


def test_different_seeds_change_the_run():
    # varied sentences so the seeded batch shuffle actually matters
    corpus = ([["a", "b", "c", "d"]] * 60 + [["d", "c", "b", "a"]] * 60
              + [["b", "a", "d", "c"]] * 60)
    net1 = support.small_network(corpus, num_classes=4, seed=3)
    net2 = support.small_network(corpus, num_classes=4, seed=3)
    s1 = cl.train(net1, corpus, corpus[:10], _config(seed=1))
    s2 = cl.train(net2, corpus, corpus[:10], _config(seed=2))
    assert s1.history != s2.history


def test_sgd_anneals_on_failures_adaptive_does_not():
    # force every validation after the first to count as a failure
    corpus = TOY[:64]
    for alg, expect_anneal in (("sgd", True), ("adagrad", False), ("adam", False)):
        net = support.small_network(corpus, num_classes=4)
        cfg = _config(optimizer=cl.OptimizerConfig(alg), min_improvement=1.0,
                      validation_interval=2, patience=3, max_epochs=2)
        state = cl.train(net, corpus, corpus[:8], cfg)
        scales = [s for _, _, s in state.history]
        assert state.failures > 0
        if expect_anneal:
            assert scales[-1] < 1.0
            assert scales[-1] == pytest.approx(0.5 ** state.failures)
        else:
            assert all(s == 1.0 for s in scales)


def test_divergence_aborts_with_last_good_checkpoint():
    net = support.small_network(TOY, num_classes=4)
    cfg = _config(
        optimizer=cl.OptimizerConfig("sgd", learning_rate=1e18, clip_norm=None),
        validation_interval=1, max_epochs=2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        state = cl.train(net, TOY, TOY[:10], cfg)
    assert state.diverged
    assert state.stopped_reason == "diverged"
    # parameters are finite: the best checkpoint, not the exploded iterate
    for value in net.params.values():
        assert np.isfinite(value).all()


def test_long_sentences_are_split_into_segments():
    corpus = [["a", "b", "c", "d"] * 10]  # 40 tokens, 41 predicted positions
    net = support.small_network(corpus, num_classes=4)
    cfg = _config(max_sequence_length=8, max_epochs=1, batch_size=4)
    state = cl.train(net, corpus, corpus, cfg)
    # ceil(41 / 8) = 6 segments -> 2 batches of 4
    assert state.batches == 2


def test_empty_corpora_rejected():
    net = support.small_network(TOY, num_classes=4)
    with pytest.raises(ValueError, match="development"):
        cl.train(net, TOY, [], _config())
    with pytest.raises(ValueError, match="training"):
        cl.train(net, [], TOY[:5], _config())


def test_validation_interval_counts_batches():
    net = support.small_network(TOY, num_classes=4)
    cfg = _config(validation_interval=5, max_epochs=1)
    state = cl.train(net, TOY, TOY[:10], cfg)
    batch_points = [b for b, _, _ in state.history]
    assert batch_points[:2] == [5, 10]
    # a final validation covers the leftover batches of the last epoch
    assert batch_points[-1] == state.batches


def test_dev_perplexity_matches_standalone_scorer():
    net = support.small_network(TOY, num_classes=4)
    state = cl.train(net, TOY, TOY[:10], _config(max_epochs=2))
    assert cl.corpus_perplexity(net, TOY[:10], "include") == pytest.approx(
        state.best_perplexity, abs=1e-9
    )


def test_training_config_validation():
    with pytest.raises(ValueError):
        cl.TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        cl.TrainingConfig(annealing_factor=1.5)
    with pytest.raises(ValueError):
        cl.TrainingConfig(validation_interval=-1)
    for value in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="min_improvement"):
            cl.TrainingConfig(min_improvement=value)


def test_a_training_step_holds_little_beyond_its_forward_values():
    # a class-input LSTM batch of the benchmark's size: the backward pass
    # keeps the forward values it reads, and each adjoint only until it is
    # passed on; the peak reads about 1.8 times the values held after the
    # forward pass
    rng = np.random.default_rng(3)
    net = support.random_class_network(rng, vocab_size=1000, num_classes=300,
                                       sizes=(64, 128, 128))
    inputs = rng.integers(0, len(net.vocab), size=(32, 40))
    targets = rng.integers(0, len(net.vocab), size=(32, 40))
    mask = (np.arange(40) < rng.integers(30, 41, size=(32, 1))).astype(np.float64)
    batch_gradients(net, inputs, targets, mask, None)  # graph built, caches warm
    tracemalloc.start()
    try:
        _, ws = batch_loss(net, inputs, targets, mask, None)
        forward, _ = tracemalloc.get_traced_memory()
        del ws
        tracemalloc.reset_peak()
        batch_gradients(net, inputs, targets, mask, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward > 10e6
    assert peak <= 2.0 * forward


def test_a_recurrent_backward_holds_one_step_of_gate_adjoints():
    # the batch above: the LSTM backward adds each step's parameter
    # gradients as it goes and keeps one step's gate adjoints, so the
    # peak reads about 1.5 times the forward values
    rng = np.random.default_rng(3)
    net = support.random_class_network(rng, vocab_size=1000, num_classes=300,
                                       sizes=(64, 128, 128))
    inputs = rng.integers(0, len(net.vocab), size=(32, 40))
    targets = rng.integers(0, len(net.vocab), size=(32, 40))
    mask = (np.arange(40) < rng.integers(30, 41, size=(32, 1))).astype(np.float64)
    batch_gradients(net, inputs, targets, mask, None)
    tracemalloc.start()
    try:
        _, ws = batch_loss(net, inputs, targets, mask, None)
        forward, _ = tracemalloc.get_traced_memory()
        del ws
        tracemalloc.reset_peak()
        batch_gradients(net, inputs, targets, mask, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward > 10e6
    assert peak <= 1.6 * forward


def test_divergence_names_batch_and_time_step(caplog):
    # a word-input network whose embedding row of "w" is NaN: the first
    # batch that feeds "w" fails at the time step where it is first fed
    corpus = [["a", "b"], ["a", "b", "c", "w", "d"], ["c", "d", "a"]]
    desc = cl.parse_description("input type=word name=i\n"
                                "layer type=projection name=p input=i size=3\n"
                                "layer type=lstm name=h input=p size=4\n"
                                "layer type=softmax name=o input=h\n")
    vocab = cl.build_vocabulary(corpus)
    net = cl.instantiate_network(desc, vocab, seed=2)
    net.params["p/E_i"][vocab.ids["w"]] = np.nan
    cfg = _config(batch_size=1, max_epochs=1, seed=3)

    # time step 4: after <s>, a, b, c; the batch is found as the trainer orders them
    segments = cl.training._segments(net, corpus, cfg.max_sequence_length)
    batches = cl.training._make_batches(segments, 1, np.random.default_rng(cfg.seed))
    batch = 1 + next(i for i, (inputs, _, _) in enumerate(batches)
                     if vocab.ids["w"] in inputs)
    assert batch > 1
    with pytest.raises(cl.NonFiniteError, match=r"^time step 4: node 'gather_\d+'"):
        batch_gradients(net, *batches[batch - 1], None)

    with caplog.at_level(logging.ERROR, logger="classlm.training"):
        state = cl.train(net, corpus, corpus[:1], cfg)
    assert state.diverged and state.batches == batch - 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR][0].startswith(
        f"training diverged at batch {batch}, time step 4: node 'gather_")


# -- validations beside the next batch ---------------------------------------
#
# With two CPUs or more, a validation that a batch follows runs on a worker
# thread beside that batch's gradients.  Every run below is compared with
# the same run on one CPU, where each validation runs on the calling thread
# as soon as it is due.

MARKOV = support.markov_corpus(np.random.default_rng(4), vocab_size=30, n_tokens=3000)
MARKOV_DEV = MARKOV[:40]
VALIDATION_THREAD = "classlm-validation"

SCHEDULES = {
    "an interval inside an epoch": dict(validation_interval=3, max_epochs=2),
    "once per epoch": dict(max_epochs=3),
    "sgd annealing": dict(validation_interval=2, min_improvement=0.05, max_epochs=2),
    "a patience stop mid-epoch": dict(validation_interval=3, min_improvement=0.05, patience=1,
                                      max_epochs=5),
    "a patience stop at an epoch's end": dict(min_improvement=0.5, patience=0, max_epochs=5),
    "adam": dict(optimizer=cl.OptimizerConfig("adam"), validation_interval=2, max_epochs=2),
}


def _markov_config(**kw):
    kw.setdefault("optimizer", cl.OptimizerConfig("sgd", learning_rate=1.0))
    return _config(seed=2, **kw)


def _validation_threads():
    return [t for t in threading.enumerate() if t.name.startswith(VALIDATION_THREAD)]


def _trained(monkeypatch, caplog, cpus, cfg, patch):
    """(state, parameter bytes, log lines) of a run on `cpus` CPUs, after
    `patch()`."""
    monkeypatch.setattr(cl.training, "cpu_count", lambda: cpus)
    patch()
    net = support.small_network(MARKOV, num_classes=6)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="classlm.training"):
        state = cl.train(net, MARKOV, MARKOV_DEV, cfg)
    assert not _validation_threads()
    return state, {k: v.tobytes() for k, v in net.params.items()}, caplog.messages


def _last_batch(cfg):
    segments = cl.training._segments(support.small_network(MARKOV, num_classes=6), MARKOV,
                                     cfg.max_sequence_length)
    return -(-len(segments[1]) // cfg.batch_size) * cfg.max_epochs


def _replaced_at(call, function, replacement):
    """`function`, except that its `call`-th call (from 1) runs `replacement`."""
    calls = itertools.count(1)
    return lambda *args: (replacement if next(calls) == call else function)(*args)


def _raising(error):
    def raise_(*args):
        raise error
    return raise_


def assert_same_training(monkeypatch, caplog, cfg, patch=lambda: None):
    """Train on two CPUs and on one, each after `patch()`; every outcome is
    the same.  Returns the two runs' states."""
    beside, params, lines = _trained(monkeypatch, caplog, 2, cfg, patch)
    alone, alone_params, alone_lines = _trained(monkeypatch, caplog, 1, cfg, patch)
    for f in dataclasses.fields(cl.TrainingState):
        if f.compare:  # repr: a nan equals itself
            assert repr(getattr(beside, f.name)) == repr(getattr(alone, f.name)), f.name
    assert params == alone_params
    assert lines == alone_lines
    assert alone.validations_beside == 0
    return beside, alone


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_validations_beside_a_batch_train_as_on_one_cpu(monkeypatch, caplog, schedule):
    cfg = _markov_config(**SCHEDULES[schedule])
    state, _ = assert_same_training(monkeypatch, caplog, cfg)
    # every validation that a batch follows ran beside it
    assert state.validations_beside == sum(b < _last_batch(cfg) for b, _, _ in state.history) > 0
    per_epoch = _last_batch(cfg) // cfg.max_epochs
    if schedule.startswith("a patience stop"):
        assert state.stopped_reason == "patience exceeded"
        assert state.validations_beside == len(state.history)
    if schedule == "a patience stop mid-epoch":
        assert state.batches % per_epoch != 0
    if schedule == "a patience stop at an epoch's end":
        # the validation ran beside the next epoch's first batch, and names its own epoch
        assert state.batches % per_epoch == 0 and state.epoch < cfg.max_epochs
        assert caplog.messages[-2].startswith(f"validation: epoch={state.epoch}"
                                              f" batch={state.batches} ")
    if schedule == "sgd annealing":
        assert state.lr_scale < 1.0 and state.stopped_reason == "max epochs reached"


def test_threads_switching_at_every_chance_train_as_on_one_cpu(monkeypatch, caplog):
    # a validation after every batch, and the interpreter switching threads
    # as often as it can: shared state written without a guard would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        state, _ = assert_same_training(monkeypatch, caplog,
                                        _markov_config(validation_interval=1, max_epochs=1))
    finally:
        sys.setswitchinterval(interval)
    assert state.validations_beside == state.batches - 1


@pytest.mark.parametrize("patience", [1000, 0])
def test_divergence_in_the_batch_after_a_validation(monkeypatch, caplog, patience):
    # batch 7 diverges; a stop at the validation after batch 6 comes first
    def patch():
        monkeypatch.setattr(cl.training, "batch_gradients", _replaced_at(
            7, batch_gradients, _raising(cl.NonFiniteError("injected"))))

    cfg = _markov_config(validation_interval=3, min_improvement=1.0, patience=patience,
                         max_epochs=2)
    state, _ = assert_same_training(monkeypatch, caplog, cfg, patch)
    if patience:
        assert state.diverged and state.batches == 6
        assert caplog.messages[-2] == "training diverged at batch 7, injected"
    else:
        assert state.stopped_reason == "patience exceeded" and state.batches == 6
        assert not any("diverged" in line for line in caplog.messages)


def test_a_nonfinite_dev_perplexity_beside_a_batch(monkeypatch, caplog):
    def patch():
        monkeypatch.setattr(cl.training, "corpus_perplexity", _replaced_at(
            3, cl.corpus_perplexity, lambda *args: float("nan")))

    state, _ = assert_same_training(monkeypatch, caplog,
                                    _markov_config(validation_interval=3, max_epochs=2), patch)
    assert state.diverged and state.batches == 9 and len(state.history) == 3


def test_validations_run_on_one_worker_in_the_callers_context(monkeypatch):
    seen = []

    def recording(network, sentences):
        seen.append((threading.current_thread().name, np.geterr()["over"],
                     len(_validation_threads())))
        return cl.corpus_perplexity(network, sentences)

    monkeypatch.setattr(cl.training, "corpus_perplexity", recording)
    for cpus in (2, 1):
        monkeypatch.setattr(cl.training, "cpu_count", lambda: cpus)
        seen.clear()
        net = support.small_network(MARKOV, num_classes=6)
        with np.errstate(over="ignore"):
            state = cl.train(net, MARKOV, MARKOV_DEV, _markov_config(validation_interval=5))
        assert not _validation_threads()
        assert len(seen) == len(state.history) and {over for _, over, _ in seen} == {"ignore"}
        names = [name for name, _, _ in seen]
        if cpus == 1:  # no thread is started
            assert names == [threading.current_thread().name] * len(seen)
            assert {alive for _, _, alive in seen} == {0}
        else:  # all but the last, which no batch follows
            assert all(name.startswith(VALIDATION_THREAD) for name in names[:-1])
            assert names[-1] == threading.current_thread().name
            assert state.validations_beside == len(seen) - 1


@pytest.mark.parametrize("target, call", [("corpus_perplexity", 2), ("batch_gradients", 4)])
def test_no_validation_thread_outlives_a_failed_train(monkeypatch, target, call):
    # a failure on either thread while a validation runs beside batch 4
    # reaches the caller, after the worker has ended
    monkeypatch.setattr(cl.training, target, _replaced_at(
        call, getattr(cl.training, target), _raising(RuntimeError("injected"))))
    monkeypatch.setattr(cl.training, "cpu_count", lambda: 2)
    net = support.small_network(MARKOV, num_classes=6)
    with pytest.raises(RuntimeError, match="injected"):
        cl.train(net, MARKOV, MARKOV_DEV, _markov_config(validation_interval=3))
    assert not _validation_threads()


# -- backpropagation through time against the unrolled reference -------------
#
# The trainer once built one graph per segment length, every position
# unrolled with its own input names, each LSTM or GRU step a subgraph of
# matmul, add, sigmoid, tanh and mul nodes, and differentiated it in one
# backward pass.  That trainer and its step functions are kept here as the
# reference: the time-major trainer must give the same loss and the same
# gradients bit for bit, and a network step the same bits as the old
# one-position evaluation graph.  The reference keeps one parameter per gate,
# bound to the gate's block of the network's stacked W, U and b.  It binds
# each position's values with a leading time axis of 1, the engine's one
# layout, and builds a support.ReferenceGraph: its add, sigmoid, one_minus
# and sum nodes, which no network builds, evaluate under the reference_ops
# fixture, which adds their rules (support.REFERENCE_OPS) to the engine's.

REFERENCE_PARAMS = {
    "lstm": ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f", "W_o", "U_o", "b_o", "W_c", "U_c", "b_c"),
    "gru": ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h"),
    "dropout": (),
}


def _gated_affine(g, x, h, w, u, b):
    return g.add_bias(g.add(g.matmul(x, w), g.matmul(h, u)), b)


def _lstm_step(g, x, h_prev, c_prev, p):
    i = g.sigmoid(_gated_affine(g, x, h_prev, p["W_i"], p["U_i"], p["b_i"]))
    f = g.sigmoid(_gated_affine(g, x, h_prev, p["W_f"], p["U_f"], p["b_f"]))
    o = g.sigmoid(_gated_affine(g, x, h_prev, p["W_o"], p["U_o"], p["b_o"]))
    c_hat = g.tanh(_gated_affine(g, x, h_prev, p["W_c"], p["U_c"], p["b_c"]))
    c_new = g.add(g.mul(f, c_prev), g.mul(i, c_hat))
    h_new = g.mul(o, g.tanh(c_new))
    return h_new, c_new


def _gru_step(g, x, h_prev, p):
    z = g.sigmoid(_gated_affine(g, x, h_prev, p["W_z"], p["U_z"], p["b_z"]))
    r = g.sigmoid(_gated_affine(g, x, h_prev, p["W_r"], p["U_r"], p["b_r"]))
    h_hat = g.tanh(_gated_affine(g, x, g.mul(r, h_prev), p["W_h"], p["U_h"], p["b_h"]))
    return g.add(g.mul(g.one_minus(z), h_prev), g.mul(z, h_hat))


def _build_position(net, g, state_in, train_mode):
    """One time step of `net` with node-level recurrent steps; returns
    (logits, state_out)."""
    acts, state_out, logits = {}, {}, None
    for spec in net.desc.layers:
        name = spec.name
        if spec.kind in ("class_input", "word_input"):
            acts[name] = g.input(f"tokens/{name}")
            continue
        if spec.kind == "projection":
            acts[name] = g.concat([g.gather_rows(g.parameter(f"{name}/E_{src}"), acts[src])
                                   for src in spec.inputs])
            continue
        x = g.concat([acts[src] for src in spec.inputs])
        names = REFERENCE_PARAMS.get(spec.kind, ("W", "b"))
        p = {pname: g.parameter(f"{name}/{pname}") for pname in names}
        if spec.kind == "lstm":
            h, c = _lstm_step(g, x, state_in[f"h/{name}"], state_in[f"c/{name}"], p)
            acts[name] = state_out[f"h/{name}"] = h
            state_out[f"c/{name}"] = c
        elif spec.kind == "gru":
            acts[name] = state_out[f"h/{name}"] = _gru_step(g, x, state_in[f"h/{name}"], p)
        elif spec.kind == "tanh":
            acts[name] = g.tanh(g.add_bias(g.matmul(x, p["W"]), p["b"]))
        elif spec.kind == "dropout":
            if train_mode and spec.dropout_rate > 0.0:
                acts[name] = g.mul(x, g.input(f"dropmask/{name}"))
            else:
                acts[name] = x
        elif spec.kind == "softmax":
            out = g.add_bias(g.matmul(x, p["W"]), p["b"])
            if name == net.desc.output_layer.name:
                logits = out
            else:
                acts[name] = g.softmax(out)
    return logits, state_out


def _reference_step_graph(net):
    """The one-position evaluation graph of the step-by-step reference."""
    g = ReferenceGraph()
    state = {key: g.input(f"state/{key}") for key in net.initial_state(1)}
    logits, state_out = _build_position(net, g, state, train_mode=False)
    g.mark_output(g.softmax(logits), "class_probs")
    for key, node in state_out.items():
        g.mark_output(node, f"state/{key}")
    return g


def assert_steps_match_reference(net, inputs):
    """`net.step` over the columns of `inputs` gives the reference's bits."""
    graph = _reference_step_graph(net)
    state = net.initial_state(len(inputs))
    for t in range(inputs.shape[1]):
        probs, new_state = net.step(state, inputs[:, t])
        bindings = {f"state/{key}": value[None] for key, value in state.items()}
        bindings.update(net.token_bindings(inputs[None, :, t]))
        expected = {name: value[0] for name, value in
                    forward_eval(graph, bindings, support.file_block_views(net)).outputs.items()}
        assert probs.dtype == expected["class_probs"].dtype == net.dtype
        assert np.array_equal(probs, expected["class_probs"])
        for key, value in new_state.items():
            assert value.dtype == net.dtype and np.array_equal(value, expected[f"state/{key}"]), key
        state = new_state


def assert_gradients_match_reference(net, inputs, targets, mask, seed):
    """`batch_gradients` gives the unrolled reference's loss and gradients
    bit for bit, dropout masks drawn from the same stream."""
    graph = _unrolled_graph(net, inputs.shape[1])
    ws = forward_eval(graph, _unrolled_bindings(net, inputs, targets, mask,
                                                np.random.default_rng(seed)),
                      support.file_block_views(net))
    ref_grads = _unrolled_backward(graph, ws)

    loss, grads = batch_gradients(net, inputs, targets, mask, np.random.default_rng(seed))
    assert loss == float(ws.outputs["loss"])
    assert list(grads) == sorted(net.params)
    blocks = support.file_block_views(net, grads)
    assert sorted(blocks) == list(ref_grads)
    for name, ref in ref_grads.items():
        assert blocks[name].dtype == ref.dtype == net.dtype, name
        assert np.array_equal(blocks[name], ref), name


class _SuffixedGraph(ReferenceGraph):
    """A graph whose input names get the suffix of the position being built."""

    suffix = ""

    def input(self, name):
        return super().input(name + self.suffix)


def _unrolled_graph(net, length):
    g = _SuffixedGraph()
    state = {key: g.input(f"state0/{key}") for key in net.initial_state(1)}
    total = None
    for t in range(length):
        g.suffix = f"/{t}"
        logits, state = _build_position(net, g, state, train_mode=True)
        ce = g.cross_entropy(logits, g.input("target"))
        term = g.sum(g.mul(ce, g.input("mask")))
        total = term if total is None else g.add(total, term)
    g.suffix = ""
    g.mark_output(g.mul(total, g.input("inv_count")), "loss")
    return g


def _unrolled_bindings(net, inputs, targets, mask, rng):
    batch, length = inputs.shape
    bindings = {f"state0/{key}": value[None] for key, value in net.initial_state(batch).items()}
    for t in range(length):
        for name, ids in net.token_bindings(inputs[None, :, t]).items():
            bindings[f"{name}/{t}"] = ids
        bindings[f"target/{t}"] = net.classes.class_of[targets[None, :, t]]
        bindings[f"mask/{t}"] = mask[None, :, t].astype(net.dtype)
        for spec in net.desc.layers:
            if spec.kind == "dropout" and spec.dropout_rate > 0.0:
                bindings[f"dropmask/{spec.name}/{t}"] = dropout_mask(
                    rng, (batch, net.widths[spec.name]), spec.dropout_rate, net.dtype)[None]
    bindings["inv_count"] = np.asarray(1.0 / mask.sum(), dtype=net.dtype)
    return bindings


def _unrolled_backward(graph, ws):
    """One reverse pass of the whole unrolled graph, adjoints summed per node."""
    vals = ws.values
    adj = [None] * len(graph.nodes)
    loss = graph.outputs["loss"]
    adj[loss.idx] = np.ones_like(vals[loss.idx])
    grads = {name: np.zeros_like(vals[graph.parameter(name).idx]) for name in graph.parameters}
    for node in reversed(graph.nodes):
        dy = adj[node.idx]
        if dy is None or node.op == "input":
            continue
        if node.op == "param":
            grads[node.name] = grads[node.name] + dy
            continue
        ins = node.inputs
        for inp, g in zip(ins, _OPS[node.op][1](dy, vals[node.idx], *[vals[i.idx] for i in ins])):
            if g is None or inp.op == "input":
                continue
            if adj[inp.idx] is None:
                adj[inp.idx] = np.zeros_like(vals[inp.idx], dtype=g.dtype)
            adj[inp.idx] += g
    return grads


LSTM_DROPOUT_ARCH = """\
input type=class name=c
layer type=projection name=p input=c size=5
layer type=dropout name=d1 input=p dropout_rate=0.25
layer type=lstm name=h input=d1 size=6
layer type=dropout name=d2 input=h dropout_rate=0.5
layer type=softmax name=o input=d2
"""

GRU_TANH_ARCH = """\
input type=word name=w
input type=class name=c
layer type=projection name=p input=w,c size=3
layer type=gru name=g input=p size=5
layer type=tanh name=t input=g size=4
layer type=softmax name=o input=t
"""


# a tanh between the projection and the LSTM, and the projection also read
# by the softmax: a word-side layer with a consumer on each side
TANH_LSTM_SKIP_ARCH = """\
input type=word name=w
layer type=projection name=p input=w size=5
layer type=tanh name=t input=p size=4
layer type=lstm name=h input=t size=6
layer type=softmax name=o input=h,p
"""

NO_RECURRENT_ARCH = """\
input type=class name=c
layer type=projection name=p input=c size=5
layer type=dropout name=d input=p dropout_rate=0.25
layer type=tanh name=t input=d size=4
layer type=softmax name=o input=t
"""

STEP_ARCHS = {"lstm_dropout": LSTM_DROPOUT_ARCH, "gru_tanh": GRU_TANH_ARCH,
              "tanh_lstm_skip": TANH_LSTM_SKIP_ARCH, "no_recurrent": NO_RECURRENT_ARCH}


def _step_network(arch, precision="double"):
    vocab = cl.Vocabulary([f"w{i}" for i in range(9)], {f"w{i}": 1 for i in range(9)})
    return cl.instantiate_network(cl.parse_description(STEP_ARCHS[arch]), vocab,
                                  cl.initialize_classes(vocab, 4, seed=3), seed=5,
                                  precision=precision)


def _ragged_batch(rng, net, length, rows=4):
    """Random ids with per-row lengths in 1..length, one row of full length."""
    inputs = rng.integers(0, len(net.vocab), size=(rows, length))
    targets = rng.integers(0, len(net.vocab), size=(rows, length))
    lengths = rng.integers(1, length + 1, size=rows)
    lengths[0] = length
    mask = (np.arange(length) < lengths[:, None]).astype(np.float64)
    return inputs * mask.astype(np.int64), targets * mask.astype(np.int64), mask


@pytest.mark.parametrize("arch, precision, length", list(itertools.product(
    ("lstm_dropout", "gru_tanh"), ("double", "single"), (1, 2, 7, 23))))
def test_bptt_matches_unrolled_reference_bitwise(arch, precision, length, reference_ops):
    arch = {"lstm_dropout": LSTM_DROPOUT_ARCH, "gru_tanh": GRU_TANH_ARCH}[arch]
    rng = np.random.default_rng(length)
    vocab = cl.Vocabulary([f"w{i}" for i in range(9)],
                          {f"w{i}": int(rng.integers(1, 20)) for i in range(9)})
    classes = cl.initialize_classes(vocab, 4, seed=3)
    net = cl.instantiate_network(cl.parse_description(arch), vocab, classes, seed=5,
                                 precision=precision)
    inputs, targets, mask = _ragged_batch(rng, net, length)
    assert_gradients_match_reference(net, inputs, targets, mask, 9)


@pytest.mark.parametrize("arch, precision", list(itertools.product(
    STEP_ARCHS, ("double", "single"))))
def test_network_step_matches_the_one_position_reference_bitwise(arch, precision,
                                                                reference_ops):
    rng = np.random.default_rng(4)
    net = _step_network(arch, precision)
    for rows in (1, 5, 8, 16):
        assert_steps_match_reference(net, rng.integers(0, len(net.vocab), size=(rows, 4)))
    # many repeats: a step of a multiple of ROW_BLOCK rows runs its word-side
    # layers once per distinct word, any other on every row
    for rows, words in ((8, 1), (13, 2), (24, 3), (40, 5), (64, len(net.vocab))):
        assert_steps_match_reference(net, rng.integers(0, words, size=(rows, 4)))


def test_word_side_products_run_on_the_padded_distinct_words(monkeypatch):
    net = _step_network("tanh_lstm_skip")
    calls = support.matmul_rows(monkeypatch)
    # 16 rows of 5 words, padded to 8; 24 rows of 9 words, padded to 16
    for ids, distinct in (([5, 3, 5, 5, 3, 7, 3, 5, 4, 4, 4, 4, 5, 3, 3, 6], 8),
                          (list(range(9)) * 2 + [0] * 6, 16)):
        calls.clear()
        net.step(net.initial_state(len(ids)), np.array(ids))
        # the tanh and the LSTM's x W on the distinct words, the softmax on every row
        assert calls == [(distinct, False), (distinct, True), (len(ids), False)]
    calls.clear()
    net.step(net.initial_state(13), np.zeros(13, dtype=np.int64))  # no multiple of 8
    assert calls == [(13, False), (13, True), (13, False)]


def test_every_engine_op_is_built_by_a_network():
    # the engine's op table holds the ops that networks build and no other
    built = set()
    for arch in STEP_ARCHS:
        net = _step_network(arch)
        for g in (net.training_graph(), net.step_graph()):
            built.update(node.op for node in g.nodes)
    assert built - {"input", "param"} == set(_OPS)


@pytest.mark.parametrize("arch, node", [("tanh_lstm_skip", "'h' (lstm)"),
                                        ("no_recurrent", r"'take_\d+' (take)")])
@pytest.mark.parametrize("bad", [ROW_BLOCK, -1])
def test_a_row_id_out_of_range_is_a_one_line_graph_error(arch, node, bad):
    net = _step_network(arch)
    bindings = net.token_bindings(np.arange(ROW_BLOCK)[None])
    bindings["rows"] = np.array([0] * 15 + [bad])
    bindings.update({f"state/{key}": value for key, value in net.initial_state(16).items()})
    node = node.replace("(", r"\(").replace(")", r"\)")
    with pytest.raises(GraphError, match=f"^node {node}: row id out of range for {ROW_BLOCK}$"):
        forward_eval(net.step_graph(), bindings, net.params)


def test_batches_of_any_length_share_one_training_graph():
    corpus = [["a", "b", "c", "d", "a", "b", "c"][:n] for n in range(1, 8)] * 3
    net = support.small_network(corpus, num_classes=3)
    graphs = []
    build = net.training_graph

    def recording_training_graph():
        graphs.append(build())
        return graphs[-1]

    net.training_graph = recording_training_graph
    state = cl.train(net, corpus, corpus[:3], _config(batch_size=3, max_epochs=1))
    assert state.batches == 7
    assert len(graphs) == 7 and all(g is graphs[0] for g in graphs)
    # the network once plus the loss, no node per time step: target and mask
    # inputs, cross-entropy and masked mean in place of the class softmax.
    # The step graph also binds `rows`, which its LSTM reads directly, so
    # it has no take node
    step = net.step_graph()
    assert [n.name for n in step.nodes if n.name == "rows" or n.op == "take"] == ["rows"]
    assert len(graphs[0].nodes) == len(step.nodes) - 1 + 3
