"""Training-loop policies: checkpointing, annealing, stopping, determinism;
backpropagation through time against the unrolled reference."""

import itertools
import logging

import numpy as np
import pytest

import classlm as cl
from classlm.graph import _OPS, Graph, forward_eval
from classlm.training import batch_gradients

import support

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


# -- backpropagation through time against the unrolled reference -------------
#
# The trainer once built one graph per segment length, every position
# unrolled with its own input names, and differentiated it in one backward
# pass.  That trainer is kept here as the reference: the step-graph trainer
# must give the same loss and the same gradients bit for bit.


class _SuffixedGraph(Graph):
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
        logits, state = net._build_position(g, state, train_mode=True)
        ce = g.cross_entropy(logits, g.input("target"))
        term = g.sum(g.mul(ce, g.input("mask")))
        total = term if total is None else g.add(total, term)
    g.suffix = ""
    g.mark_output(g.mul(total, g.input("inv_count")), "loss")
    return g


def _unrolled_bindings(net, inputs, targets, mask, rng):
    batch, length = inputs.shape
    bindings = {f"state0/{key}": value for key, value in net.initial_state(batch).items()}
    for t in range(length):
        for name, ids in net.token_bindings(inputs[:, t]).items():
            bindings[f"{name}/{t}"] = ids
        bindings[f"target/{t}"] = net.classes.class_of[targets[:, t]]
        bindings[f"mask/{t}"] = mask[:, t].astype(net.dtype)
        for spec in net.desc.layers:
            if spec.kind == "dropout" and spec.dropout_rate > 0.0:
                bindings[f"dropmask/{spec.name}/{t}"] = cl.layers.dropout_mask(
                    rng, (batch, net.widths[spec.name]), spec.dropout_rate, net.dtype)
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
def test_bptt_matches_unrolled_reference_bitwise(arch, precision, length):
    arch = {"lstm_dropout": LSTM_DROPOUT_ARCH, "gru_tanh": GRU_TANH_ARCH}[arch]
    rng = np.random.default_rng(length)
    vocab = cl.Vocabulary([f"w{i}" for i in range(9)],
                          {f"w{i}": int(rng.integers(1, 20)) for i in range(9)})
    classes = cl.initialize_classes(vocab, 4, seed=3)
    net = cl.instantiate_network(cl.parse_description(arch), vocab, classes, seed=5,
                                 precision=precision)
    inputs, targets, mask = _ragged_batch(rng, net, length)

    graph = _unrolled_graph(net, length)
    ws = forward_eval(graph, _unrolled_bindings(net, inputs, targets, mask,
                                                np.random.default_rng(9)), net.params)
    ref_grads = _unrolled_backward(graph, ws)

    loss, grads = batch_gradients(net, inputs, targets, mask, np.random.default_rng(9))
    assert loss == float(ws.outputs["loss"])
    assert list(grads) == list(ref_grads)
    for name, ref in ref_grads.items():
        assert grads[name].dtype == ref.dtype == net.dtype, name
        assert np.array_equal(grads[name], ref), name


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
    # one position of the network plus the loss: no node per time step
    assert len(graphs[0].nodes) == len(net.step_graph().nodes) + 4
