"""Per-layer forward semantics, gradient checks and class-softmax behaviour."""

import numpy as np
import pytest

import classlm as cl
from classlm.graph import Graph, forward_eval
from classlm.training import dropout_mask

import support
from support import ReferenceGraph


def _projection(g):
    """A projection layer over one id stream: a row of "E" per id."""
    return g.concat([g.gather_rows(g.parameter("E"), g.input("ids"))])


def _recurrent(g, kind, name=None):
    """One lstm or gru node over inputs x, h0 (and c0) and parameters W, U, b."""
    params = [g.parameter(pname) for pname in "WUb"]
    if kind == "lstm":
        return g.lstm(g.input("x"), g.input("h0"), g.input("c0"), *params, name)
    return g.gru(g.input("x"), g.input("h0"), *params, name)


def _lstm_graph():
    g = Graph()
    seq = _recurrent(g, "lstm")
    g.mark_output(g.item(seq, 0), "h")
    g.mark_output(g.item(seq, 1), "c")
    return g


def _recurrent_weights(gates, n_in, n, rng=None, scale=0.0):
    """W, U and b of `gates` gates: zeros, or random ones with an `rng`."""
    if rng is None:
        return {"W": np.zeros((gates, n_in, n)), "U": np.zeros((gates, n, n)),
                "b": np.zeros((gates, n))}
    return support.stacked_gate_weights(rng, gates, n_in, n, scale)


def _lstm_weights(n_in, n, rng=None, scale=0.0):
    return _recurrent_weights(4, n_in, n, rng, scale)


def test_projection_gathers_rows():
    g = Graph()
    table = np.arange(6.0).reshape(3, 2)
    out = _projection(g)
    g.mark_output(out, "y")
    ws = forward_eval(g, {"ids": np.array([[2, 0]])}, {"E": table})
    np.testing.assert_array_equal(ws.outputs["y"][0], table[[2, 0]])
    empty = forward_eval(g, {"ids": np.array([[]], dtype=np.int64)}, {"E": table})
    assert empty.outputs["y"][0].shape == (0, 2)


def test_projection_at_figure_scale():
    g = Graph()
    rng = np.random.default_rng(0)
    table = rng.normal(size=(2000, 500))
    out = _projection(g)
    g.mark_output(out, "y")
    ws = forward_eval(g, {"ids": np.array([[0, 1999]])}, {"E": table})
    assert ws.outputs["y"][0].shape == (2, 500)
    np.testing.assert_array_equal(ws.outputs["y"][0][1], table[1999])


def test_projection_rejects_out_of_range_id():
    g = Graph()
    out = _projection(g)
    g.mark_output(out, "y")
    with pytest.raises(cl.GraphError, match="out of range"):
        forward_eval(g, {"ids": np.array([[5]])}, {"E": np.ones((3, 2))})


def test_lstm_zero_weights_zero_state_gives_zero_output(rng):
    ws = forward_eval(
        _lstm_graph(),
        {"x": rng.normal(size=(1, 2, 3)), "h0": np.zeros((2, 4)), "c0": np.zeros((2, 4))},
        _lstm_weights(3, 4),
    )
    np.testing.assert_array_equal(ws.outputs["c"], np.zeros((1, 2, 4)))
    np.testing.assert_array_equal(ws.outputs["h"], np.zeros((1, 2, 4)))


def test_lstm_saturated_gates_carry_cell_state_unchanged(rng):
    # forget gate forced to 1 and input gate to 0: the cell state is conveyed
    # across the step unchanged.
    w = _lstm_weights(3, 4)
    w["b"][1] = np.full(4, 40.0)  # forget gate
    w["b"][0] = np.full(4, -40.0)  # input gate
    c_prev = rng.normal(size=(2, 4))
    ws = forward_eval(_lstm_graph(),
                      {"x": rng.normal(size=(1, 2, 3)), "h0": np.zeros((2, 4)), "c0": c_prev}, w)
    np.testing.assert_allclose(ws.outputs["c"][0], c_prev, rtol=0, atol=1e-12)


def test_lstm_three_step_chain_matches_finite_differences(rng, reference_ops):
    n_in, n = 3, 4
    g = ReferenceGraph()
    params = _lstm_weights(n_in, n, rng, 0.6)
    h = g.item(_recurrent(g, "lstm"), 0)
    g.mark_output(g.sum(g.mul(h, h)), "loss")
    bindings = {"h0": np.zeros((2, n)), "c0": np.zeros((2, n)),
                "x": rng.normal(size=(3, 2, n_in))}
    for name in "WUb":
        assert support.graph_fd_error(g, bindings, params, name, 1e-5) < 1e-4


def _gru_graph():
    g = Graph()
    g.mark_output(g.item(_recurrent(g, "gru"), 0), "h")
    return g


def _gru_weights(n_in, n, rng=None, scale=0.0):
    return _recurrent_weights(3, n_in, n, rng, scale)


def test_gru_zero_update_gate_preserves_state(rng):
    w = _gru_weights(3, 4)
    w["b"][0] = np.full(4, -40.0)  # update gate z ~ 0 -> h' = h
    h_prev = rng.normal(size=(2, 4))
    ws = forward_eval(_gru_graph(), {"x": rng.normal(size=(1, 2, 3)), "h0": h_prev}, w)
    np.testing.assert_allclose(ws.outputs["h"][0], h_prev, rtol=0, atol=1e-12)


def test_gru_zero_weights_zero_state_gives_zero(rng):
    ws = forward_eval(_gru_graph(), {"x": rng.normal(size=(1, 2, 3)), "h0": np.zeros((2, 4))},
                      _gru_weights(3, 4))
    np.testing.assert_array_equal(ws.outputs["h"], np.zeros((1, 2, 4)))


def test_gru_three_step_chain_matches_finite_differences(rng, reference_ops):
    n_in, n = 3, 4
    g = ReferenceGraph()
    params = _gru_weights(n_in, n, rng, 0.6)
    h = g.item(_recurrent(g, "gru"), 0)
    g.mark_output(g.sum(g.mul(h, h)), "loss")
    bindings = {"h0": np.zeros((2, n)), "x": rng.normal(size=(3, 2, n_in))}
    for name in "WUb":
        assert support.graph_fd_error(g, bindings, params, name, 1e-5) < 1e-4


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_nonfinite_inside_a_recurrent_layer_names_its_time_step_and_layer(kind):
    g = Graph()
    _recurrent(g, kind, name="rec")
    if kind == "lstm":
        weights = _lstm_weights(3, 4, np.random.default_rng(0), 0.5)
    else:
        weights = _gru_weights(3, 4, np.random.default_rng(0), 0.5)
    x = np.zeros((5, 2, 3))
    x[3, 1, 0] = np.nan
    bindings = {"x": x, "h0": np.zeros((2, 4)), "c0": np.zeros((2, 4))}
    with pytest.raises(cl.NonFiniteError,
                       match=rf"^time step 3: node 'rec' \({kind}\) produced a non-finite value$"):
        forward_eval(g, bindings, weights)
    # a non-finite start state (the cell state of an lstm) fails at the first step
    state = "c0" if kind == "lstm" else "h0"
    bindings.update({"x": np.zeros((5, 2, 3)), state: np.full((2, 4), np.inf)})
    with np.errstate(invalid="ignore"), \
            pytest.raises(cl.NonFiniteError, match=rf"^time step 0: node 'rec' \({kind}\)"):
        forward_eval(g, bindings, weights)


def _evaluation(kind, rows):
    """An lstm or gru node "rec" whose output "value" is its whole value;
    with `rows`, an evaluation op over the distinct rows x, otherwise the
    training op over ``take(x, rows)``."""
    g = Graph()
    x, states = g.input("x"), [g.input("h0")] + ([g.input("c0")] if kind == "lstm" else [])
    weights = [g.parameter(name) for name in "WUb"]
    if rows:
        node = getattr(g, kind)(x, *states, *weights, "rec", g.input("rows"))
    else:
        node = getattr(g, kind)(g.take(x, g.input("rows")), *states, *weights, "rec")
    g.mark_output(node, "value")
    return g


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_an_evaluation_recurrent_op_keeps_the_training_states_bitwise(kind, steps):
    # the rows operand runs the input products on distinct rows, which
    # keeps a row's bits when both row counts are multiples of ROW_BLOCK
    # or when each row is its own
    rng = np.random.default_rng(steps)
    weights = _recurrent_weights(4 if kind == "lstm" else 3, 5, 6, rng, 0.5)
    parts = 2 if kind == "lstm" else 1  # (h, c) or (h,)
    for batch in range(1, 41):
        if batch % cl.graph.ROW_BLOCK:
            distinct, rows = batch, np.arange(batch)
        else:
            distinct = cl.graph.ROW_BLOCK * (batch // 16 + 1)
            rows = rng.integers(0, distinct, batch)
        bindings = {"x": rng.normal(size=(steps, distinct, 5)), "rows": rows,
                    "h0": rng.normal(size=(batch, 6)), "c0": rng.normal(size=(batch, 6))}
        value = forward_eval(_evaluation(kind, rows=True), bindings, weights).outputs["value"]
        full = forward_eval(_evaluation(kind, rows=False), bindings, weights).outputs["value"]
        assert value.shape == (parts, steps, batch, 6), batch
        assert value.tobytes() == full[:parts].tobytes(), batch


@pytest.mark.parametrize("kind, planted, step", [
    ("lstm", "W", 0), ("lstm", "U", 0), ("lstm", "x", 2), ("lstm", "c0", 0),
    ("gru", "W", 0), ("gru", "U", 0), ("gru", "x", 2), ("gru", "h0", 0),
])
def test_an_evaluation_recurrent_op_names_the_first_nonfinite_step(kind, planted, step):
    # a NaN in a weight or the input reaches a pre-activation; one in the
    # start cell reaches the cell but no lstm pre-activation, and one in
    # the last gru gate's U reaches that gate's pre-activation only
    rng = np.random.default_rng(4)
    weights = _recurrent_weights(4 if kind == "lstm" else 3, 5, 6, rng, 0.5)
    bindings = {"x": rng.normal(size=(3, 8, 5)), "rows": rng.permutation(16) % 8,
                "h0": rng.normal(size=(16, 6)), "c0": rng.normal(size=(16, 6))}
    if planted in weights:
        weights[planted][-1, 2, 3] = np.nan
    elif planted == "x":
        bindings["x"][2, bindings["rows"][5], 1] = np.nan
    else:
        bindings[planted][5, 1] = np.nan
    for rows in (True, False):
        with pytest.raises(cl.NonFiniteError,
                           match=rf"^time step {step}: node 'rec' \({kind}\) produced a non-finite"):
            forward_eval(_evaluation(kind, rows), bindings, weights)


def _tanh_layer(g):
    """y = tanh(x W + b)."""
    return g.tanh(g.add_bias(g.matmul(g.input("x"), g.parameter("W")), g.parameter("b")))


def test_tanh_layer_basics_and_gradient(rng, reference_ops):
    g = ReferenceGraph()
    g.mark_output(_tanh_layer(g), "y")
    ws = forward_eval(g, {"x": rng.normal(size=(2, 3))[None]},
                      {"W": np.zeros((3, 3)), "b": np.zeros(3)})
    np.testing.assert_array_equal(ws.outputs["y"][0], np.zeros((2, 3)))

    ws = forward_eval(g, {"x": np.zeros((1, 2, 3))}, {"W": np.eye(3), "b": np.zeros(3)})
    np.testing.assert_array_equal(ws.outputs["y"][0], np.zeros((2, 3)))

    g2 = ReferenceGraph()
    params = {"W": rng.normal(size=(3, 4)) * 0.7, "b": rng.normal(size=4)}
    g2.mark_output(g2.sum(_tanh_layer(g2)), "loss")
    bindings = {"x": rng.normal(size=(2, 3))[None]}
    assert support.graph_fd_error(g2, bindings, params, "W", 1e-5) < 1e-4
    assert support.graph_fd_error(g2, bindings, params, "b", 1e-5) < 1e-4


def test_dropout_mask_rate_zero_is_identity(rng):
    mask = dropout_mask(rng, (4, 5), 0.0)
    np.testing.assert_array_equal(mask, np.ones((4, 5)))


def test_dropout_rate_validation(rng):
    with pytest.raises(ValueError):
        dropout_mask(rng, (2,), 1.0)
    with pytest.raises(ValueError):
        dropout_mask(rng, (2,), -0.1)


def test_dropout_monte_carlo_statistics():
    rng = np.random.default_rng(77)
    n = 1_000_000
    mask = dropout_mask(rng, (n,), 0.25)
    zero_fraction = float((mask == 0).mean())
    assert abs(zero_fraction - 0.25) < 0.005
    # inverted scaling keeps the expectation: mean of mask*x / mean of x = mean(mask)
    assert abs(mask.mean() - 1.0) < 0.01
    # and within three standard errors of 1
    se = np.std(mask) / np.sqrt(n)
    assert abs(mask.mean() - 1.0) < 3 * se


def test_dropout_eval_mode_is_exactly_identity():
    # The same parameters driven through a description with dropout layers
    # and one without produce bit-identical scores at evaluation time.
    with_dropout = (
        "input type=class name=class_input\n"
        "layer type=projection name=p input=class_input size=4\n"
        "layer type=dropout name=d input=p dropout_rate=0.25\n"
        "layer type=softmax name=o input=d\n"
    )
    without = (
        "input type=class name=class_input\n"
        "layer type=projection name=p input=class_input size=4\n"
        "layer type=softmax name=o input=p\n"
    )
    corpus = [["a", "b", "c"]] * 3
    vocab = cl.build_vocabulary(corpus)
    classes = cl.initialize_classes(vocab, 2)
    net_a = cl.instantiate_network(cl.parse_description(with_dropout), vocab, classes, seed=5)
    net_b = cl.instantiate_network(cl.parse_description(without), vocab, classes, seed=5)
    for name in net_b.params:
        net_b.params[name] = net_a.params[name].copy()
    sa = cl.score_arrays(net_a, [["a", "c", "b"]])
    sb = cl.score_arrays(net_b, [["a", "c", "b"]])
    assert sa.totals[0] == sb.totals[0] and (sa.logp == sb.logp).all()


def test_dropout_train_mode_gradient_with_fixed_mask(rng, reference_ops):
    g = ReferenceGraph()
    params = {"W": rng.normal(size=(3, 4)) * 0.5}
    x = g.input("x")
    dropped = g.mul(g.matmul(x, g.parameter("W")), g.input("mask"))
    g.mark_output(g.sum(g.mul(dropped, dropped)), "loss")
    bindings = {
        "x": rng.normal(size=(2, 3))[None],
        "mask": dropout_mask(rng, (2, 4), 0.25)[None],
    }
    assert support.graph_fd_error(g, bindings, params, "W", 1e-5) < 1e-4


def test_single_class_model_scores_membership_only():
    # One class holding the whole vocabulary: the class term is exactly 1 and
    # the sentence score reduces to membership probabilities, whatever h is.
    vocab = cl.Vocabulary(["a"], {"a": 1})
    membership = np.array([0.125, 0.25, 0.125, 0.5])  # <s>, </s>, <unk>, a
    classes = cl.ClassMap(np.zeros(4, dtype=np.int64), membership, 1)
    net = support_single_class_net(vocab, classes)
    scores = cl.score_arrays(net, [["a"]])
    assert scores.totals[0] == np.log(0.5) + np.log(0.25)
    assert scores.logp[0].tolist() == [np.log(0.5), np.log(0.25)]


def support_single_class_net(vocab, classes):
    desc = cl.parse_description(
        "input type=class name=c\n"
        "layer type=projection name=p input=c size=3\n"
        "layer type=lstm name=h input=p size=3\n"
        "layer type=softmax name=o input=h\n"
    )
    return cl.instantiate_network(desc, vocab, classes, seed=9)


def test_identity_classes_reduce_to_full_softmax(rng):
    net = support.random_class_network(rng, vocab_size=12, num_classes=9)
    identity_net = cl.instantiate_network(net.desc, net.vocab, cl.identity_classmap(net.vocab),
                                          seed=4)
    probs, _ = identity_net.step(identity_net.initial_state(1), np.array([0]), np.array([0]))
    dist = support.word_distribution(identity_net, probs[0])
    np.testing.assert_allclose(dist, probs[0], rtol=0, atol=0)
    np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)


def test_step_graph_reads_the_networks_current_params(rng):
    # the step graph is built once and cached; it holds no parameter values,
    # so a replaced parameter dict is what the next step computes with
    net = support.random_class_network(rng, vocab_size=10, num_classes=5)
    state, word = net.initial_state(1), np.array([net.vocab.start_id])
    before, _ = net.step(state, np.array([0]), word)
    net.params = {name: np.zeros_like(value) for name, value in net.params.items()}
    probs, _ = net.step(state, np.array([0]), word)
    assert np.any(before != probs)
    np.testing.assert_array_equal(probs, np.full((1, net.classes.num_classes),
                                                 1.0 / net.classes.num_classes))


def test_class_word_distribution_sums_to_one(rng):
    net = support.random_class_network(rng, vocab_size=10, num_classes=3)
    state = net.initial_state(1)
    word = np.array([net.vocab.start_id])
    for _ in range(4):
        probs, state = net.step(state, np.array([0]), word)
        dist = support.word_distribution(net, probs[0])
        assert abs(dist.sum() - 1.0) < 1e-10
        word = np.array([int(rng.integers(0, len(net.vocab)))])


def test_recurrent_state_is_causal(rng):
    # Two full 4-position batches differing only at position 3: with position 3
    # masked out, loss and gradients are bit-identical, so no earlier step read
    # the later input; unmasked, the losses differ.
    net = support.random_class_network(rng, vocab_size=8, num_classes=4)
    from classlm.training import batch_gradients

    # two words from different classes, so the perturbation is visible
    w_a = 3
    w_b = next(w for w in range(4, len(net.vocab))
               if net.classes.class_of[w] != net.classes.class_of[w_a])
    inputs_a = np.array([[0, 3, 4, w_a]])
    inputs_b = np.array([[0, 3, 4, w_b]])  # differs at position 3 only
    targets = np.array([[3, 4, 5, 1]])
    early = np.array([[1.0, 1.0, 1.0, 0.0]])
    loss_a, grads_a = batch_gradients(net, inputs_a, targets, early, None)
    loss_b, grads_b = batch_gradients(net, inputs_b, targets, early, None)
    assert loss_a == loss_b
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name]), name
    full = np.ones((1, 4))
    assert (batch_gradients(net, inputs_a, targets, full, None)[0]
            != batch_gradients(net, inputs_b, targets, full, None)[0])
