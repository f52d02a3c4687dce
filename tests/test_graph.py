"""Forward/backward semantics of the computation graph engine."""

import numpy as np
import pytest

from classlm.graph import (
    _OPS,
    ROW_BLOCK,
    Graph,
    GraphError,
    NonFiniteError,
    ShapeError,
    Workspace,
    backward,
    finite_difference_check,
    forward_eval,
)

import support


def test_identity_matmul():
    g = Graph()
    a = g.parameter("A")
    x = g.input("x")
    g.mark_output(g.matmul(x, a), "y")
    ws = forward_eval(g, {"x": np.array([[3.0, 4.0]])}, {"A": np.eye(2)})
    np.testing.assert_array_equal(ws.outputs["y"], [[3.0, 4.0]])


def test_softmax_of_zeros_is_uniform():
    g = Graph()
    x = g.input("x")
    g.mark_output(g.softmax(x), "p")
    ws = forward_eval(g, {"x": np.zeros(3)}, {})
    np.testing.assert_allclose(ws.outputs["p"], [1 / 3] * 3, rtol=0, atol=1e-15)


def test_sigmoid_at_zero():
    g = Graph()
    g.mark_output(g.sigmoid(g.input("x")), "y")
    ws = forward_eval(g, {"x": np.zeros(1)}, {})
    assert ws.outputs["y"][0] == 0.5


def _two_branch_sigmoid(x):
    """The boolean-mask form: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_equals_two_branch_form_bitwise(dtype):
    rng = np.random.default_rng(0)
    draws = [rng.normal(scale=scale, size=200_000) for scale in (0.1, 1.0, 10.0, 30.0, 300.0)]
    special = [0.0, np.inf, 710.0, 745.0, 1e-300]
    x = np.concatenate(draws + [np.array(special), -np.array(special)]).astype(dtype)
    with np.errstate(over="ignore", under="ignore"):
        expected = _two_branch_sigmoid(x)
    g = Graph()
    g.mark_output(g.sigmoid(g.input("x")), "y")
    y = forward_eval(g, {"x": x}, {}).outputs["y"]
    assert y.dtype == x.dtype
    np.testing.assert_array_equal(y.view(f"u{x.itemsize}"), expected.view(f"u{x.itemsize}"))


# (k, n) of every matmul in the benchmark models, full and tiny sizes: the
# train model (64, 128, 303 classes), the rescore model (300, 96, 48, 403
# classes) and their tiny versions
BENCH_MATMUL_WIDTHS = [(64, 128), (128, 128), (128, 303), (300, 96), (96, 96), (96, 48),
                       (48, 403), (8, 12), (12, 12), (12, 15), (12, 8), (8, 23)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,n", BENCH_MATMUL_WIDTHS)
def test_matmul_row_bits_independent_of_block_count_and_neighbours(k, n, dtype):
    # a row of a left operand with a multiple of ROW_BLOCK rows gives the
    # same bits at any row count, at any position and beside any other rows
    rng = np.random.default_rng(k * 1000 + n)
    g = Graph()
    g.mark_output(g.matmul(g.input("a"), g.parameter("b")), "y")
    params = {"b": rng.normal(size=(k, n)).astype(dtype)}
    row = rng.normal(size=k).astype(dtype)
    expected = forward_eval(g, {"a": np.tile(row, (ROW_BLOCK, 1))}, params).outputs["y"][0]
    for blocks in (1, 2, 3, 5, 8, 13, 40):
        a = rng.normal(size=(blocks * ROW_BLOCK, k)).astype(dtype)
        for r in rng.choice(len(a), size=min(len(a), 6), replace=False):
            a[r] = row
            y = forward_eval(g, {"a": a}, params).outputs["y"]
            assert y.dtype == dtype
            np.testing.assert_array_equal(y[r].view(f"u{y.itemsize}"),
                                          expected.view(f"u{y.itemsize}"))


def test_square_loss_gradient():
    # loss = x^2 at x = 3 -> d loss / dx = 6
    g = Graph()
    x = g.parameter("x")
    g.mark_output(g.sum(g.mul(x, x)), "loss")
    ws = forward_eval(g, {}, {"x": np.array([[3.0]])})
    grads, _ = backward(g, ws)
    np.testing.assert_allclose(grads["x"], [[6.0]], rtol=1e-15)


def test_cross_entropy_gradient_vanishes_at_onehot():
    # With a saturated correct logit the softmax equals the target one-hot
    # and the logit gradient (p - onehot) is exactly zero.
    g = Graph()
    logits = g.parameter("logits")
    g.mark_output(g.sum(g.cross_entropy(logits, g.input("t"))), "loss")
    ws = forward_eval(g, {"t": np.array([0])}, {"logits": np.array([[1000.0, 0.0, 0.0]])})
    grads, _ = backward(g, ws)
    np.testing.assert_array_equal(grads["logits"], np.zeros((1, 3)))


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)
    g = Graph()
    ce = g.cross_entropy(g.parameter("logits"), g.input("t"))
    g.mark_output(ce, "ce")
    ws = forward_eval(g, {"t": targets}, {"logits": logits})
    expected = -np.log(
        np.exp(logits)[np.arange(4), targets] / np.exp(logits).sum(axis=1)
    )
    np.testing.assert_allclose(ws.outputs["ce"], expected, rtol=1e-12)


def test_linear_graph_fd_error_tiny():
    g = Graph()
    w = g.parameter("w")
    x = g.input("x")
    g.mark_output(g.sum(g.matmul(x, w)), "loss")
    err = support.graph_fd_error(g, {"x": np.array([[1.5, -2.0]])},
                                 {"w": np.array([[2.0, -1.0], [0.5, 3.0]])}, "w", 1e-5)
    assert err < 1e-9


def test_fd_check_rejects_zero_step():
    with pytest.raises(ValueError):
        finite_difference_check(lambda value: float(value.sum()), np.ones((1, 1)),
                                np.ones((1, 1)), 0.0)


def test_one_step_lstm_fd(rng):
    from classlm import layers

    g = Graph()
    n_in, n = 3, 4
    params = {}
    for name in layers.LSTM_PARAMS:
        if name.startswith("W"):
            shape = (n_in, n)
        elif name.startswith("U"):
            shape = (n, n)
        else:
            shape = (n,)
        params[name] = rng.normal(size=shape) * 0.5
    p = {name: g.parameter(name) for name in params}
    x = g.input("x")
    h0 = g.input("h0")
    c0 = g.input("c0")
    h, c = layers.lstm_step(g, x, h0, c0, p)
    g.mark_output(g.sum(g.add(h, c)), "loss")
    bindings = {
        "x": rng.normal(size=(2, n_in)),
        "h0": rng.normal(size=(2, n)),
        "c0": rng.normal(size=(2, n)),
    }
    for name in layers.LSTM_PARAMS:
        assert support.graph_fd_error(g, bindings, params, name, 1e-5) < 1e-4


def _random_graph(rng):
    """A randomized composite graph exercising every primitive, with its
    bindings and parameter values."""
    g = Graph()
    params = {}

    def parameter(name, value):
        params[name] = value
        return g.parameter(name)

    batch = int(rng.integers(1, 4))
    n1 = int(rng.integers(2, 5))
    n2 = int(rng.integers(2, 5))
    rows = int(rng.integers(3, 7))

    table = parameter("table", rng.normal(size=(rows, n1)))
    ids = g.input("ids")
    e = g.gather_rows(table, ids)

    w1 = parameter("w1", rng.normal(size=(n1, n2)) * 0.7)
    b1 = parameter("b1", rng.normal(size=(n2,)))
    h = g.add_bias(g.matmul(e, w1), b1)
    h = g.sigmoid(h) if rng.random() < 0.5 else g.tanh(h)

    gate = parameter("gate", rng.normal(size=(n2,)))
    gate_row = g.sigmoid(g.add_bias(g.matmul(e, parameter("wg", rng.normal(size=(n1, n2)))), gate))
    h = g.mul(h, gate_row) if rng.random() < 0.5 else g.mul(g.one_minus(gate_row), h)
    h = g.add(h, gate_row)

    both = g.concat([e, h])
    w2 = parameter("w2", rng.normal(size=(n1 + n2, 3)) * 0.7)
    logits = g.add_bias(g.matmul(both, w2), parameter("b2", np.zeros(3)))
    if rng.random() < 0.5:
        probs = g.softmax(logits)
        loss = g.sum(g.mul(probs, g.input("mix")))
    else:
        ce = g.cross_entropy(logits, g.input("targets"))
        loss = g.sum(g.mul(ce, g.input("mask")))
    g.mark_output(g.mul(loss, g.input("scale")), "loss")

    bindings = {
        "ids": rng.integers(0, rows, size=batch),
        "mix": rng.normal(size=(batch, 3)),
        "targets": rng.integers(0, 3, size=batch),
        "mask": rng.random(size=batch),
        "scale": np.array(0.5 + rng.random()),
    }
    return g, bindings, params


def test_random_graphs_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g, bindings, params = _random_graph(rng)
        assert g.parameters == sorted(params)
        for name in g.parameters:
            assert support.graph_fd_error(g, bindings, params, name, 1e-5) < 1e-4


def test_random_graphs_use_every_op():
    # every op of the table gets the finite-difference coverage above
    rng = np.random.default_rng(7)
    used = set()
    for _ in range(100):
        g, _, _ = _random_graph(rng)
        used.update(node.op for node in g.nodes)
    assert set(_OPS) <= used


def test_forward_is_pure(rng):
    g, bindings, params = _random_graph(np.random.default_rng(3))
    ws1 = forward_eval(g, bindings, params)
    ws2 = forward_eval(g, bindings, params)
    for a, b in zip(ws1.values, ws2.values):
        np.testing.assert_array_equal(a, b)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    x64 = rng.normal(size=(20, 9)) * 30
    g = Graph()
    g.mark_output(g.softmax(g.input("x")), "p")
    p = forward_eval(g, {"x": x64}, {}).outputs["p"]
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    p32 = forward_eval(g, {"x": x64.astype(np.float32)}, {}).outputs["p"]
    np.testing.assert_allclose(p32.sum(axis=1), 1.0, rtol=0, atol=1e-5)


def test_unreachable_parameter_gets_zero_gradient():
    g = Graph()
    used = g.parameter("used")
    g.parameter("unused")
    g.mark_output(g.sum(g.mul(used, used)), "loss")
    grads, _ = backward(g, forward_eval(g, {}, {"used": np.array([[2.0]]),
                                                "unused": np.ones((3, 2))}))
    assert grads["unused"].shape == (3, 2)
    np.testing.assert_array_equal(grads["unused"], np.zeros((3, 2)))
    assert np.any(grads["used"] != 0)


def test_shape_mismatch_names_node():
    g = Graph()
    g.matmul(g.parameter("a"), g.parameter("b"), name="bad_mm")
    with pytest.raises(ShapeError, match="bad_mm"):
        forward_eval(g, {}, {"a": np.ones((2, 3)), "b": np.ones((2, 3))})


def test_nonfinite_reports_first_offending_node():
    g = Graph()
    y = g.matmul(g.parameter("a"), g.parameter("b"), name="overflow_here")
    g.tanh(y)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="overflow_here"):
        forward_eval(g, {}, {"a": np.full((1, 2), 1e308), "b": np.full((2, 1), 10.0)})


def test_finite_values_whose_sum_overflows_pass_the_check():
    g = Graph()
    g.mark_output(g.mul(g.input("x"), g.input("one")), "y")
    x = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        y = forward_eval(g, {"x": x, "one": np.ones(2)}, {}).outputs["y"]
    np.testing.assert_array_equal(y, x)
    for bad in ([1e308, np.inf], [np.inf, -np.inf], [1.0, np.nan]):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match=r"node 'mul_2' \(mul\) produced a non-finite"):
            forward_eval(g, {"x": np.array(bad), "one": np.ones(2)}, {})


def test_nonfinite_parameter_is_reported_by_first_reader():
    g = Graph()
    params = {"w": np.array([[1.0, np.nan]]), "unread": np.array([np.inf])}
    g.parameter("unread")
    y = g.matmul(g.input("x"), g.parameter("w"), name="first_reader")
    g.tanh(y, name="second_reader")
    with pytest.raises(NonFiniteError, match="first_reader"):
        forward_eval(g, {"x": np.ones((1, 1))}, params)

    # leaves themselves are not checked: an unread non-finite parameter passes
    g = Graph()
    g.parameter("unread")
    g.mark_output(g.tanh(g.input("x")), "y")
    forward_eval(g, {"x": np.zeros(1)}, {"unread": np.array([np.inf])})


def test_missing_binding_and_loss_errors():
    g = Graph()
    x = g.input("x")
    y = g.tanh(x)
    with pytest.raises(GraphError, match="x"):
        forward_eval(g, {}, {})
    ws = forward_eval(g, {"x": np.zeros(2)}, {})
    with pytest.raises(GraphError, match="loss"):
        backward(g, ws)


def test_missing_parameter_value_is_an_error_naming_it():
    g = Graph()
    g.mark_output(g.matmul(g.input("x"), g.parameter("layer/W")), "y")
    with pytest.raises(GraphError, match="parameter 'layer/W'"):
        forward_eval(g, {"x": np.ones((1, 2))}, {"layer/b": np.ones(2)})


def test_backward_without_seeds_needs_an_output_named_loss():
    # a scalar output under another name is not seeded
    g = Graph()
    g.mark_output(g.sum(g.mul(g.input("x"), g.parameter("w"))), "total")
    ws = forward_eval(g, {"x": np.ones(2)}, {"w": np.ones(2)})
    with pytest.raises(GraphError, match="no loss output"):
        backward(g, ws)
    np.testing.assert_array_equal(backward(g, ws, {"total": 1.0})[0]["w"], np.ones(2))


def test_backward_needs_this_graphs_forward_values():
    g = Graph()
    g.mark_output(g.tanh(g.input("x")), "y")
    other = Graph()
    other.mark_output(other.tanh(other.input("x")), "y")
    for ws in (Workspace(g), forward_eval(other, {"x": np.zeros(2)}, {})):
        with pytest.raises(GraphError, match="forward values missing"):
            backward(g, ws, {"y": np.ones(2)}, wrt=("x",))
    grads, adjoints = backward(g, forward_eval(g, {"x": np.zeros(2)}, {}), {"y": np.ones(2)},
                               wrt=("x",))
    assert grads == {}
    np.testing.assert_array_equal(adjoints["x"], np.ones(2))


def test_loss_must_be_scalar():
    g = Graph()
    g.mark_output(g.tanh(g.parameter("x")), "loss")
    ws = forward_eval(g, {}, {"x": np.ones(3)})
    with pytest.raises(GraphError, match="scalar"):
        backward(g, ws)


def test_gather_rejects_out_of_range_ids():
    g = Graph()
    g.gather_rows(g.parameter("t"), g.input("ids"), name="lookup")
    with pytest.raises(GraphError, match="out of range"):
        forward_eval(g, {"ids": np.array([3])}, {"t": np.ones((3, 2))})


def test_parameter_override_at_eval_time():
    g = Graph()
    w = g.parameter("w")
    g.mark_output(g.sum(g.mul(w, w)), "loss")
    assert forward_eval(g, {}, {"w": np.array([[1.0]])}).outputs["loss"] == 1.0
    assert forward_eval(g, {}, {"w": np.array([[3.0]])}).outputs["loss"] == 9.0
