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
    forward_eval,
)

import support
from support import ReferenceGraph


def test_identity_matmul():
    g = Graph()
    a = g.parameter("A")
    x = g.input("x")
    g.mark_output(g.matmul(x, a), "y")
    ws = forward_eval(g, {"x": np.array([[[3.0, 4.0]]])}, {"A": np.eye(2)})
    np.testing.assert_array_equal(ws.outputs["y"][0], [[3.0, 4.0]])


def test_softmax_of_zeros_is_uniform():
    g = Graph()
    x = g.input("x")
    g.mark_output(g.softmax(x), "p")
    ws = forward_eval(g, {"x": np.zeros(3)}, {})
    np.testing.assert_allclose(ws.outputs["p"], [1 / 3] * 3, rtol=0, atol=1e-15)


def test_sigmoid_at_zero(reference_ops):
    g = ReferenceGraph()
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
def test_sigmoid_equals_two_branch_form_bitwise(dtype, reference_ops):
    rng = np.random.default_rng(0)
    draws = [rng.normal(scale=scale, size=200_000) for scale in (0.1, 1.0, 10.0, 30.0, 300.0)]
    special = [0.0, np.inf, 710.0, 745.0, 800.0, 1e-300, 5e-324]
    x = np.concatenate(draws + [np.array(special), -np.array(special)]).astype(dtype)
    with np.errstate(over="ignore", under="ignore"):
        expected = _two_branch_sigmoid(x)
    g = ReferenceGraph()
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
    expected = forward_eval(g, {"a": np.tile(row, (1, ROW_BLOCK, 1))}, params).outputs["y"][0, 0]
    for blocks in (1, 2, 3, 5, 8, 13, 40):
        a = rng.normal(size=(blocks * ROW_BLOCK, k)).astype(dtype)
        for r in rng.choice(len(a), size=min(len(a), 6), replace=False):
            a[r] = row
            y = forward_eval(g, {"a": a[None]}, params).outputs["y"][0]
            assert y.dtype == dtype
            np.testing.assert_array_equal(y[r].view(f"u{y.itemsize}"),
                                          expected.view(f"u{y.itemsize}"))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [2 * ROW_BLOCK, 2 * ROW_BLOCK + 3])
def test_matmul_bias_equals_add_bias_of_matmul_bitwise(rows, dtype, reference_ops):
    # the bias operand gives the bits of the two-node form in the value and
    # in all three gradients, the steps' sums included
    rng = np.random.default_rng(rows)
    params = {name: rng.normal(size=shape).astype(dtype)
              for name, shape in (("x", (3, rows, 5)), ("W", (5, 7)), ("b", (7,)))}
    dy = rng.normal(size=(3, rows, 7)).astype(dtype)
    dy[1, :2] = -0.0  # the adjoint adds its first term onto zeros in both forms
    results = []
    for fused in (True, False):
        g = ReferenceGraph()
        x, w, b = (g.parameter(name) for name in ("x", "W", "b"))
        y = g.mark_output(g.matmul(x, w, b) if fused else g.add_bias(g.matmul(x, w), b), "y")
        g.mark_output(g.sum(g.mul(y, g.input("dy"))), "loss")
        ws = forward_eval(g, {"dy": dy}, params)
        results.append([ws.outputs["y"], *backward(g, ws).values()])
    assert len(results[0]) == 4
    for fused, reference in zip(*results):
        assert fused.dtype == reference.dtype == dtype
        assert fused.tobytes() == reference.tobytes()


def test_square_loss_gradient(reference_ops):
    # loss = x^2 at x = 3 -> d loss / dx = 6
    g = ReferenceGraph()
    x = g.parameter("x")
    g.mark_output(g.sum(g.mul(x, x)), "loss")
    ws = forward_eval(g, {}, {"x": np.array([[3.0]])})
    grads = backward(g, ws)
    np.testing.assert_allclose(grads["x"], [[6.0]], rtol=1e-15)


def test_cross_entropy_gradient_vanishes_at_onehot(reference_ops):
    # With a saturated correct logit the softmax equals the target one-hot
    # and the logit gradient (p - onehot) is exactly zero.
    g = ReferenceGraph()
    logits = g.parameter("logits")
    g.mark_output(g.sum(g.cross_entropy(logits, g.input("t"))), "loss")
    ws = forward_eval(g, {"t": np.array([[0]])}, {"logits": np.array([[[1000.0, 0.0, 0.0]]])})
    grads = backward(g, ws)
    np.testing.assert_array_equal(grads["logits"][0], np.zeros((1, 3)))


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)
    g = Graph()
    ce = g.cross_entropy(g.parameter("logits"), g.input("t"))
    g.mark_output(ce, "ce")
    ws = forward_eval(g, {"t": targets[None]}, {"logits": logits[None]})
    expected = -np.log(
        np.exp(logits)[np.arange(4), targets] / np.exp(logits).sum(axis=1)
    )
    np.testing.assert_allclose(ws.outputs["ce"][0], expected, rtol=1e-12)


def test_linear_graph_fd_error_tiny(reference_ops):
    g = ReferenceGraph()
    w = g.parameter("w")
    x = g.input("x")
    g.mark_output(g.sum(g.matmul(x, w)), "loss")
    err = support.graph_fd_error(g, {"x": np.array([[[1.5, -2.0]]])},
                                 {"w": np.array([[2.0, -1.0], [0.5, 3.0]])}, "w", 1e-5)
    assert err < 1e-9


def test_fd_check_rejects_zero_step():
    with pytest.raises(ValueError):
        support.finite_difference_check(lambda value: float(value.sum()), np.ones((1, 1)),
                                        np.ones((1, 1)), 0.0)


def test_one_step_lstm_fd(rng, reference_ops):
    g = ReferenceGraph()
    n_in, n = 3, 4
    params = support.stacked_gate_weights(rng, 4, n_in, n, 0.5)
    x = g.input("x")
    h0 = g.input("h0")
    c0 = g.input("c0")
    seq = g.lstm(x, h0, c0, *(g.parameter(name) for name in "WUb"))
    g.mark_output(g.sum(g.add(g.item(seq, 0), g.item(seq, 1))), "loss")
    bindings = {
        "x": rng.normal(size=(1, 2, n_in)),
        "h0": rng.normal(size=(2, n)),
        "c0": rng.normal(size=(2, n)),
    }
    for name in "WUb":
        assert support.graph_fd_error(g, bindings, params, name, 1e-5) < 1e-4


def _random_graph(rng):
    """A randomized composite graph exercising every primitive, with its
    bindings and parameter values."""
    g = ReferenceGraph()
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
    gate_row = g.sigmoid(g.matmul(e, parameter("wg", rng.normal(size=(n1, n2))), gate))
    h = g.mul(h, gate_row) if rng.random() < 0.5 else g.mul(g.one_minus(gate_row), h)
    h = g.add(h, gate_row)

    both = g.concat([e, h])
    w2 = parameter("w2", rng.normal(size=(n1 + n2, 3)) * 0.7)
    logits = g.matmul(both, w2, parameter("b2", np.zeros(3)))
    if rng.random() < 0.5:
        probs = g.softmax(logits)
        loss = g.sum(g.mul(probs, g.input("mix")))
    else:
        ce = g.cross_entropy(logits, g.input("targets"))
        loss = g.sum(g.mul(ce, g.input("mask")))
    g.mark_output(g.mul(loss, g.input("scale")), "loss")

    bindings = {  # one time step of `batch` rows
        "ids": rng.integers(0, rows, size=batch)[None],
        "mix": rng.normal(size=(batch, 3))[None],
        "targets": rng.integers(0, 3, size=batch)[None],
        "mask": rng.random(size=batch)[None],
        "scale": np.array(0.5 + rng.random()),
    }
    return g, bindings, params


def _random_recurrent_graph(rng):
    """A randomized time-major graph around one lstm or gru node whose
    input, hidden sequence and (lstm) cell sequence each have two consumers,
    the input's second one through a take that repeats rows, with its
    bindings and parameter values."""
    g = ReferenceGraph()
    params = {}

    def parameter(name, value):
        params[name] = value
        return g.parameter(name)

    steps = int(rng.integers(1, 4))
    batch = int(rng.choice([1, 2, 3, ROW_BLOCK]))
    n1 = int(rng.integers(2, 4))
    n2 = int(rng.integers(2, 4))
    rows = int(rng.integers(3, 6))
    kind = "lstm" if rng.random() < 0.5 else "gru"

    xs = g.gather_rows(parameter("table", rng.normal(size=(rows, n1))), g.input("ids"))
    rec = [parameter(f"{name}_rec", value) for name, value
           in support.stacked_gate_weights(rng, 4 if kind == "lstm" else 3, n1, n2, 0.7).items()]
    node = (g.lstm(xs, g.input("h0"), g.input("c0"), *rec) if kind == "lstm"
            else g.gru(xs, g.input("h0"), *rec))
    hs = g.item(node, 0)
    logits = g.matmul(hs, parameter("w", rng.normal(size=(n2, 3))),
                      parameter("b", rng.normal(size=3)))
    loss = g.masked_mean(g.cross_entropy(logits, g.input("targets")), g.input("mask"))
    taken = g.tanh(g.take(xs, g.input("rows")))
    loss = g.add(loss, g.sum(g.mul(g.concat([hs, taken]), g.input("mix"))))
    if kind == "lstm":
        loss = g.add(loss, g.sum(g.mul(g.item(node, 1), g.input("c_mix"))))
    g.mark_output(loss, "loss")

    mask = (rng.random(size=(steps, batch)) < 0.7).astype(float)
    mask[0, 0] = 1.0
    bindings = {
        "ids": rng.integers(0, rows, size=(steps, batch)),
        "h0": rng.normal(size=(batch, n2)),
        "c0": rng.normal(size=(batch, n2)),
        "targets": rng.integers(0, 3, size=(steps, batch)),
        "mask": mask,
        "mix": rng.normal(size=(steps, batch, n1 + n2)),
        "c_mix": rng.normal(size=(steps, batch, n2)),
        "rows": 2 * np.arange(batch) % batch,  # no draw, so the other draws stay
    }
    return g, bindings, params


# (make graph, seed, count) of the randomized graphs
RANDOM_GRAPHS = ((_random_graph, 7, 100), (_random_recurrent_graph, 8, 40))


def test_random_graphs_match_finite_differences(reference_ops):
    for build, seed, count in RANDOM_GRAPHS:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g, bindings, params = build(rng)
            assert g.parameters == sorted(params)
            for name in g.parameters:
                assert support.graph_fd_error(g, bindings, params, name, 1e-5) < 1e-4


def test_random_graphs_give_the_bits_of_a_pass_that_keeps_every_value(reference_ops):
    # the lifetime plan drops values, writes over dead ones and adopts first
    # terms without changing a bit of the loss or the gradients
    dropping = 0
    for build, seed, count in RANDOM_GRAPHS:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g, bindings, params = build(rng)
            ws = forward_eval(g, bindings, params)
            dropping += any(support.dropped(value) for value in ws.values)
            grads = backward(g, ws)
            loss = g.outputs.pop("loss")
            kept = forward_eval(g, bindings, params)  # without a loss: every value kept
            g.mark_output(loss, "loss")
            assert not any(support.dropped(value) for value in kept.values)
            assert ws.outputs["loss"].tobytes() == kept.outputs["loss"].tobytes()
            expected = _backward_keeping_every_value(g, kept)
            assert all(grads[name].tobytes() == expected[name].tobytes() for name in params)
    assert dropping


def _backward_keeping_every_value(graph, ws):
    """The reverse pass with no lifetime plan: every op's backward passed
    every value, and each sum of terms formed on zeros."""
    vals = ws.values
    adj = [None] * len(graph.nodes)
    adj[graph.outputs["loss"].idx] = np.ones_like(vals[graph.outputs["loss"].idx])
    grads = {name: np.zeros_like(vals[graph.parameter(name).idx]) for name in graph.parameters}
    for node in reversed(graph.nodes):
        dy, ins = adj[node.idx], node.inputs
        if dy is None or node.op in ("input", "param"):
            continue
        if node.op == "item":
            parts = adj[ins[0].idx] = adj[ins[0].idx] or {}
            parts[node.arg] = dy
            continue
        for inp, g in zip(ins, _OPS[node.op][1](dy, vals[node.idx], *[vals[i.idx] for i in ins])):
            terms = g if isinstance(g, list) else [g]
            if g is None or inp.op == "input":
                continue
            if inp.op == "item":
                adj[inp.idx] = (adj[inp.idx] or []) + terms
                continue
            if inp.op != "param" and adj[inp.idx] is None:
                adj[inp.idx] = np.zeros_like(vals[inp.idx], dtype=terms[0].dtype)
            total = grads[inp.name] if inp.op == "param" else adj[inp.idx]
            for term in terms:
                total += term
    return grads


def test_random_graphs_use_every_op():
    # every op of the table and of the reference gets the finite-difference
    # coverage above
    used = set()
    for build, seed, count in RANDOM_GRAPHS:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g, _, _ = build(rng)
            used.update(node.op for node in g.nodes)
    assert set(_OPS) | set(support.REFERENCE_OPS) <= used


def test_forward_is_pure(rng, reference_ops):
    for build, _, _ in RANDOM_GRAPHS:
        g, bindings, params = build(np.random.default_rng(3))
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


def test_unreachable_parameter_gets_zero_gradient(reference_ops):
    g = ReferenceGraph()
    used = g.parameter("used")
    g.parameter("unused")
    g.mark_output(g.sum(g.mul(used, used)), "loss")
    grads = backward(g, forward_eval(g, {}, {"used": np.array([[2.0]]),
                                             "unused": np.ones((3, 2))}))
    assert grads["unused"].shape == (3, 2)
    np.testing.assert_array_equal(grads["unused"], np.zeros((3, 2)))
    assert np.any(grads["used"] != 0)


def test_shape_mismatch_names_node():
    g = Graph()
    g.matmul(g.parameter("a"), g.parameter("b"), name="bad_mm")
    with pytest.raises(ShapeError, match="bad_mm"):
        forward_eval(g, {}, {"a": np.ones((1, 2, 3)), "b": np.ones((2, 3))})


def test_nonfinite_reports_first_offending_node():
    g = Graph()
    y = g.matmul(g.parameter("a"), g.parameter("b"), name="overflow_here")
    g.tanh(y)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="overflow_here"):
        forward_eval(g, {}, {"a": np.full((1, 1, 2), 1e308), "b": np.full((2, 1), 10.0)})


def test_a_nonfinite_value_made_by_the_bias_is_reported_at_the_matmul():
    g = Graph()
    g.tanh(g.matmul(g.input("x"), g.parameter("w"), g.parameter("b"), name="affine"))
    params = {"w": np.array([[1.0, 0.5]]), "b": np.array([0.0, 1.5e308])}
    forward_eval(g, {"x": np.full((1, 1, 1), 1e308)}, {**params, "b": np.zeros(2)})
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match=r"^time step 0: node 'affine' \(matmul\)"):
        forward_eval(g, {"x": np.full((1, 1, 1), 1e308)}, params)


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
        forward_eval(g, {"x": np.ones((1, 1, 1))}, params)

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


def test_backward_without_seeds_needs_an_output_named_loss(reference_ops):
    # a scalar output under another name is not differentiated
    g = ReferenceGraph()
    g.mark_output(g.sum(g.mul(g.input("x"), g.parameter("w"))), "total")
    ws = forward_eval(g, {"x": np.ones(2)}, {"w": np.ones(2)})
    with pytest.raises(GraphError, match="no loss output"):
        backward(g, ws)
    g.mark_output(g.outputs["total"], "loss")
    np.testing.assert_array_equal(backward(g, ws)["w"], np.ones(2))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_a_recurrent_rows_operand_equals_a_take_and_has_no_gradient(kind, reference_ops):
    rng = np.random.default_rng(6)
    params = support.stacked_gate_weights(rng, 4 if kind == "lstm" else 3, 3, 4, 0.5)
    bindings = {"x": rng.normal(size=(2, ROW_BLOCK, 3)), "h0": rng.normal(size=(16, 4)),
                "c0": rng.normal(size=(16, 4)), "rows": rng.integers(0, ROW_BLOCK, 16)}

    def build(operand):
        g = ReferenceGraph()
        x, rows = g.input("x"), g.input("rows")
        states = [g.input("h0")] + ([g.input("c0")] if kind == "lstm" else [])
        weights = [g.parameter(name) for name in "WUb"]
        if operand:
            seq = getattr(g, kind)(x, *states, *weights, rows=rows)
        else:
            seq = getattr(g, kind)(g.take(x, rows), *states, *weights)
        g.mark_output(g.sum(g.item(seq, 0)), "loss")
        g.mark_output(g.item(seq, 0), "h")
        return g

    ws = forward_eval(build(operand=True), bindings, params)
    taken = forward_eval(build(operand=False), bindings, params)
    assert ws.outputs["h"].tobytes() == taken.outputs["h"].tobytes()
    backward(taken.graph, taken)
    with pytest.raises(GraphError, match="^no gradient through the rows operand of a recurrent"):
        backward(ws.graph, ws)
    bindings["rows"] = bindings["rows"].astype(float)
    with pytest.raises(GraphError, match=rf"^node '{kind}_\d+' \({kind}\): row ids must be"):
        forward_eval(build(operand=True), bindings, params)


def test_backward_needs_this_graphs_forward_values(reference_ops):
    g = ReferenceGraph()
    g.mark_output(g.sum(g.tanh(g.input("x"))), "loss")
    other = ReferenceGraph()
    other.mark_output(other.sum(other.tanh(other.input("x"))), "loss")
    for ws in (Workspace(g), forward_eval(other, {"x": np.zeros(2)}, {})):
        with pytest.raises(GraphError, match="forward values missing"):
            backward(g, ws)
    assert backward(g, forward_eval(g, {"x": np.zeros(2)}, {})) == {}


def _cross_entropy_graph(dropout):
    """gather -> [mul by a bound mask] -> matmul -> cross-entropy -> masked mean."""
    g = Graph()
    x = g.gather_rows(g.parameter("E"), g.input("ids"))
    if dropout:
        x = g.mul(x, g.input("dropmask"))
    ce = g.cross_entropy(g.matmul(x, g.parameter("W")), g.input("targets"))
    g.mark_output(g.masked_mean(ce, g.input("mask")), "loss")
    rng = np.random.default_rng(2)
    bindings = {"ids": rng.integers(0, 5, size=(3, 8)), "targets": rng.integers(0, 4, size=(3, 8)),
                "mask": np.ones((3, 8)), "dropmask": rng.integers(0, 2, size=(3, 8, 6)) * 2.0}
    return g, bindings, {"E": rng.normal(size=(5, 6)), "W": rng.normal(size=(6, 4))}


def test_a_second_backward_over_one_workspace_is_an_error():
    # the first pass drops and writes over the values it has read; the
    # outputs stay readable
    g, bindings, params = _cross_entropy_graph(dropout=False)
    ws = forward_eval(g, bindings, params)
    loss = ws.outputs["loss"].copy()
    backward(g, ws)
    with pytest.raises(GraphError, match="^workspace already consumed by a backward pass"):
        backward(g, ws)
    assert ws.outputs["loss"] == loss


def test_mul_forms_no_gradient_for_a_bound_input(monkeypatch):
    # the dropout mask takes no gradient, so the masked value is not read:
    # mul's backward is passed None for it and the forward drops it
    g, bindings, params = _cross_entropy_graph(dropout=True)
    expected = backward(g, forward_eval(g, bindings, params))
    passed, mul_grad = [], _OPS["mul"].backward

    def recording(dy, y, a, b, **out):
        passed.append((a, b))
        return mul_grad(dy, y, a, b, **out)

    monkeypatch.setitem(_OPS, "mul", _OPS["mul"]._replace(backward=recording))
    g, bindings, params = _cross_entropy_graph(dropout=True)
    ws = forward_eval(g, bindings, params)
    assert support.dropped(ws.values[g.nodes[2].idx])  # the gather's value
    grads = backward(g, ws)
    [(a, b)] = passed
    assert a is None and b.shape == (3, 8, 6)
    assert all(np.array_equal(grads[name], expected[name]) for name in "EW")


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
        forward_eval(g, {"ids": np.array([[3]])}, {"t": np.ones((3, 2))})


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gather_gradient_equals_the_table_sized_form_bitwise(dtype, reference_ops):
    # rows are added per step into a block of the touched rows only; the
    # old form added each step into a zero table the size of the embedding
    rng = np.random.default_rng(11)
    table = rng.normal(size=(50, 7)).astype(dtype)
    # the loss sum(rows * dy) hands the gather the adjoint 1 * dy = dy
    g = ReferenceGraph()
    g.mark_output(g.sum(g.mul(g.gather_rows(g.parameter("t"), g.input("ids")), g.input("dy"))),
                  "loss")
    for shape in ((9, 13), (13,)):  # 9 steps, and one step bound with a time axis of 1
        ids = rng.integers(0, 6, size=shape)  # six rows: every step repeats ids
        dy = rng.normal(size=(*shape, 7)).astype(dtype)
        steps, dys = (ids, dy) if ids.ndim == 2 else (ids[None], dy[None])
        grads = backward(g, forward_eval(g, {"ids": steps, "dy": dys}, {"t": table}))
        expected = np.zeros_like(table)
        for t in range(len(steps) - 1, -1, -1):
            step = np.zeros_like(table)
            np.add.at(step, steps[t], dys[t])
            expected += step
        assert grads["t"].dtype == dtype
        assert np.array_equal(grads["t"], expected)
        assert not expected[6:].any()


def test_parameter_override_at_eval_time(reference_ops):
    g = ReferenceGraph()
    w = g.parameter("w")
    g.mark_output(g.sum(g.mul(w, w)), "loss")
    assert forward_eval(g, {}, {"w": np.array([[1.0]])}).outputs["loss"] == 1.0
    assert forward_eval(g, {}, {"w": np.array([[3.0]])}).outputs["loss"] == 9.0


@pytest.mark.parametrize("op, x, y, z", [
    ("matmul", np.ones((2, 3)), np.ones((3, 4)), None),
    ("matmul", np.ones((1, 2, 3)), np.ones((3, 4)), np.ones(5)),
    ("matmul", np.ones((1, 2, 3)), np.ones((3, 4)), np.ones((1, 4))),
    ("add_bias", np.ones((2, 3)), np.ones(3), None),
    ("add_bias", np.ones((1, 2, 2, 3)), np.ones(3), None),
    ("gather", np.ones((4, 3)), np.array([0, 2]), None),
    ("xent", np.ones((2, 3)), np.array([0, 2]), None),
], ids=["matmul-2d", "matmul-bias-width", "matmul-bias-2d", "add_bias-2d", "add_bias-4d",
        "gather-1d-ids", "xent-2d"])
def test_an_operand_out_of_the_time_major_layout_is_a_one_line_shape_error(op, x, y, z,
                                                                           reference_ops):
    # z is the optional third operand, a matmul's bias
    g = ReferenceGraph()
    build = {"matmul": g.matmul, "add_bias": g.add_bias, "gather": g.gather_rows,
             "xent": g.cross_entropy}[op]
    bindings = {"x": x, "y": y} if z is None else {"x": x, "y": y, "z": z}
    build(*map(g.input, bindings), name="layout")
    with pytest.raises(ShapeError, match=rf"^node 'layout' \({op}\): [^\n]*$"):
        forward_eval(g, bindings, {})
