"""Update-rule closed forms, clipping behaviour and descent on a quadratic bowl."""

import numpy as np
import pytest

import classlm as cl
from classlm.graph import NonFiniteError
from classlm.network import file_blocks
from classlm.optimizers import (
    ADAPTIVE_ALGORITHMS,
    ALGORITHMS,
    Optimizer,
    OptimizerConfig,
    clip_gradients,
)


def _step_scalar(alg, theta, grad, **overrides):
    opt = Optimizer(OptimizerConfig(alg, **overrides))
    params = {"p": np.array([theta])}
    opt.step(params, {"p": np.array([grad])})
    return float(params["p"][0]), opt


def test_sgd_closed_form():
    theta, _ = _step_scalar("sgd", 1.0, 0.5, learning_rate=0.1)
    assert theta == pytest.approx(0.95, abs=1e-15)


def test_adagrad_first_step_closed_form():
    # first step: r = g^2, update magnitude = eta, sign from g
    theta, opt = _step_scalar("adagrad", 0.0, 2.0, learning_rate=1.0, epsilon=1e-12)
    assert theta == pytest.approx(-1.0, abs=1e-9)
    np.testing.assert_allclose(opt.slots["p"]["sq_sum"], [4.0])


def test_adam_first_step_bias_correction_cancels():
    # at t = 1 the bias corrections cancel the decay factors exactly, so the
    # update is -eta * g / |g|
    for g in (0.7, -0.002, 123.0):
        theta, _ = _step_scalar("adam", 0.0, g, learning_rate=1e-3, epsilon=1e-15)
        assert theta == pytest.approx(-1e-3 * np.sign(g), rel=1e-9)


def test_rmsprop_first_step():
    # r = (1 - rho) g^2, update = -eta g / (sqrt(r) + eps)
    theta, _ = _step_scalar("rmsprop", 0.0, 2.0, learning_rate=1e-3, decay=0.9, epsilon=0.0001)
    expected = -1e-3 * 2.0 / (np.sqrt(0.1 * 4.0) + 0.0001)
    assert theta == pytest.approx(expected, rel=1e-12)


def test_nag_first_step_is_shifted_momentum():
    theta, opt = _step_scalar("nag", 1.0, 0.5, learning_rate=0.1, momentum=0.9)
    # v1 = -eta g; theta + mu v1 - eta g = 1 - (1 + mu) eta g
    assert theta == pytest.approx(1.0 - 1.9 * 0.1 * 0.5, rel=1e-12)
    np.testing.assert_allclose(opt.slots["p"]["velocity"], [-0.05])


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_zero_gradient_zero_state_leaves_parameters_unchanged(alg):
    opt = Optimizer(OptimizerConfig(alg))
    params = {"p": np.array([1.5, -2.5])}
    before = params["p"].copy()
    opt.step(params, {"p": np.zeros(2)})
    np.testing.assert_array_equal(params["p"], before)


def test_sgd_is_linear_in_the_gradient():
    g1 = np.array([0.3, -1.2])
    g2 = np.array([-0.8, 0.4])
    theta = np.array([1.0, 1.0])
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=0.25))
    full = {"p": theta.copy()}
    opt.step(full, {"p": (g1 + g2) / 2.0})
    half_a = theta - 0.25 * g1
    half_b = theta - 0.25 * g2
    np.testing.assert_array_equal(full["p"], (half_a + half_b) / 2.0)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_quadratic_bowl_reaches_small_norm(alg):
    # f(theta) = ||theta||^2 / 2, gradient = theta; every optimizer at its
    # canonical defaults passes within 1e-3 of the optimum in 1e4 steps.
    opt = Optimizer(OptimizerConfig(alg))
    params = {"p": np.array([5.0, -3.0])}
    reached = False
    for _ in range(10_000):
        opt.step(params, {"p": params["p"].copy()})
        if np.linalg.norm(params["p"]) < 1e-3:
            reached = True
            break
    assert reached, f"{alg} never reached ||theta|| < 1e-3"


def test_clip_below_threshold_is_unchanged():
    grads = {"a": np.array([3.0])}
    assert clip_gradients(grads, 5.0) is grads


def test_clip_scales_to_max_norm():
    grads = {"a": np.array([6.0, 8.0])}
    clipped = clip_gradients(grads, 5.0)
    np.testing.assert_allclose(clipped["a"], [3.0, 4.0], rtol=1e-15)


def test_clip_uses_global_norm_across_parameters():
    grads = {"a": np.array([6.0]), "b": np.array([8.0])}
    clipped = clip_gradients(grads, 5.0)
    np.testing.assert_allclose(clipped["a"], [3.0], rtol=1e-15)
    np.testing.assert_allclose(clipped["b"], [4.0], rtol=1e-15)


def test_clip_zero_gradients_stay_zero():
    grads = {"a": np.zeros(4)}
    np.testing.assert_array_equal(clip_gradients(grads, 2.0)["a"], np.zeros(4))


def test_clip_is_idempotent_and_direction_preserving(rng):
    grads = {"a": rng.normal(size=(3, 4)) * 10, "b": rng.normal(size=5) * 10}
    once = clip_gradients(grads, 2.0)
    twice = clip_gradients(once, 2.0)
    for k in grads:
        np.testing.assert_allclose(once[k], twice[k], rtol=1e-12, atol=0)
        ratio = once[k] / grads[k]
        np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)
        assert ratio.flat[0] > 0


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_clipped_single_precision_steps_stay_single(alg, rng):
    params = {"a": rng.normal(size=(3, 4)).astype(np.float32),
              "b": rng.normal(size=5).astype(np.float32)}
    opt = Optimizer(OptimizerConfig(alg, clip_norm=0.5))
    for _ in range(3):
        grads = {name: (10 * rng.normal(size=v.shape)).astype(np.float32)
                 for name, v in params.items()}
        clipped = clip_gradients(grads, opt.config.clip_norm)
        assert clipped is not grads
        assert all(g.dtype == np.float32 for g in clipped.values())
        opt.step(params, clipped)
        assert all(v.dtype == np.float32 for v in params.values())
        assert all(s.dtype == np.float32 for slots in opt.slots.values() for s in slots.values())


def test_clip_rejects_nonfinite_gradients():
    with pytest.raises(NonFiniteError, match="bad"):
        clip_gradients({"bad": np.array([np.nan])}, 1.0)


def _per_gate_clip_gradients(grads, max_norm):
    """The clipping of a map of one gradient per model-file block (one per
    gate of an LSTM/GRU parameter), squares summed in sorted-name order."""
    total = 0.0
    for name in sorted(grads):
        sq = float(np.sum(np.square(grads[name], dtype=np.float64)))
        if not np.isfinite(sq):
            raise NonFiniteError(f"gradient for {name!r} is not finite")
        total += sq
    norm = np.sqrt(total)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * g.dtype.type(scale) for name, g in grads.items()}


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_clipped_stacked_gradients_equal_the_per_gate_clip(kind, precision):
    desc = cl.parse_description(
        "input type=word name=w\n"
        "layer type=projection name=p input=w size=5\n"
        f"layer type={kind} name=r input=p size=7\n"
        f"layer type={kind} name=s input=r size=6\n"
        "layer type=softmax name=o input=s\n")
    words = [f"w{i}" for i in range(20)]
    net = cl.instantiate_network(desc, cl.Vocabulary(words, {w: 1 for w in words}),
                                 precision=precision)
    blocks = file_blocks(net.desc, net.params)
    rng = np.random.default_rng(17)
    clipped_some = kept_some = False
    for trial in range(40):
        grads = {name: (rng.normal(size=v.shape) * rng.uniform(0.1, 3.0)).astype(net.dtype)
                 for name, v in net.params.items()}
        per_gate = {block: grads[name][index].copy() for block, name, index in blocks}
        norm = np.sqrt(sum(np.sum(np.square(g, dtype=np.float64)) for g in grads.values()))
        max_norm = norm * rng.uniform(0.5, 1.5)  # half of the maps are clipped
        clipped = clip_gradients(grads, max_norm, blocks)
        expected = _per_gate_clip_gradients(per_gate, max_norm)
        clipped_some |= expected is not per_gate
        kept_some |= expected is per_gate
        assert (clipped is grads) == (expected is per_gate)
        for block, name, index in blocks:
            assert clipped[name][index].dtype == expected[block].dtype == net.dtype
            assert np.array_equal(clipped[name][index], expected[block]), (trial, block)
    assert clipped_some and kept_some


def test_nonfinite_stacked_gradient_is_named_by_its_block():
    grads = {"r/W": np.zeros((3, 2, 2)), "r/b": np.zeros((3, 2))}
    grads["r/W"][1, 0, 1] = np.inf
    blocks = [(f"r/{p}_{gate}", f"r/{p}", (k,)) for k, gate in enumerate("zrh") for p in "Wb"]
    with pytest.raises(NonFiniteError, match=r"^gradient for 'r/W_r' is not finite$"):
        clip_gradients(grads, 1.0, blocks)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        OptimizerConfig("newton")
    with pytest.raises(ValueError):
        OptimizerConfig("sgd", learning_rate=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("nag", momentum=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("rmsprop", decay=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd", clip_norm=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_values(value):
    for field in ("learning_rate", "epsilon", "clip_norm"):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig("adam", **{field: value})


def test_defaults_are_filled_per_algorithm():
    cfg = OptimizerConfig("adam")
    assert (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon) == (1e-3, 0.9, 0.999, 1e-8)
    assert OptimizerConfig("adadelta").decay == 0.95
    assert OptimizerConfig("sgd").clip_norm == 5.0


def test_annealing_applies_only_to_nonadaptive():
    for alg in ALGORITHMS:
        assert Optimizer(OptimizerConfig(alg)).anneals == (alg not in ADAPTIVE_ALGORITHMS)


def test_step_counter_increments_once_per_step():
    opt = Optimizer(OptimizerConfig("adam"))
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    grads = {"a": np.ones(2), "b": np.ones(3)}
    opt.step(params, grads)
    opt.step(params, grads)
    assert opt.step_count == 2


# Reference: the update rules as one Optimizer subclass each, as they were
# before the rule table; the table must reproduce them bit for bit.
class _RefOptimizer:
    def __init__(self, config):
        self.config = config
        self.lr_scale = 1.0
        self.step_count = 0
        self.slots = {}

    def _slot(self, name, like, key):
        store = self.slots.setdefault(name, {})
        if key not in store:
            store[key] = np.zeros_like(like)
        return store[key]

    def step(self, params, grads):
        self.step_count += 1
        for name in sorted(grads):
            params[name] = self._update(name, params[name], grads[name])
        return params


class _RefSGD(_RefOptimizer):
    def _update(self, name, theta, g):
        return theta - self.config.learning_rate * self.lr_scale * g


class _RefNAG(_RefOptimizer):
    def _update(self, name, theta, g):
        eta = self.config.learning_rate * self.lr_scale
        mu = self.config.momentum
        v = self._slot(name, theta, "velocity")
        v_new = mu * v - eta * g
        self.slots[name]["velocity"] = v_new
        return theta + mu * v_new - eta * g


class _RefAdagrad(_RefOptimizer):
    def _update(self, name, theta, g):
        r = self._slot(name, theta, "sq_sum")
        r += g * g
        return theta - self.config.learning_rate * self.lr_scale * g / (np.sqrt(r) + self.config.epsilon)


class _RefAdadelta(_RefOptimizer):
    def _update(self, name, theta, g):
        rho, eps = self.config.decay, self.config.epsilon
        eg = self._slot(name, theta, "sq_grad")
        ed = self._slot(name, theta, "sq_update")
        eg *= rho
        eg += (1.0 - rho) * g * g
        update = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed *= rho
        ed += (1.0 - rho) * update * update
        return theta + self.config.learning_rate * self.lr_scale * update


class _RefAdam(_RefOptimizer):
    def _update(self, name, theta, g):
        b1, b2, eps = self.config.beta1, self.config.beta2, self.config.epsilon
        m = self._slot(name, theta, "m")
        v = self._slot(name, theta, "v")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        t = self.step_count
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        return theta - self.config.learning_rate * self.lr_scale * m_hat / (np.sqrt(v_hat) + eps)


class _RefRMSProp(_RefOptimizer):
    def _update(self, name, theta, g):
        rho, eps = self.config.decay, self.config.epsilon
        r = self._slot(name, theta, "sq_avg")
        r *= rho
        r += (1.0 - rho) * g * g
        return theta - self.config.learning_rate * self.lr_scale * g / (np.sqrt(r) + eps)


_REFERENCE = {"sgd": _RefSGD, "nag": _RefNAG, "adagrad": _RefAdagrad,
              "adadelta": _RefAdadelta, "adam": _RefAdam, "rmsprop": _RefRMSProp}


# (parameter dtype, gradient dtype); a caller may step float32 parameters
# with float64 gradients
_PRECISIONS = [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)]


@pytest.mark.parametrize("lr_scale", [1.0, 0.5])
@pytest.mark.parametrize("param_dtype, grad_dtype", _PRECISIONS)
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_every_rule_is_bitwise_its_subclass_reference(alg, param_dtype, grad_dtype, lr_scale):
    rng = np.random.default_rng(ALGORITHMS.index(alg))
    start = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    grads = [{name: rng.normal(size=value.shape).astype(grad_dtype)
              for name, value in start.items()} for _ in range(5)]
    table = Optimizer(OptimizerConfig(alg))
    reference = _REFERENCE[alg](OptimizerConfig(alg))
    table.lr_scale = reference.lr_scale = lr_scale
    params = {name: value.astype(param_dtype) for name, value in start.items()}
    expected = {name: value.astype(param_dtype) for name, value in start.items()}
    for step_grads in grads:
        table.step(params, step_grads)
        reference.step(expected, step_grads)
        for name in start:
            assert params[name].dtype == expected[name].dtype
            assert np.array_equal(params[name], expected[name])
            ref_slots = reference.slots.get(name, {})
            assert set(table.slots[name]) == set(ref_slots)
            for slot, value in ref_slots.items():
                assert table.slots[name][slot].dtype == value.dtype
                assert np.array_equal(table.slots[name][slot], value), (name, slot)
    assert table.step_count == reference.step_count == 5


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_slot_arrays_are_created_at_the_first_step_and_kept(alg):
    opt = Optimizer(OptimizerConfig(alg))
    params = {"p": np.ones(3)}
    opt.step(params, {"p": np.full(3, 0.5)})
    slots = opt.slots["p"]
    arrays = dict(slots)
    for g in (0.25, -0.125):
        opt.step(params, {"p": np.full(3, g)})
        assert opt.slots["p"] is slots and set(slots) == set(arrays)
        for slot, array in arrays.items():
            if slot != "velocity":  # nag replaces its velocity; see optimizers._nag
                assert slots[slot] is array
