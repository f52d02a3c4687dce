"""Update-rule closed forms, clipping behaviour and descent on a quadratic bowl."""

import numpy as np
import pytest

from classlm.graph import NonFiniteError
from classlm.optimizers import (
    ADAPTIVE_ALGORITHMS,
    ALGORITHMS,
    OptimizerConfig,
    clip_gradients,
    make_optimizer,
)


def _step_scalar(alg, theta, grad, **overrides):
    opt = make_optimizer(OptimizerConfig(alg, **overrides))
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
    opt = make_optimizer(OptimizerConfig(alg))
    params = {"p": np.array([1.5, -2.5])}
    before = params["p"].copy()
    opt.step(params, {"p": np.zeros(2)})
    np.testing.assert_array_equal(params["p"], before)


def test_sgd_is_linear_in_the_gradient():
    g1 = np.array([0.3, -1.2])
    g2 = np.array([-0.8, 0.4])
    theta = np.array([1.0, 1.0])
    opt = make_optimizer(OptimizerConfig("sgd", learning_rate=0.25))
    full = {"p": theta.copy()}
    opt.step(full, {"p": (g1 + g2) / 2.0})
    half_a = theta - 0.25 * g1
    half_b = theta - 0.25 * g2
    np.testing.assert_array_equal(full["p"], (half_a + half_b) / 2.0)


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_quadratic_bowl_reaches_small_norm(alg):
    # f(theta) = ||theta||^2 / 2, gradient = theta; every optimizer at its
    # canonical defaults passes within 1e-3 of the optimum in 1e4 steps.
    opt = make_optimizer(OptimizerConfig(alg))
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


def test_clip_rejects_nonfinite_gradients():
    with pytest.raises(NonFiniteError, match="bad"):
        clip_gradients({"bad": np.array([np.nan])}, 1.0)


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
        assert make_optimizer(OptimizerConfig(alg)).anneals == (alg not in ADAPTIVE_ALGORITHMS)


def test_step_counter_increments_once_per_step():
    opt = make_optimizer(OptimizerConfig("adam"))
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    grads = {"a": np.ones(2), "b": np.ones(3)}
    opt.step(params, grads)
    opt.step(params, grads)
    assert opt.step_count == 2
