"""Gradient-based parameter updates and global gradient-norm clipping.

Six update rules are provided: plain stochastic gradient descent, Nesterov's
accelerated gradient, Adagrad, Adadelta, Adam and RMSProp.  The adaptive
methods (everything except sgd/nag) tune their own effective rates and are
never annealed by the training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import NonFiniteError

__all__ = [
    "ADAPTIVE_ALGORITHMS",
    "ALGORITHMS",
    "Optimizer",
    "OptimizerConfig",
    "clip_gradients",
    "make_optimizer",
]

ALGORITHMS = ("sgd", "nag", "adagrad", "adadelta", "adam", "rmsprop")
ADAPTIVE_ALGORITHMS = ("adagrad", "adadelta", "adam", "rmsprop")

_DEFAULTS = {
    "sgd": {"learning_rate": 0.1},
    "nag": {"learning_rate": 0.1, "momentum": 0.9},
    "adagrad": {"learning_rate": 0.1, "epsilon": 1e-6},
    "adadelta": {"learning_rate": 1.0, "decay": 0.95, "epsilon": 1e-6},
    "adam": {"learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8},
    "rmsprop": {"learning_rate": 1e-3, "decay": 0.9, "epsilon": 1e-6},
}


@dataclass
class OptimizerConfig:
    """Hyperparameters; unset fields take the algorithm's canonical default."""

    algorithm: str = "sgd"
    learning_rate: float | None = None
    momentum: float | None = None
    epsilon: float | None = None
    decay: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    clip_norm: float | None = 5.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        for key, value in _DEFAULTS[self.algorithm].items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.momentum is not None and not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        for name in ("decay", "beta1", "beta2"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be positive and finite (or None to disable),"
                             f" got {self.clip_norm}")


def clip_gradients(grads, max_norm):
    """Rescale a gradient map so its global L2 norm is at most `max_norm`.

    The norm is taken over all gradients concatenated, so clipping preserves
    the update direction; maps already inside the ball are returned
    unchanged, which also makes clipping idempotent.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
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
    return {name: g * scale for name, g in grads.items()}


class Optimizer:
    """Base class: owns per-parameter accumulators and the step counter.

    `lr_scale` is an external multiplier on the learning rate; the training
    loop anneals it for sgd/nag only.
    """

    def __init__(self, config):
        self.config = config
        self.lr_scale = 1.0
        self.step_count = 0
        self.slots = {}

    @property
    def anneals(self):
        return self.config.algorithm not in ADAPTIVE_ALGORITHMS

    def _slot(self, name, like, key):
        store = self.slots.setdefault(name, {})
        if key not in store:
            store[key] = np.zeros_like(like)
        return store[key]

    def step(self, params, grads):
        """Apply one update in place; returns the params mapping."""
        self.step_count += 1
        for name in sorted(grads):
            params[name] = self._update(name, params[name], grads[name])
        return params

    def _update(self, name, theta, g):
        raise NotImplementedError


class _SGD(Optimizer):
    def _update(self, name, theta, g):
        return theta - self.config.learning_rate * self.lr_scale * g


class _NAG(Optimizer):
    """Nesterov momentum in the parameter-shift form: the stored parameters
    are the look-ahead point, so gradients are always evaluated there."""

    def _update(self, name, theta, g):
        eta = self.config.learning_rate * self.lr_scale
        mu = self.config.momentum
        v = self._slot(name, theta, "velocity")
        v_new = mu * v - eta * g
        self.slots[name]["velocity"] = v_new
        return theta + mu * v_new - eta * g


class _Adagrad(Optimizer):
    def _update(self, name, theta, g):
        r = self._slot(name, theta, "sq_sum")
        r += g * g
        return theta - self.config.learning_rate * self.lr_scale * g / (np.sqrt(r) + self.config.epsilon)


class _Adadelta(Optimizer):
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


class _Adam(Optimizer):
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


class _RMSProp(Optimizer):
    def _update(self, name, theta, g):
        rho, eps = self.config.decay, self.config.epsilon
        r = self._slot(name, theta, "sq_avg")
        r *= rho
        r += (1.0 - rho) * g * g
        return theta - self.config.learning_rate * self.lr_scale * g / (np.sqrt(r) + eps)


_CLASSES = {
    "sgd": _SGD,
    "nag": _NAG,
    "adagrad": _Adagrad,
    "adadelta": _Adadelta,
    "adam": _Adam,
    "rmsprop": _RMSProp,
}


def make_optimizer(config):
    return _CLASSES[config.algorithm](config)
