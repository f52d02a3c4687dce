"""Gradient-based parameter updates and global gradient-norm clipping.

``_RULES`` holds one row per update rule (sgd, Nesterov's accelerated
gradient, Adagrad, Adadelta, Adam, RMSProp): its default hyperparameters,
the names of its per-parameter slot arrays and ``update(config, eta, t,
theta, g, slots)``, which returns the new parameter and updates the slots.
:class:`Optimizer` steps every rule.  The adaptive methods (all but sgd and
nag) tune their own effective rates and are never annealed.
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
]


def _sgd(c, eta, t, theta, g, s):
    return theta - eta * g


def _nag(c, eta, t, theta, g, s):
    # Parameter-shift form: the stored parameters are the look-ahead point.
    # The velocity is a new array each step, in the dtype of the update: the
    # parameters' dtype, unless a caller passes wider gradients.
    v = s["velocity"] = c.momentum * s["velocity"] - eta * g
    return theta + c.momentum * v - eta * g


def _adagrad(c, eta, t, theta, g, s):
    s["sq_sum"] += g * g
    return theta - eta * g / (np.sqrt(s["sq_sum"]) + c.epsilon)


def _adadelta(c, eta, t, theta, g, s):
    eg, ed = s["sq_grad"], s["sq_update"]
    eg *= c.decay
    eg += (1.0 - c.decay) * g * g
    update = -np.sqrt(ed + c.epsilon) / np.sqrt(eg + c.epsilon) * g
    ed *= c.decay
    ed += (1.0 - c.decay) * update * update
    return theta + eta * update


def _adam(c, eta, t, theta, g, s):
    m, v = s["m"], s["v"]
    m *= c.beta1
    m += (1.0 - c.beta1) * g
    v *= c.beta2
    v += (1.0 - c.beta2) * g * g
    m_hat = m / (1.0 - c.beta1 ** t)
    v_hat = v / (1.0 - c.beta2 ** t)
    return theta - eta * m_hat / (np.sqrt(v_hat) + c.epsilon)


def _rmsprop(c, eta, t, theta, g, s):
    r = s["sq_avg"]
    r *= c.decay
    r += (1.0 - c.decay) * g * g
    return theta - eta * g / (np.sqrt(r) + c.epsilon)


# algorithm: (canonical hyperparameters, slot names, update rule)
_RULES = {
    "sgd": ({"learning_rate": 0.1}, (), _sgd),
    "nag": ({"learning_rate": 0.1, "momentum": 0.9}, ("velocity",), _nag),
    "adagrad": ({"learning_rate": 0.1, "epsilon": 1e-6}, ("sq_sum",), _adagrad),
    "adadelta": ({"learning_rate": 1.0, "decay": 0.95, "epsilon": 1e-6},
                 ("sq_grad", "sq_update"), _adadelta),
    "adam": ({"learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8},
             ("m", "v"), _adam),
    "rmsprop": ({"learning_rate": 1e-3, "decay": 0.9, "epsilon": 1e-6}, ("sq_avg",), _rmsprop),
}
ALGORITHMS = tuple(_RULES)
ADAPTIVE_ALGORITHMS = ("adagrad", "adadelta", "adam", "rmsprop")


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
        for key, value in _RULES[self.algorithm][0].items():
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


def clip_gradients(grads, max_norm, blocks=None):
    """Rescale a gradient map so its global L2 norm is at most `max_norm`.

    The norm is taken over all gradients concatenated, so clipping preserves
    the update direction; maps already inside the ball are returned
    unchanged, which also makes clipping idempotent.  The squares are
    summed block by block in sorted block-name order, where `blocks` are
    (block name, gradient name, index) triples, ``grads[name][index]`` each
    block (:func:`classlm.network.file_blocks`); by default every gradient
    is one block of its own name.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if blocks is None:
        blocks = [(name, name, ()) for name in grads]
    total = 0.0
    for block, name, index in sorted(blocks):
        sq = float(np.sum(np.square(grads[name][index], dtype=np.float64)))
        if not np.isfinite(sq):
            raise NonFiniteError(f"gradient for {block!r} is not finite")
        total += sq
    norm = np.sqrt(total)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    # in each gradient's own dtype: a float64 scale would promote float32
    return {name: g * g.dtype.type(scale) for name, g in grads.items()}


class Optimizer:
    """Steps the rule of ``config.algorithm``.  ``slots[parameter][slot]``
    arrays are created at their parameter's first step; `lr_scale`
    multiplies the learning rate (the training loop anneals it for sgd/nag)."""

    def __init__(self, config):
        self.config = config
        self.lr_scale = 1.0
        self.step_count = 0
        self.slots = {}

    @property
    def anneals(self):
        return self.config.algorithm not in ADAPTIVE_ALGORITHMS

    def step(self, params, grads):
        """Apply one update in place; returns the params mapping."""
        self.step_count += 1
        _, slot_names, update = _RULES[self.config.algorithm]
        eta = self.config.learning_rate * self.lr_scale
        for name in sorted(grads):
            if name not in self.slots:
                self.slots[name] = {slot: np.zeros_like(params[name]) for slot in slot_names}
            params[name] = update(self.config, eta, self.step_count, params[name], grads[name],
                                  self.slots[name])
        return params
