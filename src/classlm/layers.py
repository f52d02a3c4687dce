"""Graph builders for the supported layer kinds.

Each function appends the forward computation of one layer step to a
:class:`~classlm.graph.Graph` and returns the output node(s).  Parameters
are passed as a mapping from short parameter names (``W_i``, ``b_f``, ...)
to parameter nodes created by the caller, so the same builders serve both
step graphs of a network: training and evaluation.
"""

from __future__ import annotations

import numpy as np

LSTM_PARAMS = ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f", "W_o", "U_o", "b_o", "W_c", "U_c", "b_c")
GRU_PARAMS = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
TANH_PARAMS = ("W", "b")
SOFTMAX_PARAMS = ("W", "b")


def affine(g, x, w, b):
    return g.add_bias(g.matmul(x, w), b)


def gated_affine(g, x, h, w, u, b):
    """x W + h U + b, the pre-activation shared by every recurrent gate."""
    return g.add_bias(g.add(g.matmul(x, w), g.matmul(h, u)), b)


def projection_forward(g, ids_nodes, embedding_nodes):
    """Gather one embedding row per id, one table per input stream.

    With several streams the gathered vectors are concatenated, so the layer
    width is (number of streams) x (embedding width).
    """
    parts = [g.gather_rows(table, ids) for table, ids in zip(embedding_nodes, ids_nodes)]
    return g.concat(parts)


def lstm_step(g, x, h_prev, c_prev, p):
    """One LSTM update; returns the new (h, c) nodes.

    i  = sigmoid(x W_i + h U_i + b_i)        input gate
    f  = sigmoid(x W_f + h U_f + b_f)        forget gate
    o  = sigmoid(x W_o + h U_o + b_o)        output gate
    c' = f*c + i*tanh(x W_c + h U_c + b_c)
    h' = o*tanh(c')
    """
    i = g.sigmoid(gated_affine(g, x, h_prev, p["W_i"], p["U_i"], p["b_i"]))
    f = g.sigmoid(gated_affine(g, x, h_prev, p["W_f"], p["U_f"], p["b_f"]))
    o = g.sigmoid(gated_affine(g, x, h_prev, p["W_o"], p["U_o"], p["b_o"]))
    c_hat = g.tanh(gated_affine(g, x, h_prev, p["W_c"], p["U_c"], p["b_c"]))
    c_new = g.add(g.mul(f, c_prev), g.mul(i, c_hat))
    h_new = g.mul(o, g.tanh(c_new))
    return h_new, c_new


def gru_step(g, x, h_prev, p):
    """One GRU update; returns the new h node (no cell state).

    z  = sigmoid(x W_z + h U_z + b_z)        update gate
    r  = sigmoid(x W_r + h U_r + b_r)        reset gate
    h' = (1-z)*h + z*tanh(x W_h + (r*h) U_h + b_h)
    """
    z = g.sigmoid(gated_affine(g, x, h_prev, p["W_z"], p["U_z"], p["b_z"]))
    r = g.sigmoid(gated_affine(g, x, h_prev, p["W_r"], p["U_r"], p["b_r"]))
    h_hat = g.tanh(gated_affine(g, x, g.mul(r, h_prev), p["W_h"], p["U_h"], p["b_h"]))
    return g.add(g.mul(g.one_minus(z), h_prev), g.mul(z, h_hat))


def tanh_forward(g, x, p):
    """y = tanh(x W + b)."""
    return g.tanh(affine(g, x, p["W"], p["b"]))


def softmax_logits(g, x, p):
    """Class logits of the output layer (softmax applied by the caller)."""
    return affine(g, x, p["W"], p["b"])


def dropout_mask(rng, shape, rate, dtype=np.float64):
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate).

    Scaling at train time keeps evaluation an exact identity, so scoring
    never needs to know the training dropout rates.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)
