"""Graph builders for the supported layer kinds.

Each function appends the forward computation of one layer to a
:class:`~classlm.graph.Graph` and returns the output node(s).  Node values
are time-major, ``(T, B, width)``: a feed-forward layer computes every
position at once, and a recurrent layer is one ``lstm`` or ``gru`` node
that runs the time loop.  Parameters are passed as a mapping from short
parameter names (``W_i``, ``b_f``, ...) to parameter nodes created by the
caller, so the same functions serve both graphs of a network: training
and evaluation.
"""

from __future__ import annotations

import numpy as np

LSTM_PARAMS = ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f", "W_o", "U_o", "b_o", "W_c", "U_c", "b_c")
GRU_PARAMS = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
TANH_PARAMS = ("W", "b")
SOFTMAX_PARAMS = ("W", "b")


def affine(g, x, w, b):
    return g.add_bias(g.matmul(x, w), b)


def projection_forward(g, ids_nodes, embedding_nodes):
    """Gather one embedding row per id, one table per input stream.

    With several streams the gathered vectors are concatenated, so the layer
    width is (number of streams) x (embedding width).
    """
    parts = [g.gather_rows(table, ids) for table, ids in zip(embedding_nodes, ids_nodes)]
    return g.concat(parts)


def lstm_forward(g, x, h0, c0, p, name=None):
    """The LSTM over every step of x; returns the hidden and cell sequences.

    One ``lstm`` node runs the time loop (see :meth:`Graph.lstm`); the state
    after the last step is the last element of each sequence.
    """
    seq = g.lstm(x, h0, c0, [p[n] for n in LSTM_PARAMS], name)
    return g.item(seq, 0), g.item(seq, 1)


def gru_forward(g, x, h0, p, name=None):
    """The GRU over every step of x; returns the hidden sequence."""
    return g.item(g.gru(x, h0, [p[n] for n in GRU_PARAMS], name), 0)


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
