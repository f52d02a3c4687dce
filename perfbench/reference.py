"""Reference computations for the benchmark's correctness checks.

Written apart from the program: the model file is read with its own
parser, the forward pass follows the equations stated in
``classlm/layers.py`` in plain numpy, and the edit distance and the class
bigram objective are recomputed from their definitions.  Nothing here
imports ``classlm``.

Forward pass per position (evaluation mode, dropout is the identity):

    projection  x = E[id]
    lstm        i = sig(x W_i + h U_i + b_i)   f = sig(x W_f + h U_f + b_f)
                o = sig(x W_o + h U_o + b_o)   g = tanh(x W_c + h U_c + b_c)
                c' = f*c + i*g                 h' = o*tanh(c')
    tanh        y = tanh(x W + b)
    softmax     log P(c | h) = log_softmax(x W + b)

    log P(w | h) = log P(c(w) | h) + log P(w | c(w))
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"CLMF"
GATES = ("i", "f", "o", "c")


def read_model(path):
    """Header dict and name -> array map of a ``CLMF`` model file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a model file")
    (header_len,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    start = 12 + header_len
    start += (-start) % 16
    dtype = np.dtype("<f8" if header["precision"] == "double" else "<f4")
    params = {}
    for entry in header["parameters"]:
        lo = start + entry["offset"]
        block = np.frombuffer(raw[lo:lo + entry["nbytes"]], dtype=dtype)
        params[entry["name"]] = block.astype(np.float64).reshape(entry["shape"])
    return header, params


def parse_layers(text):
    """Layer list of an architecture description (the subset used here)."""
    layers = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        attrs = dict(p.split("=", 1) for p in parts[1:])
        layers.append(attrs | {"keyword": parts[0]})
    return layers


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


class ReferenceModel:
    """Evaluation-mode forward pass over whole padded batches."""

    def __init__(self, path):
        self.header, self.params = read_model(path)
        words = self.header["vocabulary"]["words"]
        self.ids = {w: i for i, w in enumerate(words)}
        self.words = words
        classes = self.header["classes"]
        self.num_classes = classes["num_classes"]
        self.class_of = np.asarray(classes["class_of"], dtype=np.int64)
        membership = np.asarray(classes["membership"], dtype=np.float64)
        with np.errstate(divide="ignore"):
            self.log_membership = np.log(membership)
        self.layers = parse_layers(self.header["architecture"])
        self.stacked = {}
        for layer in self.layers:
            if layer.get("type") == "lstm":
                name = layer["name"]
                p = self.params
                self.stacked[name] = (
                    np.concatenate([p[f"{name}/W_{g}"] for g in GATES], axis=1),
                    np.concatenate([p[f"{name}/U_{g}"] for g in GATES], axis=1),
                    np.concatenate([p[f"{name}/b_{g}"] for g in GATES]),
                )

    def frame(self, tokens):
        unk = self.ids["<unk>"]
        return [self.ids["<s>"]] + [self.ids.get(t, unk) for t in tokens] + [self.ids["</s>"]]

    def class_logprobs(self, inputs):
        """log P(c | history) for a (B, T) array of input word ids: (B, T, K)."""
        acts = {}
        out = None
        for layer in self.layers:
            name = layer["name"]
            if layer["keyword"] == "input":
                ids = self.class_of[inputs] if layer["type"] == "class" else inputs
                acts[name] = ids
                continue
            kind, src = layer["type"], layer["input"]
            if "," in src:
                raise ValueError("the reference supports single-input layers only")
            x = acts[src]
            if kind == "projection":
                acts[name] = self.params[f"{name}/E_{src}"][x]
            elif kind == "dropout":
                acts[name] = x
            elif kind == "lstm":
                acts[name] = self._lstm(name, x)
            elif kind == "tanh":
                acts[name] = np.tanh(x @ self.params[f"{name}/W"] + self.params[f"{name}/b"])
            elif kind == "softmax":
                out = _log_softmax(x @ self.params[f"{name}/W"] + self.params[f"{name}/b"])
                acts[name] = out
            else:
                raise ValueError(f"the reference does not implement {kind!r} layers")
        return out

    def _lstm(self, name, x):
        w, u, b = self.stacked[name]
        batch, steps, _ = x.shape
        size = u.shape[0]
        pre = x @ w + b
        h = np.zeros((batch, size))
        c = np.zeros((batch, size))
        out = np.empty((batch, steps, size))
        for t in range(steps):
            z = pre[:, t] + h @ u
            i, f, o = _sig(z[:, :size]), _sig(z[:, size:2 * size]), _sig(z[:, 2 * size:3 * size])
            c = f * c + i * np.tanh(z[:, 3 * size:])
            h = o * np.tanh(c)
            out[:, t] = h
        return out

    def word_logprobs(self, framed):
        """log P(w_t | w_<t) of framed id lists, one array per sentence.

        Sentences are sorted by length and scored in padded batches; the
        padding never influences real positions because the network is
        causal and each row is independent.
        """
        order = sorted(range(len(framed)), key=lambda i: len(framed[i]))
        result = [None] * len(framed)
        for lo in range(0, len(order), 256):
            chunk = order[lo:lo + 256]
            width = max(len(framed[i]) for i in chunk)
            ids = np.zeros((len(chunk), width), dtype=np.int64)
            for row, i in enumerate(chunk):
                ids[row, :len(framed[i])] = framed[i]
            logp_c = self.class_logprobs(ids[:, :-1])
            targets = ids[:, 1:]
            rows = np.arange(len(chunk))[:, None]
            cols = np.arange(width - 1)[None, :]
            logp = logp_c[rows, cols, self.class_of[targets]] + self.log_membership[targets]
            for row, i in enumerate(chunk):
                result[i] = logp[row, :len(framed[i]) - 1]
        return result

    def sentence_logprobs(self, sentences):
        """Total log-probability of each token list, `</s>` included."""
        per_token = self.word_logprobs([self.frame(s) for s in sentences])
        return [float(v.sum()) for v in per_token]

    def perplexity(self, sentences):
        per_token = self.word_logprobs([self.frame(s) for s in sentences])
        total = sum(float(v.sum()) for v in per_token)
        count = sum(v.size for v in per_token)
        return float(np.exp(-total / count))

    def uniform_class_perplexity(self, sentences):
        """Perplexity when P(c | history) is uniform over the classes."""
        ids = np.concatenate([self.frame(s)[1:] for s in sentences])
        logp = -np.log(self.num_classes) + self.log_membership[ids]
        return float(np.exp(-logp.mean()))


def edit_distance(a, b):
    """Word-level Levenshtein distance, full dynamic-programming table."""
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    table[:, 0] = np.arange(len(a) + 1)
    table[0, :] = np.arange(len(b) + 1)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i, j] = min(table[i - 1, j] + 1, table[i, j - 1] + 1,
                              table[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(table[-1, -1])


def _xlogx(counts):
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts > 0]
    return float((counts * np.log(counts)).sum())


def class_bigram_objective(stream, class_of):
    """Log-likelihood of the class bigram model on the circular stream.

    F = sum N(c1,c2) ln N(c1,c2) - 2 sum N(c) ln N(c) + sum N(w) ln N(w)
    """
    words, stream_ids = np.unique(np.asarray(stream), return_inverse=True)
    classes = np.asarray([class_of[w] for w in words], dtype=np.int64)[stream_ids]
    k = int(classes.max()) + 1
    pairs = classes * k + np.roll(classes, -1)
    _, pair_counts = np.unique(pairs, return_counts=True)
    return (_xlogx(pair_counts) - 2.0 * _xlogx(np.bincount(classes))
            + _xlogx(np.bincount(stream_ids)))
