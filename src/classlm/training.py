"""Training loop: mini-batches over sentences, validation-driven stopping.

Sentences are framed, cut into segments of at most `max_sequence_length`
positions, bucketed by length and padded within each batch; the loss is the
mean class cross-entropy over real (unpadded) positions, backpropagated
through time over the network's one training step graph.  At regular
intervals the development perplexity is measured with the same scorer the
``score`` command uses.  The parameters achieving the lowest development
perplexity are checkpointed and restored at the end, so the returned model
is always the best one seen, not the last iterate.

When a validation fails to improve on the best perplexity by at least
`min_improvement` (relative), the failure counter grows and, for sgd/nag
only, the learning rate is multiplied by `annealing_factor`; the adaptive
algorithms tune their own rates and are never annealed.  Training stops
once the counter exceeds `patience` or `max_epochs` is reached.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import layers
from .graph import NonFiniteError, backward, forward_eval
from .optimizers import OptimizerConfig, clip_gradients, make_optimizer
from .scoring import corpus_perplexity

__all__ = ["TrainingConfig", "TrainingState", "batch_gradients", "batch_loss", "train"]

log = logging.getLogger(__name__)


@dataclass
class TrainingConfig:
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 32
    max_sequence_length: int = 50
    validation_interval: int | None = None  # batches; None = once per epoch
    patience: int = 2
    annealing_factor: float = 0.5
    min_improvement: float = 0.001  # relative dev-perplexity improvement
    max_epochs: int = 10
    seed: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.max_sequence_length < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, max_sequence_length and max_epochs must be positive")
        if self.validation_interval is not None and self.validation_interval < 1:
            raise ValueError("validation_interval must be positive")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if not 0 <= self.min_improvement < math.inf:
            raise ValueError(f"min_improvement must be non-negative and finite,"
                             f" got {self.min_improvement}")
        if not 0.0 < self.annealing_factor < 1.0:
            raise ValueError("annealing_factor must be in (0, 1)")


@dataclass
class TrainingState:
    epoch: int = 0
    batches: int = 0
    lr_scale: float = 1.0
    best_perplexity: float = float("inf")
    failures: int = 0
    history: list = field(default_factory=list)  # (batches, dev ppl, lr_scale)
    train_loss: float = float("nan")
    diverged: bool = False
    stopped_reason: str = ""


def _segments(network, sentences, max_len):
    """(input ids, target ids) pairs, each at most max_len positions."""
    out = []
    for tokens in sentences:
        ids = np.asarray(network.vocab.frame(tokens), dtype=np.int64)
        inputs, targets = ids[:-1], ids[1:]
        for start in range(0, len(inputs), max_len):
            out.append((inputs[start:start + max_len], targets[start:start + max_len]))
    return out


def _make_batches(segments, batch_size, rng):
    """Shuffle, bucket by length, pad, and shuffle the batch order."""
    order = rng.permutation(len(segments))
    ordered = sorted(order.tolist(), key=lambda i: len(segments[i][0]))
    batches = []
    for start in range(0, len(ordered), batch_size):
        chunk = [segments[i] for i in ordered[start:start + batch_size]]
        length = max(len(inp) for inp, _ in chunk)
        inputs = np.zeros((len(chunk), length), dtype=np.int64)
        targets = np.zeros((len(chunk), length), dtype=np.int64)
        mask = np.zeros((len(chunk), length))
        for row, (inp, tgt) in enumerate(chunk):
            inputs[row, : len(inp)] = inp
            targets[row, : len(tgt)] = tgt
            mask[row, : len(inp)] = 1.0
        batches.append((inputs, targets, mask))
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]


def batch_loss(network, inputs, targets, mask, rng, params=None):
    """(Mean class cross-entropy, workspace of each step) of one batch under
    `params` (default: the network's): one training step per position."""
    graph = network.training_graph()
    params = network.params if params is None else params
    batch, dtype = len(inputs), network.dtype
    state = {f"state/{key}": value for key, value in network.initial_state(batch).items()}
    workspaces = []
    for t in range(inputs.shape[1]):
        bindings = network.token_bindings(inputs[:, t])
        bindings["target"] = network.classes.class_of[targets[:, t]]
        bindings["mask"] = mask[:, t].astype(dtype)
        for spec in network.desc.layers:
            if spec.kind == "dropout" and spec.dropout_rate > 0.0:
                bindings[f"dropmask/{spec.name}"] = layers.dropout_mask(
                    rng, (batch, network.widths[spec.name]), spec.dropout_rate, dtype)
        try:
            ws = forward_eval(graph, {**bindings, **state}, params)
        except NonFiniteError as err:
            raise NonFiniteError(f"time step {t}: {err}") from None
        state = {name: ws.value(graph.outputs[name]) for name in state}
        workspaces.append(ws)
    inv_count = np.asarray(1.0 / mask.sum(), dtype=dtype)
    # per-step losses are >= 0, so sum() adds them exactly as a chain of adds would
    return float(sum(ws.value(graph.outputs["loss"]) for ws in workspaces) * inv_count), workspaces


def batch_gradients(network, inputs, targets, mask, rng, params=None):
    """(Mean class cross-entropy, gradients) of one batch: backward over the
    steps of :func:`batch_loss` from the last, seeding each step's loss with
    1 / (unmasked positions) and its state outputs with the state-input
    adjoints of the step after it."""
    loss, workspaces = batch_loss(network, inputs, targets, mask, rng, params)
    graph = workspaces[0].graph
    state = [name for name in graph.outputs if name.startswith("state/")]
    inv_count = np.asarray(1.0 / mask.sum(), dtype=network.dtype)
    grads, carry = None, {}
    for ws in reversed(workspaces):
        grads, carry = backward(graph, ws, {"loss": inv_count, **carry}, grads, state)
    return loss, grads


def train(network, train_sentences, dev_sentences, config):
    """Train `network` in place; returns the final :class:`TrainingState`.

    On return the network parameters are the checkpoint with the lowest
    development perplexity.  If the loss diverges (non-finite values) the
    last good checkpoint is restored and ``state.diverged`` is set.
    """
    train_sentences = [list(s) for s in train_sentences]
    dev_sentences = [list(s) for s in dev_sentences]
    if not dev_sentences:
        raise ValueError("empty development corpus")
    if not train_sentences:
        raise ValueError("empty training corpus")

    rng = np.random.default_rng(config.seed)
    optimizer = make_optimizer(config.optimizer)
    state = TrainingState()
    segments = _segments(network, train_sentences, config.max_sequence_length)
    best = {"params": network.copy_params()}

    def validate():
        ppl = corpus_perplexity(network, dev_sentences)
        if not np.isfinite(ppl):
            log.error("training diverged: development perplexity is %s", ppl)
            state.diverged = True
            state.history.append((state.batches, ppl, state.lr_scale))
            return True
        previous_best = state.best_perplexity
        if ppl < previous_best:
            state.best_perplexity = ppl
            best["params"] = network.copy_params()
        relative_gain = (previous_best - ppl) / previous_best if np.isfinite(previous_best) else 1.0
        if relative_gain >= config.min_improvement:
            state.failures = 0
        else:
            state.failures += 1
            if optimizer.anneals:
                state.lr_scale *= config.annealing_factor
                optimizer.lr_scale = state.lr_scale
        state.history.append((state.batches, ppl, state.lr_scale))
        log.info(
            "validation: epoch=%d batch=%d dev_ppl=%.6f best=%.6f failures=%d lr_scale=%g",
            state.epoch, state.batches, ppl, state.best_perplexity, state.failures,
            state.lr_scale,
        )
        return state.failures > config.patience

    stop = False
    for epoch in range(1, config.max_epochs + 1):
        state.epoch = epoch
        batches = _make_batches(segments, config.batch_size, rng)
        interval = config.validation_interval or len(batches)
        for inputs, targets, mask in batches:
            try:
                state.train_loss, grads = batch_gradients(network, inputs, targets, mask, rng)
                if config.optimizer.clip_norm is not None:
                    grads = clip_gradients(grads, config.optimizer.clip_norm)
            except NonFiniteError as err:
                log.error("training diverged at batch %d, %s", state.batches + 1, err)
                state.diverged = True
                state.stopped_reason = "diverged"
                stop = True
                break
            optimizer.step(network.params, grads)
            state.batches += 1
            if state.batches % interval == 0:
                if validate():
                    state.stopped_reason = "diverged" if state.diverged else "patience exceeded"
                    stop = True
                    break
        if stop:
            break
        if epoch == config.max_epochs:
            state.stopped_reason = state.stopped_reason or "max epochs reached"
            if state.batches % interval != 0:
                validate()

    network.set_params(best["params"])
    log.info(
        "training finished (%s): best dev_ppl=%.6f after %d batches",
        state.stopped_reason, state.best_perplexity, state.batches,
    )
    return state
