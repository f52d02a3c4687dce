"""Training loop: mini-batches over sentences, validation-driven stopping.

Sentences are framed into one id stream, as scoring frames them, and cut
into segments of at most `max_sequence_length` positions, held as arrays
of stream starts and lengths; segments are bucketed by length and padded
within each batch.  The loss is the mean class cross-entropy over real
(unpadded) positions.  A batch is bound time-major, and one evaluation of
the network's training graph and one backward pass, through time inside
the recurrent ops, give its loss and gradients.  At regular intervals the
development perplexity is measured with the same scorer the ``score``
command uses.  The parameters achieving the lowest development perplexity
are checkpointed and restored at the end, so the returned model is always
the best one seen, not the last iterate.

When a validation fails to improve on the best perplexity by at least
`min_improvement` (relative), the failure counter grows and, for sgd/nag
only, the learning rate is multiplied by `annealing_factor`; the adaptive
algorithms tune their own rates and are never annealed.  Training stops
once the counter exceeds `patience` or `max_epochs` is reached.

A validation that a batch follows runs on a worker thread while the
calling thread computes and clips that batch's gradients, which do not
depend on its outcome; the batch's step waits for it, since the learning
rate and the decision to stop do.  No parameter is written while the two
run.  The validation's bookkeeping then runs on the calling thread, as
it would have without the overlap, and when it stops training the
batch's gradients are dropped; a non-finite value in the batch counts only
after the validation, so patience still stops training first.  With one
CPU every validation runs on the calling thread.
"""

from __future__ import annotations

import contextvars
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import NonFiniteError, backward, forward_eval
from .network import file_blocks
from .optimizers import Optimizer, OptimizerConfig, clip_gradients
from .scoring import corpus_perplexity, cpu_count
from .vocabulary import frame_sentences

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
    stopped_reason: str = ""
    # how the run was scheduled, not what it computed: the validations that
    # ran on a worker thread beside a batch's gradients
    validations_beside: int = field(default=0, compare=False)

    @property
    def diverged(self):
        return self.stopped_reason == "diverged"


def _segments(network, sentences, max_len):
    """The sentences framed as one id stream, and their segments of at most
    `max_len` positions as arrays of each one's first input in the stream
    and its length, in sentence order and from each sentence's start."""
    stream, words = frame_sentences(network.vocab, sentences)
    positions = words + 1  # inputs <s> w1 ... wn, targets w1 ... wn </s>
    pieces = -(-positions // max_len)
    sentence = np.repeat(np.arange(len(words)), pieces)
    earlier = np.repeat(np.cumsum(pieces) - pieces, pieces)  # segments of earlier sentences
    start = (np.arange(len(sentence)) - earlier) * max_len  # within the sentence
    offset = np.cumsum(words + 2) - (words + 2)  # each sentence's <s> in the stream
    return stream, offset[sentence] + start, np.minimum(positions[sentence] - start, max_len)


def _make_batches(segments, batch_size, rng):
    """Shuffle, bucket by length, pad, and shuffle the batch order."""
    stream, first, length = segments
    order = rng.permutation(len(first))
    order = order[np.argsort(length[order], kind="stable")]
    batches = []
    for lo in range(0, len(order), batch_size):
        chunk = order[lo:lo + batch_size]
        steps = np.arange(length[chunk].max())
        mask = steps < length[chunk, None]
        at = (first[chunk, None] + steps)[mask]
        inputs = np.zeros(mask.shape, dtype=np.int64)
        targets = np.zeros(mask.shape, dtype=np.int64)
        inputs[mask], targets[mask] = stream[at], stream[at + 1]
        batches.append((inputs, targets, mask.astype(np.float64)))
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]


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


def _batch_bindings(network, inputs, targets, mask, rng):
    """Time-major bindings of one batch: ids, targets and mask as (T, B),
    one dropout mask per layer as (T, B, width), the zero start state."""
    batch, length = inputs.shape
    dtype = network.dtype
    bindings = network.token_bindings(np.ascontiguousarray(inputs.T))
    bindings["target"] = network.classes.class_of[np.ascontiguousarray(targets.T)]
    bindings["mask"] = np.ascontiguousarray(mask.T, dtype=dtype)
    dropout = [s for s in network.desc.layers if s.kind == "dropout" and s.dropout_rate > 0.0]
    # drawn step by step, layer by layer within a step
    masks = [[dropout_mask(rng, (batch, network.widths[s.name]), s.dropout_rate, dtype)
              for s in dropout] for _ in range(length)]
    for k, spec in enumerate(dropout):
        bindings[f"dropmask/{spec.name}"] = np.stack([step[k] for step in masks])
    for key, value in network.initial_state(batch).items():
        bindings[f"state/{key}"] = value
    return bindings


def batch_loss(network, inputs, targets, mask, rng, params=None):
    """(Mean class cross-entropy, workspace) of one batch under `params`
    (default: the network's): one evaluation of the training graph over
    every position of the batch."""
    graph = network.training_graph()
    ws = forward_eval(graph, _batch_bindings(network, inputs, targets, mask, rng),
                      network.params if params is None else params)
    return float(ws.value(graph.outputs["loss"])), ws


def batch_gradients(network, inputs, targets, mask, rng, params=None):
    """(Mean class cross-entropy, gradients) of one batch: one backward pass
    over the workspace of :func:`batch_loss`, through time inside the
    recurrent ops."""
    loss, ws = batch_loss(network, inputs, targets, mask, rng, params)
    return loss, backward(ws.graph, ws)


def _epoch_batches(segments, config, rng):
    """``(epoch, batch)`` of every training batch in order; an epoch's
    batches are made when its first one is wanted."""
    for epoch in range(1, config.max_epochs + 1):
        for batch in _make_batches(segments, config.batch_size, rng):
            yield epoch, batch


def train(network, train_sentences, dev_sentences, config):
    """Train `network` in place; returns the final :class:`TrainingState`.

    On return the network parameters are the checkpoint with the lowest
    development perplexity.  A non-finite loss or development perplexity
    stops training with ``state.stopped_reason`` (and ``state.diverged``)
    saying so, and the last good checkpoint restored.  A validation that a
    batch follows runs beside that batch's gradients where the process may
    use two CPUs or more; no thread outlives the call.
    """
    train_sentences = [list(s) for s in train_sentences]
    dev_sentences = [list(s) for s in dev_sentences]
    if not dev_sentences:
        raise ValueError("empty development corpus")
    if not train_sentences:
        raise ValueError("empty training corpus")

    rng = np.random.default_rng(config.seed)
    optimizer = Optimizer(config.optimizer)
    state = TrainingState()
    segments = _segments(network, train_sentences, config.max_sequence_length)
    best = {"params": network.copy_params()}
    blocks = file_blocks(network.desc, network.params)  # what the clip norm sums
    per_epoch = -(-len(segments[1]) // config.batch_size)
    interval = config.validation_interval or per_epoch
    last_batch = per_epoch * config.max_epochs
    beside = cpu_count() > 1

    def gradients(inputs, targets, mask):
        """(loss, clipped gradients, None) of one batch; on a non-finite
        value (the loss if it was computed, None, the error)."""
        loss = None
        try:
            loss, grads = batch_gradients(network, inputs, targets, mask, rng)
            if config.optimizer.clip_norm is not None:
                grads = clip_gradients(grads, config.optimizer.clip_norm, blocks)
            return loss, grads, None
        except NonFiniteError as err:
            return loss, None, err

    def validated(ppl):
        """The bookkeeping of one validation; True when it stops training."""
        if not np.isfinite(ppl):
            log.error("training diverged: development perplexity is %s", ppl)
            state.stopped_reason = "diverged"
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

    validation = None  # the dev perplexity computing beside this batch
    # a thread starts at the first submit only, and the block's end joins it
    with ThreadPoolExecutor(1, thread_name_prefix="classlm-validation") as pool:
        for epoch, (inputs, targets, mask) in _epoch_batches(segments, config, rng):
            loss, grads, error = gradients(inputs, targets, mask)
            if validation is not None:
                stop = validated(validation.result())
                validation = None
                if stop:
                    state.stopped_reason = state.stopped_reason or "patience exceeded"
                    break
            state.epoch = epoch
            if loss is not None:
                state.train_loss = loss
            if error is not None:
                log.error("training diverged at batch %d, %s", state.batches + 1, error)
                state.stopped_reason = "diverged"
                break
            optimizer.step(network.params, grads)
            state.batches += 1
            if state.batches % interval == 0:
                if beside and state.batches < last_batch:
                    # the caller's context, its numpy error state with it
                    validation = pool.submit(contextvars.copy_context().run,
                                             corpus_perplexity, network, dev_sentences)
                    state.validations_beside += 1
                elif validated(corpus_perplexity(network, dev_sentences)):
                    state.stopped_reason = state.stopped_reason or "patience exceeded"
                    break
        else:
            if state.batches % interval != 0:
                validated(corpus_perplexity(network, dev_sentences))
            state.stopped_reason = state.stopped_reason or "max epochs reached"

    network.set_params(best["params"])
    log.info(
        "training finished (%s): best dev_ppl=%.6f after %d batches",
        state.stopped_reason, state.best_perplexity, state.batches,
    )
    return state
