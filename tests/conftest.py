import numpy as np
import pytest

import classlm as cl

import support


@pytest.fixture(scope="session")
def toy_model():
    """A small class-factored LSTM trained to near-zero entropy on the
    deterministic sentence "a b c d"; shared by scoring/sampling tests."""
    corpus = [["a", "b", "c", "d"]] * 400
    network = support.small_network(corpus, num_classes=4, seed=7)
    config = cl.TrainingConfig(
        optimizer=cl.OptimizerConfig("adagrad"),
        batch_size=32,
        max_epochs=8,
        patience=50,
        seed=1,
    )
    state = cl.train(network, corpus, corpus[:20], config)
    assert state.best_perplexity < 1.1
    return network


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def reference_ops(monkeypatch):
    """The ops of support.REFERENCE_OPS, which no network builds, in the
    engine's op table for one test: a support.ReferenceGraph evaluates."""
    support.register_reference_ops(monkeypatch)
