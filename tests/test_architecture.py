"""Description-language parsing, validation rules and network instantiation."""

import numpy as np
import pytest

import classlm as cl
from classlm.architecture import DescriptionError

import support


def test_large_description_parses_to_eight_specs():
    desc = cl.parse_description(support.LARGE_ARCH)
    kinds = [(s.kind, s.size, s.dropout_rate) for s in desc.layers]
    assert kinds == [
        ("class_input", None, None),
        ("projection", 500, None),
        ("dropout", None, 0.25),
        ("lstm", 1500, None),
        ("dropout", None, 0.25),
        ("tanh", 1500, None),
        ("dropout", None, 0.25),
        ("softmax", None, None),
    ]
    assert desc.layers[3].inputs == ("dropout_layer_1",)
    assert cl.validate_description(desc) == []


def test_small_description_validates():
    assert cl.validate_description(cl.parse_description(support.SMALL_ARCH)) == []


def test_baseline_description_validates_verbatim():
    # the single-LSTM baseline: projection 100, lstm 300, tanh 300, softmax
    desc = cl.parse_description(support.BASELINE_ARCH)
    assert [(s.kind, s.size) for s in desc.layers] == [
        ("class_input", None), ("projection", 100), ("lstm", 300),
        ("tanh", 300), ("softmax", None),
    ]
    assert cl.validate_description(desc) == []
    assert cl.serialize_description(desc) == support.BASELINE_ARCH


def test_empty_description_is_an_error():
    with pytest.raises(DescriptionError, match="no layers"):
        cl.parse_description("")
    with pytest.raises(DescriptionError, match="no layers"):
        cl.parse_description("# only a comment\n\n")


def test_multi_input_layer_parses_to_tuple():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "input type=word name=b\n"
        "layer type=lstm name=h input=a,b size=4\n"
    )
    assert desc.by_name["h"].inputs == ("a", "b")


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus type=class name=x", "unknown keyword"),
        ("layer type=conv name=x input=y size=3", "unknown layer type"),
        ("input type=phoneme name=x", "unknown input type"),
        ("input type=class name=x\ninput type=class name=x", "duplicate name"),
        ("layer type=tanh name input=y size=3", "malformed attribute"),
        ("layer type=tanh name=x input=y", "missing required attribute 'size'"),
        ("layer type=tanh name=x size=3", "missing required attribute 'input'"),
        ("layer type=dropout name=x input=y", "missing required attribute 'dropout_rate'"),
        ("layer type=tanh name=x input=y size=3 size=4", "duplicate attribute"),
        ("layer type=softmax name=x input=y size=9", "not allowed"),
        ("input type=class name=x size=5", "not allowed"),
        ("layer type=tanh name=x input=y size=-2", "size must be positive"),
        ("layer type=dropout name=x input=y dropout_rate=1.0", "dropout_rate must be in"),
        ("layer type=tanh name=x input=y size=big", "size must be an integer"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(DescriptionError) as err:
        cl.parse_description(text)
    assert message in str(err.value)
    assert "line" in str(err.value)


def test_error_line_number_is_accurate():
    text = "input type=class name=a\n\n# comment\nlayer type=tanh name=b input=a\n"
    with pytest.raises(DescriptionError, match="line 4"):
        cl.parse_description(text)


def test_validation_final_layer_must_be_softmax():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=tanh name=t input=p size=2\n"
    )
    violations = cl.validate_description(desc)
    assert any("must be a softmax" in v and "line 3" in v for v in violations)


def test_validation_rejects_forward_and_self_references():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=softmax name=o input=p,later\n"
        "layer type=tanh name=later input=p size=2\n"
    )
    violations = cl.validate_description(desc)
    assert any("undeclared name 'later'" in v and "line 3" in v for v in violations)

    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=softmax name=o input=o\n"
    )
    assert any("undeclared name 'o'" in v for v in cl.validate_description(desc))


def test_validation_input_must_feed_projection():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=tanh name=t input=a size=2\n"
        "layer type=softmax name=o input=t\n"
    )
    violations = cl.validate_description(desc)
    assert any("not consumed by a projection" in v and "line 1" in v for v in violations)
    assert any("reads id stream" in v for v in violations)


def test_validation_projection_needs_id_stream_input():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=projection name=p2 input=p size=2\n"
        "layer type=softmax name=o input=p2\n"
    )
    violations = cl.validate_description(desc)
    assert any("is not a word or class input" in v and "line 3" in v for v in violations)


def test_validation_rejects_a_slash_in_any_name():
    desc = cl.parse_description(
        "input type=class name=c/x\n"
        "layer type=projection name=p input=c/x size=2\n"
        "layer type=softmax name=o/W input=p\n"
    )
    assert cl.validate_description(desc) == [
        "line 1: input name 'c/x' contains '/', which parameter names use after the layer name",
        "line 3: layer name 'o/W' contains '/', which parameter names use after the layer name",
    ]


def test_validation_flags_dangling_layers():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=tanh name=orphan input=p size=3\n"
        "layer type=softmax name=o input=p\n"
    )
    violations = cl.validate_description(desc)
    assert any("no path to the output" in v and "line 3" in v for v in violations)


def test_serialize_round_trip_is_identity_on_canonical_text():
    assert cl.serialize_description(cl.parse_description(support.LARGE_ARCH)) == support.LARGE_ARCH
    assert cl.serialize_description(cl.parse_description(support.SMALL_ARCH)) == support.SMALL_ARCH
    messy = "layer   type=tanh name=t size=7   input=a\n"
    full = "input type=class name=a\nlayer type=projection name=p input=a size=2\n" + \
        "layer type=tanh name=t input=p size=7\nlayer type=softmax name=o input=t\n"
    desc = cl.parse_description(full)
    assert cl.parse_description(cl.serialize_description(desc)) == desc


def test_concatenated_inputs_width_is_sum_of_widths():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p1 input=a size=3\n"
        "layer type=projection name=p2 input=a size=4\n"
        "layer type=lstm name=h input=p1,p2 size=5\n"
        "layer type=softmax name=o input=h\n"
    )
    vocab = cl.build_vocabulary([["x", "y", "z"]])
    classes = cl.initialize_classes(vocab, 2)
    net = cl.instantiate_network(desc, vocab, classes, seed=0)
    assert net.params["h/W"].shape == (4, 7, 5)
    assert net.params["o/W"].shape == (5, classes.num_classes)


def test_instantiation_is_deterministic_and_seed_sensitive():
    vocab = cl.build_vocabulary([["x", "y", "z", "q"]])
    classes = cl.initialize_classes(vocab, 2)
    desc = cl.parse_description(support.SMALL_ARCH)
    n1 = cl.instantiate_network(desc, vocab, classes, seed=3)
    n2 = cl.instantiate_network(desc, vocab, classes, seed=3)
    n3 = cl.instantiate_network(desc, vocab, classes, seed=4)
    for name in n1.params:
        np.testing.assert_array_equal(n1.params[name], n2.params[name])
    assert any(not np.array_equal(n1.params[k], n3.params[k]) for k in n1.params)


def test_instantiation_rejects_class_input_without_classmap():
    vocab = cl.build_vocabulary([["x", "y"]])
    desc = cl.parse_description(support.SMALL_ARCH)
    with pytest.raises(ValueError, match="class map"):
        cl.instantiate_network(desc, vocab)


def test_instantiation_rejects_invalid_description():
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=tanh name=t input=p size=2\n"
    )
    vocab = cl.build_vocabulary([["x"]])
    with pytest.raises(ValueError, match="softmax"):
        cl.instantiate_network(desc, vocab, cl.initialize_classes(vocab, 1))


def test_large_description_with_2000_classes_has_documented_shapes():
    # 1997 words in singleton classes plus the three reserved singletons
    # gives exactly 2000 classes.
    words = [f"w{i}" for i in range(1997)]
    vocab = cl.Vocabulary(words, {w: 1 for w in words})
    classes = cl.identity_classmap(vocab)
    assert classes.num_classes == 2000
    desc = cl.parse_description(support.LARGE_ARCH)
    net = cl.instantiate_network(desc, vocab, classes, seed=0)
    assert net.params["projection_layer/E_class_input"].shape == (2000, 500)
    assert net.params["output_layer/W"].shape == (1500, 2000)
    assert net.params["output_layer/b"].shape == (2000,)


def test_single_class_network_always_outputs_probability_one():
    words = ["only"]
    vocab = cl.Vocabulary(words, {"only": 3})
    class_of = np.zeros(len(vocab), dtype=np.int64)
    membership = np.array([0.25, 0.25, 0.25, 0.25])
    classes = cl.ClassMap(class_of, membership, 1)
    desc = cl.parse_description(
        "input type=class name=a\n"
        "layer type=projection name=p input=a size=2\n"
        "layer type=softmax name=o input=p\n"
    )
    net = cl.instantiate_network(desc, vocab, classes, seed=0)
    probs, _ = net.step(net.initial_state(1), np.array([vocab.ids["only"]]))
    assert probs.shape == (1, 1)
    assert probs[0, 0] == 1.0


def test_lstm_forget_gate_bias_initialized_to_one():
    vocab = cl.build_vocabulary([["x", "y"]])
    net = cl.instantiate_network(
        cl.parse_description(support.SMALL_ARCH), vocab, cl.initialize_classes(vocab, 1), seed=0
    )
    blocks = support.file_block_views(net)
    np.testing.assert_array_equal(blocks["hidden_layer_1/b_f"], np.ones(16))
    for gate in "ioc":
        np.testing.assert_array_equal(blocks[f"hidden_layer_1/b_{gate}"], np.zeros(16))


def test_gru_network_scores_and_has_correct_gradients(rng):
    desc = cl.parse_description(
        "input type=class name=c\n"
        "layer type=projection name=p input=c size=3\n"
        "layer type=gru name=h input=p size=4\n"
        "layer type=softmax name=o input=h\n"
    )
    vocab = cl.build_vocabulary([["x", "y", "z"]])
    classes = cl.initialize_classes(vocab, 2)
    net = cl.instantiate_network(desc, vocab, classes, seed=2)
    assert net.params["h/W"].shape == (3, 3, 4)
    assert net.params["h/b"].shape == (3, 4)
    assert list(net.initial_state(1)) == ["h/h"]  # no cell state for GRU

    scores = cl.score_arrays(net, [["x", "z", "y"]])
    assert np.isfinite(scores.totals[0]) and scores.counted[0] == 4

    # the gradient of a 3-step batch, through time over the step graph
    errors = support.batch_fd_errors(net, np.array([[0, 3, 4]]), np.array([[3, 4, 1]]),
                                     np.ones((1, 3)), 1e-5)
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


def test_hybrid_word_input_with_class_output(rng):
    # words in the input stream, classes only in the output factorization
    desc = cl.parse_description(
        "input type=word name=w\n"
        "layer type=projection name=p input=w size=3\n"
        "layer type=softmax name=o input=p\n"
    )
    vocab = cl.build_vocabulary([["x", "y", "z", "q"]])
    classes = cl.initialize_classes(vocab, 2)
    net = cl.instantiate_network(desc, vocab, classes, seed=1)
    assert net.params["p/E_w"].shape == (len(vocab), 3)
    assert net.params["o/W"].shape == (3, classes.num_classes)
    probs, _ = net.step(net.initial_state(1), np.array([vocab.ids["x"]]))
    dist = probs[0][classes.class_of] * classes.membership
    assert abs(dist.sum() - 1.0) < 1e-10


def test_multi_stream_projection_concatenates_embeddings():
    desc = cl.parse_description(
        "input type=class name=c\n"
        "input type=word name=w\n"
        "layer type=projection name=p input=c,w size=3\n"
        "layer type=softmax name=o input=p\n"
    )
    vocab = cl.build_vocabulary([["x", "y"]])
    classes = cl.initialize_classes(vocab, 2)
    net = cl.instantiate_network(desc, vocab, classes, seed=1)
    assert net.params["p/E_c"].shape == (classes.num_classes, 3)
    assert net.params["p/E_w"].shape == (len(vocab), 3)
    # concatenated width 6 feeds the output layer
    assert net.params["o/W"].shape == (6, classes.num_classes)
    probs, _ = net.step(net.initial_state(1), np.array([vocab.ids["x"]]))
    assert probs.shape == (1, classes.num_classes)


def test_word_input_network_without_classmap_uses_identity_classes():
    desc = cl.parse_description(
        "input type=word name=w\n"
        "layer type=projection name=p input=w size=3\n"
        "layer type=softmax name=o input=p\n"
    )
    vocab = cl.build_vocabulary([["x", "y", "z"]])
    net = cl.instantiate_network(desc, vocab, seed=1)
    assert net.classes.num_classes == len(vocab)
    assert net.params["p/E_w"].shape == (len(vocab), 3)
    probs, _ = net.step(net.initial_state(1), np.array([vocab.ids["x"]]))
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
