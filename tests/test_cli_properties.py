"""Property tests through ``cli.main``: a mutated architecture file given to
``classlm train``, or a mutated model header given to ``classlm score``,
that its reader rejects ends in exit status 1 with exactly one error line
and no traceback."""

import copy
import json
import struct

import numpy as np
import pytest

import classlm as cl
from classlm.model_io import MAGIC

import support

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None,
                               suppress_health_check=[hypothesis.HealthCheck.filter_too_much])

# every layer kind and both input kinds
ARCHITECTURES = [
    support.SMALL_ARCH,
    "input type=word name=w\n"
    "input type=class name=c\n"
    "layer type=projection name=p input=w,c size=4\n"
    "layer type=dropout name=d input=p dropout_rate=0.25\n"
    "layer type=gru name=g input=d size=6\n"
    "layer type=softmax name=o input=g,p\n",
]
# whole tokens to put in place of one; no size above the bases' few units,
# so that no mutation asks for a large allocation
TOKENS = ["", "=", "x", "#", "input", "layer", "type=", "type=word", "type=gru", "type=dropout",
          "type=softmax", "type=conv", "name=", "name=a/b", "name=o", "name=p", "input=",
          "input=,", "input=o", "input=p,p", "input=w", "size=", "size=0", "size=-1", "size=1.5",
          "size=1e3", "size=1", "dropout_rate=1", "dropout_rate=nan", "dropout_rate=-0.5",
          "dropout_rate=x", "size=8=8"]
CHARACTERS = "=,/#-.x\t\n\ré"


def _assert_one_line_error(rc, errors):
    """Exit 1 with one single-line error and no traceback."""
    assert rc == 1
    assert len(errors) == 1 and errors[0].exc_info is None
    assert "\n" not in errors[0].getMessage()


@st.composite
def mutated_architectures(draw):
    """A base description with one to three tokens, characters or lines
    replaced, inserted, deleted or moved."""
    lines = draw(st.sampled_from(ARCHITECTURES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        action = draw(st.sampled_from(["token", "character", "delete", "duplicate", "swap"]))
        if not lines:
            lines = [draw(st.sampled_from(TOKENS))]
        elif action == "token":
            tokens = lines[i].split()
            at = draw(st.integers(0, len(tokens)))
            tokens[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(TOKENS))]
            lines[i] = " ".join(tokens)
        elif action == "character":
            at = draw(st.integers(0, len(lines[i])))
            cut = draw(st.integers(0, 1))
            lines[i] = lines[i][:at] + draw(st.sampled_from(CHARACTERS)) + lines[i][at + cut:]
        elif action == "delete":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "".join(line + "\n" for line in lines)


def _accepted(text):
    try:
        return not cl.validate_description(cl.parse_description(text))
    except cl.DescriptionError:
        return False


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    work = tmp_path_factory.mktemp("train")
    for name in ("train.txt", "dev.txt"):
        (work / name).write_text("a b c d\n" * 10)
    return work


@SETTINGS
@hypothesis.given(text=mutated_architectures())
def test_a_rejected_architecture_is_a_one_line_error(corpora, text):
    hypothesis.assume(not _accepted(text))
    arch = corpora / "arch.net"
    arch.write_text(text, encoding="utf-8", newline="")
    _assert_one_line_error(*support.run_cli([
        "train", "--train", str(corpora / "train.txt"), "--dev", str(corpora / "dev.txt"),
        "--arch", str(arch), "--output-model", str(corpora / "model.clm")]))
    assert not (corpora / "model.clm").exists()


JSON_VALUES = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.integers(-3, 12)
               | st.floats() | st.text(max_size=4) | st.sampled_from(["double", "single", "x"])
               | st.lists(st.integers(-3, 12) | st.text(max_size=2), max_size=3)
               | st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


def _mutate(data, node):
    """Replace or delete one value somewhere inside the JSON object or list
    `node`, descending a drawn path; an empty container gets a value."""
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            if isinstance(node, list):
                node.append(data.draw(JSON_VALUES))
            else:
                node[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            node[key] = data.draw(JSON_VALUES)
            return
        else:
            del node[key]
            return


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    work = tmp_path_factory.mktemp("score")
    path = work / "model.clm"
    network = support.random_class_network(np.random.default_rng(5), 6, 3)
    cl.save_model(path, network, training={"best_dev_perplexity": 5.0,
                                          "history": [[1, 5.0, 1.0]]})
    (work / "input.txt").write_text("w1 w2 w3\nw0 oov\n")
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    header = json.loads(blob[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])
    return work, blob, header


@SETTINGS
@hypothesis.given(data=st.data())
def test_a_rejected_model_header_is_a_one_line_error(saved_model, data):
    work, blob, header = saved_model
    path = work / "model.clm"
    path.write_bytes(blob)
    mutated = copy.deepcopy(header)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, mutated)
    support.rewrite_header(path, lambda h: (h.clear(), h.update(mutated)))
    scores = work / "scores.txt"
    scores.unlink(missing_ok=True)
    rc, errors = support.run_cli(["score", "--model", str(path), "--input",
                                  str(work / "input.txt"), "--output", str(scores)])
    hypothesis.assume(rc != 0 or errors)  # a header the reader accepts scores
    _assert_one_line_error(rc, errors)
    assert not scores.exists()
