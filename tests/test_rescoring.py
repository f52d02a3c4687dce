"""Score interpolation, n-best reranking and grid tuning against references."""

import re
import warnings

import numpy as np
import pytest

import classlm as cl
from classlm.rescoring import InterpolationParams, edit_distances

import support
from support import nbest


def _hyp(utt, acoustic, backoff, text):
    return support.Hypothesis(utt, acoustic, backoff, tuple(text.split()))


def edit_distance(hyp, ref):
    """Word-level Levenshtein distance of one pair, by `edit_distances`."""
    return int(edit_distances([hyp], [ref])[0])


def test_combination_formula_endpoints_and_midpoint():
    assert InterpolationParams(0.5, 1.0, 1.0).combine(-10.0, -8.0) == pytest.approx(-9.0, abs=1e-12)
    assert InterpolationParams(0.0, 2.0, 5.0).combine(-10.0, -8.0) == -20.0
    assert InterpolationParams(1.0, 2.0, 5.0).combine(-10.0, -8.0) == -40.0


def test_lambda_zero_ranking_invariant_to_network(rng):
    hyps = {
        "u1": [_hyp("u1", -1.0, -5.0, "a b"), _hyp("u1", -0.5, -9.0, "b a"),
               _hyp("u1", -2.0, -1.0, "a a")],
    }
    params = InterpolationParams(0.0, s_bo=2.0)
    net1 = support.random_class_network(rng, vocab_size=6, num_classes=3)
    net2 = support.random_class_network(rng, vocab_size=6, num_classes=3)
    order1 = [r.hypothesis.tokens for r in support.rescore_nbest(nbest(hyps), net1, params)["u1"]]
    order2 = [r.hypothesis.tokens for r in support.rescore_nbest(nbest(hyps), net2, params)["u1"]]
    assert order1 == order2
    # matches ranking by acoustic + s_bo * backoff
    expected = sorted(hyps["u1"], key=lambda h: -(h.acoustic + 2.0 * h.backoff))
    assert order1 == [h.tokens for h in expected]


def test_lambda_one_ranks_by_network_score(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    w = net.vocab.words
    hyps = {"u": [_hyp("u", 0.0, -100.0, f"{w[3]} {w[4]}"),
                  _hyp("u", 0.0, 0.0, f"{w[4]} {w[5]} {w[3]}"),
                  _hyp("u", 0.0, -50.0, f"{w[5]}")]}
    params = InterpolationParams(1.0, s_bo=9.9, s_nn=1.0)
    rows = support.rescore_nbest(nbest(hyps), net, params)["u"]
    nn = {r.hypothesis.tokens: r.log_p_nn for r in rows}
    expected = sorted(hyps["u"], key=lambda h: -nn[h.tokens])
    assert [r.hypothesis.tokens for r in rows] == [h.tokens for h in expected]


def test_total_score_adds_acoustic_term(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    w = net.vocab.words
    hyps = {"u": [_hyp("u", -3.25, -7.0, f"{w[3]}")]}
    params = InterpolationParams(0.4, 1.5, 2.5)
    row = support.rescore_nbest(nbest(hyps), net, params)["u"][0]
    assert row.total == pytest.approx(-3.25 + params.combine(-7.0, row.log_p_nn), rel=1e-15)


def test_ties_keep_first_pass_order(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    hyps = {"u": [_hyp("u", -1.0, -4.0, "x y"), _hyp("u", -1.0, -4.0, "y x")]}
    rows = support.rescore_nbest(nbest(hyps), net, InterpolationParams(0.0))["u"]
    assert [r.hypothesis.tokens for r in rows] == [("x", "y"), ("y", "x")]


def test_combined_score_monotone_in_network_score():
    params = InterpolationParams(0.3, 1.2, 0.8)
    values = [params.combine(-10.0, nn) for nn in np.linspace(-30, -1, 15)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_interpolation_params_validation():
    with pytest.raises(ValueError):
        InterpolationParams(1.5)
    with pytest.raises(ValueError):
        InterpolationParams(0.5, s_bo=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            InterpolationParams(0.5, s_nn=bad)


def test_edit_distance_cases():
    assert edit_distance("a b c".split(), "a b c".split()) == 0
    assert edit_distance("a b".split(), "a b c".split()) == 1
    assert edit_distance("a x c".split(), "a b c".split()) == 1
    assert edit_distance([], "a b".split()) == 2
    assert edit_distance("kitten", "sitting") == 3


def _loop_edit_distance(hyp, ref):
    """The pure-Python Levenshtein loop, one row per hypothesis word."""
    previous = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        current = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (h != r))
        previous = current
    return previous[len(ref)]


def test_edit_distances_equal_the_loop(rng):
    # few word types, so words repeat within and across sides; empty sides
    # and pairs of very different lengths share one batch
    pairs = [([], []), ([], ["a"]), (["a", "a"], [])]
    for _ in range(300):
        hyp, ref = ([f"w{i}" for i in rng.integers(0, 4, size=rng.integers(0, 12))]
                    for _ in range(2))
        pairs.append((hyp, ref))
    hyps, refs = zip(*pairs)
    batched = edit_distances(hyps, refs)
    assert batched.tolist() == [_loop_edit_distance(h, r) for h, r in pairs]
    assert [edit_distance(h, r) for h, r in pairs] == batched.tolist()


def _random_words(rng, low, high):
    return [f"w{i}" for i in rng.integers(0, 4, size=rng.integers(low, high))]


def test_edit_distances_with_one_shared_reference_equal_the_loop(rng):
    # every hypothesis paired with the same reference object, as in tuning
    for ref in ([], ["a"], _random_words(rng, 1, 12), tuple(_random_words(rng, 5, 20))):
        hyps = [_random_words(rng, 0, 15) for _ in range(40)] + [[], list(ref)]
        refs = [ref] * len(hyps)
        assert edit_distances(hyps, refs).tolist() == [_loop_edit_distance(h, ref) for h in hyps]


def test_edit_distances_with_distinct_references_equal_the_loop(rng):
    # equal references as distinct objects, and distinct ones
    hyps = [_random_words(rng, 0, 10) for _ in range(60)]
    refs = [list(h) if i % 3 == 0 else _random_words(rng, 0, 10) for i, h in enumerate(hyps)]
    refs[1] = list(refs[2])
    assert edit_distances(hyps, refs).tolist() == [_loop_edit_distance(h, r)
                                                   for h, r in zip(hyps, refs)]


def test_edit_distances_of_empty_hypotheses_are_the_reference_lengths(rng):
    refs = [_random_words(rng, 0, 30) for _ in range(20)]
    shared = refs[0]
    refs += [shared] * 5
    hyps = [[] for _ in refs]
    distances = edit_distances(hyps, refs)
    assert distances.tolist() == [len(r) for r in refs] == [_loop_edit_distance([], r)
                                                            for r in refs]
    assert distances.dtype == np.int64
    assert edit_distances([], []).tolist() == []


def test_edit_distances_of_long_sequences_equal_the_loop(rng):
    # sequences too long for the narrowest integer cells
    hyps = [_random_words(rng, 100, 200) for _ in range(3)]
    refs = [_random_words(rng, 0, 250), hyps[1][::-1], []]
    assert edit_distances(hyps, refs).tolist() == [_loop_edit_distance(h, r)
                                                   for h, r in zip(hyps, refs)]


def test_single_point_grid_is_returned(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    w = net.vocab.words
    hyps = {"u": [_hyp("u", 0.0, -1.0, f"{w[3]}")]}
    refs = {"u": (w[3],)}
    params, errors, _ = cl.optimize_interpolation(nbest(hyps), refs, net, 1.0, [0.25], [2.0])
    assert params == InterpolationParams(0.25, 1.0, 2.0)
    assert errors == 0


def test_tuning_prefers_smallest_lambda_when_backoff_is_right(rng):
    net = support.random_class_network(rng, vocab_size=8, num_classes=3)
    w = net.vocab.words
    # the back-off model already ranks the reference first everywhere
    hyps = {
        "u1": [_hyp("u1", 0.0, -1.0, f"{w[3]} {w[4]}"), _hyp("u1", 0.0, -20.0, f"{w[5]} {w[6]}")],
        "u2": [_hyp("u2", 0.0, -2.0, f"{w[6]}"), _hyp("u2", 0.0, -30.0, f"{w[4]}")],
    }
    refs = {"u1": (w[3], w[4]), "u2": (w[6],)}
    params, errors, _ = cl.optimize_interpolation(
        nbest(hyps), refs, net, 1.0, [0.0, 0.5, 1.0], [1.0, 2.0]
    )
    assert errors == 0
    assert params.lam == 0.0 and params.s_nn == 1.0


def test_tuning_chooses_positive_lambda_when_network_is_right(toy_model):
    # the trained toy model strongly prefers "a b c d"; the back-off scores
    # prefer the wrong hypotheses, so zero word errors need lambda > 0
    net = toy_model
    hyps = {
        "u1": [_hyp("u1", 0.0, -1.0, "d c b a"), _hyp("u1", 0.0, -9.0, "a b c d")],
        "u2": [_hyp("u2", 0.0, -1.0, "b b b b"), _hyp("u2", 0.0, -9.0, "a b c d")],
        "u3": [_hyp("u3", 0.0, -1.0, "a a d d"), _hyp("u3", 0.0, -9.0, "a b c d")],
    }
    refs = {u: ("a", "b", "c", "d") for u in hyps}
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    params, errors, _ = cl.optimize_interpolation(nbest(hyps), refs, net, 1.0, grid, [1.0])
    assert params.lam > 0.0
    assert errors == 0
    # exhaustive check: the reported grid point really is a minimizer
    for lam in grid:
        _, e, _ = cl.optimize_interpolation(nbest(hyps), refs, net, 1.0, [lam], [1.0])
        assert e >= errors


def test_tuning_computes_each_edit_distance_once(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=8, num_classes=3)
    w = net.vocab.words
    hyps = {
        "u1": [_hyp("u1", 0.0, -1.0, f"{w[3]} {w[4]}"), _hyp("u1", 0.0, -5.0, f"{w[5]}")],
        "u2": [_hyp("u2", -1.0, -2.0, f"{w[6]}"), _hyp("u2", 0.0, -3.0, f"{w[4]} {w[6]}"),
               _hyp("u2", 0.0, -4.0, f"{w[7]}")],
    }
    refs = {"u1": (w[3], w[4]), "u2": (w[6],)}
    calls = []

    def counting(hyp_list, ref_list):
        calls.extend((tuple(h), tuple(r)) for h, r in zip(hyp_list, ref_list))
        return edit_distances(hyp_list, ref_list)

    monkeypatch.setattr(cl.rescoring, "edit_distances", counting)
    cl.optimize_interpolation(nbest(hyps), refs, net, 1.0, [0.0, 0.5, 1.0], [0.5, 1.0, 2.0])
    assert len(calls) == 5
    assert len(set(calls)) == 5


def test_tuning_requires_references(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    hyps = {"u": [_hyp("u", 0.0, -1.0, "a")]}
    with pytest.raises(ValueError, match="no reference"):
        cl.optimize_interpolation(nbest(hyps), {}, net, 1.0, [0.5], [1.0])
    with pytest.raises(ValueError, match="empty"):
        cl.optimize_interpolation(nbest(hyps), {"u": ("a",)}, net, 1.0, [], [1.0])
    # every grid point is valid, not only the chosen one
    with pytest.raises(ValueError, match="lambda"):
        cl.optimize_interpolation(nbest(hyps), {"u": ("a",)}, net, 1.0, [0.0, 1.5], [1.0])
    with pytest.raises(ValueError, match="scale"):
        cl.optimize_interpolation(nbest(hyps), {"u": ("a",)}, net, 1.0, [0.0], [1.0, np.inf])


class _FixedScores:
    """Stands in for the scores of the texts given to `score_arrays`."""

    def __init__(self, totals):
        self.totals = np.array(totals, dtype=float)


def _brute_force_tuning(by_utterance, references, nn_scores, s_bo, lambda_grid, snn_grid):
    """The nested-loop grid search: one combine call per hypothesis and point."""
    best = best_errors = None
    for lam in sorted(set(lambda_grid)):
        for s_nn in sorted(set(snn_grid)):
            params = InterpolationParams(lam, s_bo, s_nn)
            errors = 0
            for utt, hyps in by_utterance.items():
                totals = [h.acoustic + params.combine(h.backoff, nn)
                          for h, nn in zip(hyps, nn_scores[utt])]
                errors += edit_distance(hyps[totals.index(max(totals))].tokens,
                                        references[utt])
            if best_errors is None or errors < best_errors:
                best, best_errors = params, errors
    return best, best_errors


@pytest.mark.parametrize("coarse", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_vectorised_grid_equals_nested_loop(seed, coarse, monkeypatch):
    rng = np.random.default_rng(seed)
    words = "a b c d".split()
    # scores drawn from a few coarse values, and repeated hypotheses, make
    # ties between hypotheses and between grid points common; fine values
    # make totals whose rounding depends on the order of operations
    values = (np.array([-4.0, -2.5, -2.0, -1.0, -0.5]) if coarse
              else rng.normal(-3.0, 1.0, size=50))
    by_utterance, references, nn_scores = {}, {}, {}
    for u in range(int(rng.integers(1, 8))):
        utt = f"u{u}"
        hyps = []
        for _ in range(int(rng.integers(1, 7))):
            if hyps and rng.random() < 0.25:
                hyps.append(hyps[int(rng.integers(len(hyps)))])
                continue
            tokens = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
            hyps.append(_hyp(utt, float(rng.choice(values)), float(rng.choice(values)), tokens))
        by_utterance[utt] = hyps
        references[utt] = tuple(rng.choice(words, size=int(rng.integers(1, 5))))
        nn_scores[utt] = [float(rng.choice(values)) for _ in hyps]
    flat = iter([nn for scores in nn_scores.values() for nn in scores])
    monkeypatch.setattr(cl.rescoring, "score_arrays",
                        lambda net, texts, policy: _FixedScores([next(flat) for _ in texts]))
    s_bo = float(rng.choice([0.5, 1.0, 3.0]))
    lambda_grid = [0.0, 0.25, 0.5, 0.75, 1.0, 0.5]
    snn_grid = [2.0, 0.5, 1.0, 3.0]

    params, errors, scores = cl.optimize_interpolation(
        nbest(by_utterance), references, None, s_bo, lambda_grid, snn_grid)
    assert scores.tolist() == [nn for scores in nn_scores.values() for nn in scores]
    assert (params, errors) == _brute_force_tuning(
        by_utterance, references, nn_scores, s_bo, lambda_grid, snn_grid)


def test_grid_ties_follow_the_rounding_of_combine(monkeypatch):
    # the second hypothesis ties the first exactly under the operation order
    # of InterpolationParams.combine; any other order breaks some ties
    rng = np.random.default_rng(0)
    params = InterpolationParams(0.3, 1.3, 0.7)
    by_utterance, nn_scores = {}, {}
    while len(by_utterance) < 100:
        ac_a, bo_a, nn_a, bo_b, nn_b = (float(v) for v in rng.normal(-20.0, 5.0, size=5))
        total_a = ac_a + params.combine(bo_a, nn_a)
        lm_b = params.combine(bo_b, nn_b)
        ac_b = total_a - lm_b
        if ac_b + lm_b != total_a:
            continue
        utt = f"u{len(by_utterance)}"
        by_utterance[utt] = [_hyp(utt, ac_a, bo_a, "a x"), _hyp(utt, ac_b, bo_b, "a b")]
        nn_scores[utt] = [nn_a, nn_b]
    flat = iter([nn for scores in nn_scores.values() for nn in scores])
    monkeypatch.setattr(cl.rescoring, "score_arrays",
                        lambda net, texts, policy: _FixedScores([next(flat) for _ in texts]))
    refs = {utt: ("a", "b") for utt in by_utterance}
    _, errors, _ = cl.optimize_interpolation(nbest(by_utterance), refs, None, 1.3, [0.3], [0.7])
    assert errors == len(by_utterance)  # every tie goes to the first hypothesis


def test_rescoring_with_given_scores_runs_no_network(rng):
    net = support.random_class_network(rng, vocab_size=8, num_classes=3)
    w = net.vocab.words
    hyps = {"u1": [_hyp("u1", -1.0, -3.0, f"{w[3]} {w[4]}"), _hyp("u1", -2.0, -1.0, f"{w[5]}")],
            "u2": [_hyp("u2", -0.5, -2.0, f"{w[6]} {w[7]}")]}
    refs = {"u1": (w[3],), "u2": (w[6],)}
    params, _, nn_scores = cl.optimize_interpolation(
        nbest(hyps), refs, net, 1.5, [0.0, 0.5], [1.0])
    assert nn_scores.tolist() == cl.rescoring.score_hypotheses(nbest(hyps), net).tolist()
    assert (support.rescore_nbest(nbest(hyps), None, params, nn_scores=nn_scores)
            == support.rescore_nbest(nbest(hyps), net, params))


def _old_combine(params, log_p_bo, log_p_nn):
    """The combination as the reranking wrote it on Python floats."""
    return (1.0 - params.lam) * params.s_bo * log_p_bo + params.lam * params.s_nn * log_p_nn


def test_minus_inf_network_score_at_lambda_zero_and_above():
    hyps = {"u": [_hyp("u", -1.0, -9.0, "a"), _hyp("u", -0.25, -1.5, "b"),
                  _hyp("u", -1.0, -0.5, "c"), _hyp("u", -3.0, -2.0, "d")],
            "v": [_hyp("v", -2.0, -1.0, "e")]}
    nn_scores = [-np.inf, -3.7, -np.inf, -1.3, -np.inf]
    flat = [h for hs in hyps.values() for h in hs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (InterpolationParams(0.0, 1.7, 0.9), InterpolationParams(0.0)):
            reranked = support.rescore_nbest(nbest(hyps), None, params, nn_scores=nn_scores)
            for utt, rows in reranked.items():
                expected = sorted(hyps[utt], key=lambda h: -(h.acoustic + params.s_bo * h.backoff))
                assert [r.hypothesis for r in rows] == expected
                assert [r.total for r in rows] == [h.acoustic + params.s_bo * h.backoff
                                                   for h in expected]
        params = InterpolationParams(0.4, 1.7, 0.9)
        rows = support.rescore_nbest(nbest(hyps), None, params, nn_scores=nn_scores)["u"]
    # finite scores keep the bits of the formula; -inf ranks last in first-pass order
    assert [r.hypothesis.tokens for r in rows] == [("b",), ("d",), ("a",), ("c",)]
    for r in rows:
        nn = nn_scores[flat.index(r.hypothesis)]
        assert r.log_p_nn == nn
        assert r.total == r.hypothesis.acoustic + _old_combine(params, r.hypothesis.backoff, nn)
    assert [r.total for r in rows[2:]] == [-np.inf, -np.inf]


def test_tuning_with_minus_inf_network_scores(monkeypatch):
    # u1: the -inf hypothesis is the reference but the back-off ranks it last;
    # u2: the -inf hypothesis is wrong and ranked last too.  At lambda = 0 the
    # back-off ranking holds (one error, in u1); at lambda = 0.5 too
    hyps = {"u1": [_hyp("u1", 0.0, -9.0, "a d c"), _hyp("u1", 0.0, -1.0, "a b c")],
            "u2": [_hyp("u2", 0.0, -9.0, "x y"), _hyp("u2", 0.0, -1.0, "a b")]}
    refs = {"u1": ("a", "d", "c"), "u2": ("a", "b")}
    nn = [-np.inf, -2.0, -np.inf, -1.0]
    monkeypatch.setattr(cl.rescoring, "score_arrays",
                        lambda net, texts, policy: _FixedScores(nn))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid, lam in (([0.0], 0.0), ([0.5], 0.5), ([0.0, 0.5], 0.0)):
            params, errors, scores = cl.optimize_interpolation(
                nbest(hyps), refs, None, 1.0, grid, [1.0])
            assert (params.lam, errors) == (lam, 1)
            assert scores.tolist() == nn


def test_hypothesis_without_tokens_is_rejected():
    with pytest.raises(ValueError, match="hypothesis has no tokens"):
        cl.NBest.from_columns(["u", "u"], [0.0, 0.0], [0.0, 0.0], [("a",), ()])


def test_nbest_file_parsing(tmp_path):
    path = tmp_path / "nbest.txt"
    path.write_text(
        "u1 -12.5 -7.25 hello world\n"
        "u2 -3.0 -2.0 good morning\n"
        "u1 -11.0 -9.0 hello word\n"
    )
    by_utt = support.by_utterance(cl.read_nbest_file(path))
    assert list(by_utt) == ["u1", "u2"]
    assert len(by_utt["u1"]) == 2
    assert by_utt["u1"][0].acoustic == -12.5
    assert by_utt["u1"][1].tokens == ("hello", "word")


def test_nbest_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "nbest.txt"
    path.write_text("u1 -12.5 -7.25 ok line\nu2 notanumber -2 hi\n")
    with pytest.raises(ValueError, match="line 2"):
        cl.read_nbest_file(path)
    path.write_text("u1 -1.0 -2.0\n")
    with pytest.raises(ValueError, match="line 1"):
        cl.read_nbest_file(path)


@pytest.mark.parametrize("scores", ["nan -3", "-3 inf", "-inf -3"])
def test_nbest_file_rejects_nonfinite_scores(tmp_path, scores):
    path = tmp_path / "nbest.txt"
    path.write_text(f"u1 -1.0 -2.0 a b\nu1 {scores} a b\n")
    with pytest.raises(ValueError, match=r"nbest\.txt: line 2: scores must be finite"):
        cl.read_nbest_file(path)


# the text decoder reads ahead in blocks of 8 KB: a bad byte within the
# first block fails to decode before line 1 is read, one past it after
@pytest.mark.parametrize("gap", [0, 10_000], ids=["short", "long"])
@pytest.mark.parametrize("reader, first, message", [
    (cl.read_nbest_file, b"u0 x y a\n", "scores are not numbers"),
    (cl.read_reference_file, b"u0\n", "expected 'utt_id words...'"),
], ids=["nbest", "references"])
def test_the_first_failing_line_is_named_wherever_the_bad_byte_lies(tmp_path, gap, reader,
                                                                   first, message):
    path = tmp_path / "in.txt"
    bad = b"u1 -1 -2 " + b"w " * gap + b"\xff\n"
    path.write_bytes(first + bad)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: {message}')}$"):
        reader(path)
    # line ends of every kind count as text mode counts them
    path.write_bytes(b"u2 -1 -2 a\r\n\ru3 -1 -2 a\r" + first + bad)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 4: {message}')}$"):
        reader(path)
    path.write_bytes(b"u2 -1 -2 a\r" + bad)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 2: invalid UTF-8')}$"):
        reader(path)


def test_reference_file_parsing_and_errors(tmp_path):
    path = tmp_path / "refs.txt"
    path.write_text("u1 hello world\nu2 bye\n")
    refs = cl.read_reference_file(path)
    assert refs == {"u1": ("hello", "world"), "u2": ("bye",)}
    path.write_text("u1 hello\nu1 again\n")
    with pytest.raises(ValueError, match="line 2"):
        cl.read_reference_file(path)
