"""The four workloads: command line, work counts and output checks.

Every workload runs one ``classlm`` subcommand on the files written by
`inputs.py`.  A round is one ``cli.main`` call; a run repeats whole
rounds.  Checks compare the outputs with `reference.py` or with properties
the method must have, and return a list of problems (empty when correct).

Why these workloads:

* train    forward and backward through unrolled graphs, the optimizer
           and batch preparation; the only one that runs backward and
           writes a model.
* rescore  forward-only batched scoring, a real model load, edit distances
           and the grid search; the only one whose inputs share prefixes.
* classes  the exchange algorithm alone; no graph work at all.
* sample   the graph engine on tiny arrays at batch 1, where per-node
           interpretive cost dominates instead of BLAS.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np

import reference

# Relative tolerances of the checks (float64 sums in a different order).
LOGPROB_RTOL = 1e-9
OBJECTIVE_RTOL = 1e-6


def read_sentences(path):
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f if line.split()]


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    """Common shape: the files of one generated input directory."""

    name = ""
    item = ""           # what items_per_s counts
    rate_name = ""      # the workload's name for items_per_s
    setup_until = ()    # (module, attribute) whose first call ends set-up

    def __init__(self, work, meta):
        self.work = work
        self.meta = meta
        self.cfg = meta["config"]
        self.seed = meta["seed"]

    def path(self, name):
        return os.path.join(self.work, name)

    def output_digest(self, rnd):
        return digest(self.path(self.output)) if os.path.exists(self.path(self.output)) else ""

    def extra(self, rnd):
        """Further figures for the printed table: name -> (unit, value)."""
        return {}


class Train(Workload):
    name = "train"
    item = "tokens"
    rate_name = "train_tokens_per_s"
    setup_until = ("cli", "train")
    output = "model.clm"

    def argv(self):
        m = self.meta
        return ["train", "--train", self.path("train.txt"), "--dev", self.path("dev.txt"),
                "--arch", self.path("arch.net"), "--classes", self.path("classes.tsv"),
                "--optimizer", "sgd", "--learning-rate", "1.0",
                "--batch-size", str(self.cfg["batch"]), "--max-epochs", str(self.cfg["epochs"]),
                "--validation-interval", str(m["validation_interval"]),
                "--patience", "1000", "--seed", str(self.seed % 1000 + 1),
                "--output-model", self.path(self.output)]

    def items(self, rnd):
        """Unpadded predicted positions trained (every word plus `</s>`)."""
        return (self.meta["train_tokens"] + self.meta["train_sentences"]) * self.cfg["epochs"]

    def ops(self, rnd):
        attempted = self.meta["batches_per_epoch"] * self.cfg["epochs"]
        if rnd.rc != 0 or not os.path.exists(self.path(self.output)):
            return attempted, attempted
        header, _ = reference.read_model(self.path(self.output))
        return attempted, attempted - int(header["training"]["history"][-1][0])

    def extra(self, rnd):
        header, _ = reference.read_model(self.path(self.output))
        return {"dev_ppl": ("ppl", header["training"]["best_dev_perplexity"])}

    def check(self, rnd):
        problems = []
        model = reference.ReferenceModel(self.path(self.output))
        training = model.header["training"]
        best = training["best_dev_perplexity"]
        dev = read_sentences(self.path("dev.txt"))
        ppl = model.perplexity(dev)
        if not abs(ppl - best) <= LOGPROB_RTOL * best:
            problems.append(f"reference dev perplexity {ppl!r} != header best {best!r}")
        history = [p for _, p, _ in training["history"]]
        if best != min(history):
            problems.append(f"best dev perplexity {best!r} is not the history minimum")
        uniform = model.uniform_class_perplexity(dev)
        if not best < uniform:
            problems.append(f"best dev perplexity {best!r} not below uniform-class {uniform!r}")
        return problems


class Rescore(Workload):
    name = "rescore"
    item = "hypotheses"
    rate_name = "rescore_hyps_per_s"
    setup_until = ("cli", "optimize_interpolation")
    output = "reranked.txt"
    lambda_grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    snn_grid = (0.5, 1.0, 2.0)
    s_bo = 1.0

    def argv(self):
        return ["rescore", "--model", self.path("model.clm"), "--nbest", self.path("nbest.txt"),
                "--tune", "--refs", self.path("refs.txt"), "--s-bo", repr(self.s_bo),
                "--grid-lambda", ",".join(map(repr, self.lambda_grid)),
                "--grid-snn", ",".join(map(repr, self.snn_grid)),
                "--output", self.path(self.output)]

    def items(self, rnd):
        return self.meta["hypotheses"]

    def _read_output(self):
        with open(self.path(self.output), encoding="utf-8") as f:
            lines = f.read().splitlines()
        params = dict(re.findall(r"(\w+)=(\S+)", lines[0]))
        rows = {}
        for line in lines[1:]:
            utt, total, text = line.split("\t")
            rows.setdefault(utt, []).append((float(total), tuple(text.split())))
        return {k: float(v) for k, v in params.items()}, rows

    def ops(self, rnd):
        attempted = self.meta["utterances"]
        if rnd.rc != 0 or not os.path.exists(self.path(self.output)):
            return attempted, attempted
        _, rows = self._read_output()
        return attempted, attempted - len(rows)

    def _read_input(self):
        nbest = {}
        with open(self.path("nbest.txt"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                nbest.setdefault(parts[0], []).append(
                    (float(parts[1]), float(parts[2]), tuple(parts[3:])))
        refs = {parts[0]: parts[1:] for parts in read_sentences(self.path("refs.txt"))}
        return nbest, refs

    def check(self, rnd):
        problems = []
        nbest, refs = self._read_input()
        params, rows = self._read_output()
        model = reference.ReferenceModel(self.path("model.clm"))
        flat = [h for hyps in nbest.values() for h in hyps]
        nn = iter(model.sentence_logprobs([tokens for _, _, tokens in flat]))
        nn = {utt: [next(nn) for _ in hyps] for utt, hyps in nbest.items()}

        def totals(utt, lam, s_nn):
            return [ac + (1.0 - lam) * self.s_bo * bo + lam * s_nn * p
                    for (ac, bo, _), p in zip(nbest[utt], nn[utt])]

        lam, s_nn = params["lambda"], params["s_nn"]
        for utt, hyps in nbest.items():
            out = rows.get(utt, [])
            index = {tokens: i for i, (_, _, tokens) in enumerate(hyps)}
            order = [index.get(tokens) for _, tokens in out]
            if sorted(o for o in order if o is not None) != list(range(len(hyps))):
                problems.append(f"{utt}: output is not a permutation of the input")
                continue
            expected = totals(utt, lam, s_nn)
            for (printed, _), i in zip(out, order):
                if not abs(printed - expected[i]) <= LOGPROB_RTOL * abs(expected[i]):
                    problems.append(f"{utt}: total {printed!r} != reference {expected[i]!r}")
            for (t1, _), (t2, _), i1, i2 in zip(out, out[1:], order, order[1:]):
                if t2 > t1 or (t2 == t1 and i2 < i1):
                    problems.append(f"{utt}: output not sorted by total with stable ties")
        errors = {utt: [reference.edit_distance(tokens, refs[utt]) for _, _, tokens in hyps]
                  for utt, hyps in nbest.items()}
        best = None
        for grid_lam in self.lambda_grid:
            for grid_snn in self.snn_grid:
                total_errors = 0
                for utt in nbest:
                    t = totals(utt, grid_lam, grid_snn)
                    total_errors += errors[utt][t.index(max(t))]
                if best is None or total_errors < best[0]:
                    best = (total_errors, grid_lam, grid_snn)
        if (best[1], best[2]) != (lam, s_nn):
            problems.append(f"tuned (lambda, s_nn) = ({lam}, {s_nn}); the reference grid"
                            f" search gives ({best[1]}, {best[2]}) with {best[0]} errors")
        return problems


class Classes(Workload):
    name = "classes"
    item = "word visits"
    rate_name = "classes_words_per_s"
    setup_until = ("classing", "exchange_pass")
    output = "classes.tsv"
    trace_re = re.compile(r"log-likelihood:? (-?[0-9.]+(?:e[-+]?\d+)?)$")

    def argv(self):
        return ["classes", "--corpus", self.path("corpus.txt"),
                "--num-classes", str(self.cfg["classes"]),
                "--max-passes", str(self.cfg["passes"]), "--seed", str(self.seed % 1000 + 1),
                "--output", self.path(self.output)]

    def trace(self, rnd):
        found = (self.trace_re.search(m) for m in rnd.logs)
        return [float(m.group(1)) for m in found if m]

    def items(self, rnd):
        """Word visits: corpus word types times passes made."""
        return self.meta["word_types"] * (len(self.trace(rnd)) - 1)

    def ops(self, rnd):
        if rnd.rc != 0:
            return self.cfg["passes"], self.cfg["passes"]
        return len(self.trace(rnd)) - 1, 0

    def check(self, rnd):
        problems = []
        trace = self.trace(rnd)
        if any(b < a for a, b in zip(trace, trace[1:])):
            problems.append(f"exchange trace decreases: {trace}")
        corpus = read_sentences(self.path("corpus.txt"))
        counts = {}
        for tokens in corpus:
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
        class_of, membership = {}, {}
        with open(self.path(self.output), encoding="utf-8") as f:
            for line in f:
                word, cls, prob = line.rstrip("\n").split("\t")
                if word in class_of:
                    problems.append(f"word {word!r} listed twice")
                class_of[word], membership[word] = int(cls), float(prob)
        reserved = ("<s>", "</s>", "<unk>")
        if set(class_of) != set(counts) | set(reserved):
            problems.append("class file words differ from the corpus vocabulary")
            return problems
        k = self.cfg["classes"]
        members = {}
        for word, cls in class_of.items():
            members.setdefault(cls, []).append(word)
        if sorted(members) != list(range(k + len(reserved))):
            problems.append(f"class ids are not 0..{k + len(reserved) - 1}, all non-empty")
        if sorted(tuple(members.get(k + i, ())) for i in range(3)) != sorted(
                (r,) for r in reserved):
            problems.append("reserved tokens are not in their own singleton classes")
        for cls, words in members.items():
            total = sum(counts.get(w, 0) for w in words)
            for w in words:
                expected = counts.get(w, 0) / total if total else 1.0 / len(words)
                if abs(membership[w] - expected) > 1e-12 * expected:
                    problems.append(f"membership of {w!r} is {membership[w]!r}, not {expected!r}")
                    break
        objective = reference.class_bigram_objective(
            [tok for tokens in corpus for tok in tokens], class_of)
        if not abs(objective - trace[-1]) <= OBJECTIVE_RTOL * abs(objective):
            problems.append(f"recomputed objective {objective!r} != last trace {trace[-1]!r}")
        if not objective > trace[0]:
            problems.append(f"objective {objective!r} does not exceed the initial {trace[0]!r}")
        return problems


class Sample(Workload):
    name = "sample"
    item = "tokens"
    rate_name = "sample_tokens_per_s"
    setup_until = ("cli", "sample_text")

    def argv(self):
        return ["sample", "--model", self.path("model.clm"), "--count", str(self.cfg["count"]),
                "--max-tokens", str(self.cfg["max_tokens"]), "--seed",
                str(self.seed % 1000 + 1)]

    def sentences(self, rnd):
        return [line.split() for line in rnd.stdout.split("\n")[:-1]]

    def output_digest(self, rnd):
        return hashlib.sha256(rnd.stdout.encode("utf-8")).hexdigest()

    def items(self, rnd):
        """Positions generated: every token, plus `</s>` where it was drawn."""
        limit = self.cfg["max_tokens"]
        return sum(len(s) + (len(s) < limit) for s in self.sentences(rnd))

    def ops(self, rnd):
        attempted = self.cfg["count"]
        return attempted, max(0, attempted - len(self.sentences(rnd)))

    def check(self, rnd):
        problems = []
        sentences = self.sentences(rnd)
        n = self.cfg["count"]
        if len(sentences) != n:
            problems.append(f"{len(sentences)} sentences for --count {n}")
        model = reference.ReferenceModel(self.path("model.clm"))
        limit = self.cfg["max_tokens"]
        for s in sentences:
            if len(s) > limit:
                problems.append(f"sentence of {len(s)} tokens exceeds --max-tokens {limit}")
            bad = [t for t in s if t not in model.ids or t == "<s>"]
            if bad:
                problems.append(f"tokens outside the vocabulary or <s>: {bad[:3]}")
                return problems
        framed = [model.frame(s) for s in sentences]
        for s, logp in zip(sentences, model.word_logprobs(framed)):
            if not np.isfinite(logp[:len(s)]).all():
                problems.append(f"token with non-finite reference log-probability in {s[:5]}")
        # First position: frequencies of the drawn class against P(c | <s>).
        start = np.array([[model.ids["<s>"]]])
        p = np.exp(model.class_logprobs(start)[0, 0])
        first = [model.class_of[model.ids[s[0] if s else "</s>"]] for s in sentences]
        observed = np.bincount(first, minlength=p.size)
        problems += frequency_problems(observed, p, n)
        return problems


def frequency_problems(observed, p, n, min_expected=10.0, sigmas=5.0):
    """Compare counts with probabilities over groups of classes.

    Classes are pooled in order of decreasing probability until each group
    expects at least `min_expected` draws; each group's count must lie
    within `sigmas` binomial standard deviations (plus one) of n·p.
    """
    problems = []
    order = np.argsort(-p, kind="stable")
    group_p = group_obs = 0.0
    for rank, c in enumerate(order):
        group_p += p[c]
        group_obs += observed[c]
        if n * group_p >= min_expected or rank == len(order) - 1:
            sd = np.sqrt(n * group_p * max(0.0, 1.0 - group_p))
            if abs(group_obs - n * group_p) > sigmas * sd + 1.0:
                problems.append(f"first-position frequency {group_obs:.0f} vs expected"
                                f" {n * group_p:.1f} (sd {sd:.1f})")
            group_p = group_obs = 0.0
    return problems


WORKLOADS = {w.name: w for w in (Train, Rescore, Classes, Sample)}
