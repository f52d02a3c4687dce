"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator derived from the workload seed, so
the same seed always yields byte-identical files.  The program under test
only ever sees the files written here.

Run as a script to write one workload's inputs into a directory:

    python3 perfbench/inputs.py WORKLOAD SEED SIZE OUTDIR

It runs in its own process, so the memory it uses does not count towards
the peak resident size measured for the workload.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

RESERVED = ("<s>", "</s>", "<unk>")

# Input make-up per workload and size.  "tiny" keeps every workload and
# every check but shrinks it to run in well under a second.
SIZES = {
    "full": {
        "train": dict(types=3000, latent=300, sentences=320, dev=64, min_len=4, max_len=40,
                      proj=64, hidden=128, batch=32, epochs=1, validations=3),
        "rescore": dict(types=10000, latent=400, utterances=120, hyps=20, min_len=5, max_len=16,
                        proj=300, hidden=96, top=48, edit_from=0.5, end_every=60),
        "classes": dict(types=2000, latent=150, tokens=100000, min_len=4, max_len=40,
                        classes=1000, passes=2),
        "sample": dict(count=120, max_tokens=12),
    },
    "tiny": {
        "train": dict(types=120, latent=12, sentences=48, dev=12, min_len=4, max_len=12,
                      proj=8, hidden=12, batch=8, epochs=1, validations=3),
        "rescore": dict(types=300, latent=20, utterances=6, hyps=6, min_len=4, max_len=9,
                        proj=8, hidden=12, top=8, edit_from=0.5, end_every=8),
        "classes": dict(types=150, latent=10, tokens=2000, min_len=4, max_len=12,
                        classes=20, passes=2),
        "sample": dict(count=40, max_tokens=8),
    },
}

# The sample workload draws from the rescore workload's model.
MODEL_SOURCE = {"sample": "rescore"}


def zipf_weights(n, exponent=1.0):
    """Unnormalised Zipf weights for ranks 1..n."""
    return 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent


class ZipfMarkov:
    """A latent-class Markov source with Zipfian word frequencies.

    Each word type belongs to one latent class; words are emitted in
    proportion to their Zipf weight within the class, and classes follow a
    sparse random transition matrix mixed with the class prior.
    """

    def __init__(self, rng, n_types, n_latent, fanout=6, mix=0.85):
        self.words = [f"w{i}" for i in range(n_types)]
        self.weight = zipf_weights(n_types)
        self.latent_of = rng.permutation(n_types) % n_latent
        mass = np.bincount(self.latent_of, weights=self.weight, minlength=n_latent)
        prior = mass / mass.sum()
        trans = np.zeros((n_latent, n_latent))
        for c in range(n_latent):
            succ = rng.choice(n_latent, size=min(fanout, n_latent), replace=False)
            trans[c, succ] = rng.dirichlet(np.ones(succ.size))
        trans = mix * trans + (1.0 - mix) * prior
        self.prior_cum = np.cumsum(prior)
        self.trans_cum = np.cumsum(trans, axis=1)
        self.members = [np.nonzero(self.latent_of == c)[0] for c in range(n_latent)]
        self.member_cum = [np.cumsum(self.weight[m]) / self.weight[m].sum() for m in self.members]

    def sentences(self, rng, lengths):
        """One sentence per entry of `lengths`, all chains advanced together."""
        lengths = np.asarray(lengths)
        n, t_max = lengths.size, int(lengths.max())
        states = np.empty((n, t_max), dtype=np.int64)
        states[:, 0] = np.searchsorted(self.prior_cum, rng.random(n) * self.prior_cum[-1])
        for t in range(1, t_max):
            cum = self.trans_cum[states[:, t - 1]]
            states[:, t] = (cum < rng.random(n)[:, None] * cum[:, -1:]).sum(axis=1)
        words = np.empty_like(states)
        for c, (members, cum) in enumerate(zip(self.members, self.member_cum)):
            at = states == c
            picks = np.searchsorted(cum, rng.random(int(at.sum())) * cum[-1])
            words[at] = members[np.minimum(picks, members.size - 1)]
        return [[self.words[w] for w in words[i, :lengths[i]]] for i in range(n)]

    def corpus(self, rng, n_sentences, min_len, max_len):
        """Sentences whose lengths cycle through min_len..max_len in random
        order, so that the length mix, which sets the amount of padding and
        the number of distinct lengths, is the same for every seed."""
        lengths = min_len + np.arange(n_sentences) % (max_len - min_len + 1)
        return self.sentences(rng, rng.permutation(lengths))


def write_corpus(path, sentences):
    with open(path, "w", encoding="utf-8") as f:
        for tokens in sentences:
            f.write(" ".join(tokens) + "\n")


def class_file_rows(source, sentences):
    """Class file rows from the source's latent classes, over the corpus words.

    Class ids are the latent classes that occur, renumbered densely;
    memberships are count-based relative frequencies in the corpus.
    """
    counts = {}
    for tokens in sentences:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    index = {w: i for i, w in enumerate(source.words)}
    latent = sorted({int(source.latent_of[index[w]]) for w in counts})
    dense = {c: k for k, c in enumerate(latent)}
    totals = {}
    for w, n in counts.items():
        k = dense[int(source.latent_of[index[w]])]
        totals[k] = totals.get(k, 0) + n
    rows = sorted(
        (dense[int(source.latent_of[index[w]])], -n, index[w], w, n) for w, n in counts.items()
    )
    return [(w, k, n / totals[k]) for k, _, _, w, n in rows], len(latent)


TRAIN_ARCH = """\
input type=class name=class_input
layer type=projection name=projection_layer input=class_input size={proj}
layer type=dropout name=dropout_layer_1 input=projection_layer dropout_rate=0.2
layer type=lstm name=hidden_layer_1 input=dropout_layer_1 size={hidden}
layer type=tanh name=hidden_layer_2 input=hidden_layer_1 size={hidden}
layer type=softmax name=output_layer input=hidden_layer_2
"""

RESCORE_ARCH = """\
input type=word name=word_input
layer type=projection name=projection_layer input=word_input size={proj}
layer type=lstm name=hidden_layer_1 input=projection_layer size={hidden}
layer type=tanh name=hidden_layer_2 input=hidden_layer_1 size={top}
layer type=softmax name=output_layer input=hidden_layer_2
"""


def make_train(rng, cfg, out):
    source = ZipfMarkov(rng, cfg["types"], cfg["latent"])
    train = source.corpus(rng, cfg["sentences"], cfg["min_len"], cfg["max_len"])
    dev = source.corpus(rng, cfg["dev"], cfg["min_len"], cfg["max_len"])
    write_corpus(os.path.join(out, "train.txt"), train)
    write_corpus(os.path.join(out, "dev.txt"), dev)
    rows, n_classes = class_file_rows(source, train)
    with open(os.path.join(out, "classes.tsv"), "w", encoding="utf-8") as f:
        for w, k, p in rows:
            f.write(f"{w}\t{k}\t{p!r}\n")
    with open(os.path.join(out, "arch.net"), "w", encoding="utf-8") as f:
        f.write(TRAIN_ARCH.format(**cfg))
    batches = -(-len(train) // cfg["batch"])
    return {
        "train_sentences": len(train),
        "train_tokens": sum(len(s) for s in train),
        "dev_sentences": len(dev),
        "dev_tokens": sum(len(s) for s in dev),
        "word_types": len({w for s in train for w in s}),
        "classes": n_classes,
        "distinct_lengths": len({len(s) + 1 for s in train}),
        "batches_per_epoch": batches,
        "validation_interval": max(1, batches // cfg["validations"]),
    }


def make_model(rng, cfg, path):
    """Seeded, untrained model: word-id input, class-factored output.

    The classes are the source's latent classes and the memberships follow
    its Zipf weights.  The output bias is set to the log of the class prior,
    so the model starts from a unigram distribution: samples look like text,
    `</s>` comes once every `end_every` words on average, and `<s>` is never
    predicted.
    """
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    import classlm

    source = ZipfMarkov(rng, cfg["types"], cfg["latent"])
    counts = {w: int(round(1e6 * p)) + 1 for w, p in zip(source.words, source.weight)}
    vocab = classlm.Vocabulary(source.words, counts)
    k = cfg["latent"]
    class_of = np.concatenate([[k, k + 1, k + 2], source.latent_of])
    classes = classlm.ClassMap.from_counts(class_of, vocab.counts, k + len(RESERVED))
    desc = classlm.parse_description(RESCORE_ARCH.format(**cfg))
    network = classlm.instantiate_network(desc, vocab, classes, seed=int(rng.integers(1 << 31)))
    p_end = 1.0 / cfg["end_every"]
    mass = np.bincount(source.latent_of, weights=source.weight, minlength=k)
    prior = np.concatenate([mass / mass.sum() * (1.0 - p_end), [1e-30, p_end, 1e-4]])
    network.params["output_layer/b"] = np.log(prior)
    classlm.save_model(path, network)
    return source


def perturb(rng, ref, words, edit_from, n_edits):
    """Apply seeded substitutions, insertions and deletions after `edit_from`."""
    hyp = list(ref)
    for _ in range(n_edits):
        kind = int(rng.integers(3)) if len(hyp) > 2 else 1
        lo = int(np.ceil(len(hyp) * edit_from))
        pos = int(rng.integers(lo, len(hyp) + (kind == 1)))
        if kind == 0:
            hyp[pos] = words[int(rng.integers(len(words)))]
        elif kind == 1:
            hyp.insert(pos, words[int(rng.integers(len(words)))])
        else:
            del hyp[pos]
    return hyp


def shared_prefix_share(nbest):
    """Share of hypothesis positions inside a prefix already seen in the
    same utterance (longest common prefix with any earlier hypothesis)."""
    shared = total = 0
    for hyps in nbest.values():
        for i, hyp in enumerate(hyps):
            best = 0
            for prev in hyps[:i]:
                n = 0
                for a, b in zip(hyp, prev):
                    if a != b:
                        break
                    n += 1
                best = max(best, n)
            shared += best
            total += len(hyp)
    return shared / total


def make_rescore(rng, cfg, out):
    source = make_model(rng, cfg, os.path.join(out, "model.clm"))
    refs = source.corpus(rng, cfg["utterances"], cfg["min_len"], cfg["max_len"])
    words = source.words
    nbest = {}
    lines = []
    with open(os.path.join(out, "refs.txt"), "w", encoding="utf-8") as f:
        for u, ref in enumerate(refs):
            utt = f"utt{u:04d}"
            f.write(f"{utt} {' '.join(ref)}\n")
            seen = set()
            rows = []
            if rng.random() < 0.5:
                seen.add(tuple(ref))
                rows.append((ref, 0))
            while len(rows) < cfg["hyps"]:
                n_edits = int(rng.integers(1, 4))
                hyp = perturb(rng, ref, words, cfg["edit_from"], n_edits)
                if hyp and tuple(hyp) not in seen:
                    seen.add(tuple(hyp))
                    rows.append((hyp, n_edits))
            scored = []
            for hyp, n_edits in rows:
                acoustic = -3.0 * len(hyp) - 1.5 * n_edits * rng.random() + rng.normal(0.0, 2.0)
                backoff = -4.0 * len(hyp) - 2.0 * n_edits * rng.random() + rng.normal(0.0, 2.0)
                scored.append((acoustic + backoff, hyp, acoustic, backoff))
            scored.sort(key=lambda r: -r[0])
            nbest[utt] = [hyp for _, hyp, _, _ in scored]
            for _, hyp, acoustic, backoff in scored:
                lines.append(f"{utt} {acoustic!r} {backoff!r} {' '.join(hyp)}\n")
    with open(os.path.join(out, "nbest.txt"), "w", encoding="utf-8") as f:
        f.writelines(lines)
    return {
        "utterances": len(refs),
        "hypotheses": sum(len(h) for h in nbest.values()),
        "hypothesis_tokens": sum(len(h) for hs in nbest.values() for h in hs),
        "vocabulary": len(words) + len(RESERVED),
        "model_bytes": os.path.getsize(os.path.join(out, "model.clm")),
        "shared_prefix_share": shared_prefix_share(nbest),
    }


def make_classes(rng, cfg, out):
    source = ZipfMarkov(rng, cfg["types"], cfg["latent"])
    mean_len = 0.5 * (cfg["min_len"] + cfg["max_len"])
    corpus = source.corpus(rng, int(cfg["tokens"] / mean_len), cfg["min_len"], cfg["max_len"])
    write_corpus(os.path.join(out, "corpus.txt"), corpus)
    return {
        "sentences": len(corpus),
        "tokens": sum(len(s) for s in corpus),
        "word_types": len({w for s in corpus for w in s}),
    }


def make_sample(rng, cfg, out):
    model_cfg = SIZES[cfg["size"]]["rescore"]
    make_model(rng, model_cfg, os.path.join(out, "model.clm"))
    return {"vocabulary": model_cfg["types"] + len(RESERVED),
            "model_bytes": os.path.getsize(os.path.join(out, "model.clm"))}


MAKERS = {"train": make_train, "rescore": make_rescore, "classes": make_classes,
          "sample": make_sample}


def generate(workload, seed, size, out):
    """Write the inputs of one workload into `out` plus a `meta.json`."""
    cfg = dict(SIZES[size][workload], size=size)
    rng = np.random.default_rng([seed, sorted(MAKERS).index(MODEL_SOURCE.get(workload, workload))])
    os.makedirs(out, exist_ok=True)
    meta = MAKERS[workload](rng, cfg, out)
    meta = {"workload": workload, "seed": seed, "size": size, "config": cfg, **meta}
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    return meta


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit("usage: inputs.py WORKLOAD SEED SIZE OUTDIR")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
