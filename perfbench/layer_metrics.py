"""Per-layer metrics of the traced run, computed from spans and probes.

Each metric names the `src/classlm` module it measures.  Times are
inclusive span durations unless the name ends in ``self_s``, which is the
module's self time (its spans minus their traced children).  Counts that
do not apply to a workload read 0.
"""

from __future__ import annotations

import os

# (name, unit, better); BENCHMARK.json lists the same metrics.
METRICS = [
    ("graph.forward_calls", "count", "lower"),
    ("graph.forward_nodes", "count", "lower"),
    ("graph.forward_s", "s", "lower"),
    ("graph.us_per_node", "us", "lower"),
    ("graph.backward_calls", "count", "lower"),
    ("graph.backward_s", "s", "lower"),
    ("graph.matmul_flops", "flop", "lower"),
    ("network.graphs_built", "count", "lower"),
    ("network.graph_nodes", "count", "lower"),
    ("network.graph_build_s", "s", "lower"),
    ("network.step_calls", "count", "lower"),
    ("network.step_rows_mean", "rows", "higher"),
    ("network.step_s", "s", "lower"),
    ("optimizers.step_s", "s", "lower"),
    ("optimizers.clip_s", "s", "lower"),
    ("training.batches", "count", "higher"),
    ("training.useful_position_ratio", "ratio", "higher"),
    ("training.validations", "count", "higher"),
    ("training.validate_s", "s", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.best_dev_ppl", "ppl", "lower"),
    ("scoring.sentences", "count", "lower"),
    ("scoring.tokens", "count", "lower"),
    ("scoring.s", "s", "lower"),
    ("scoring.self_s", "s", "lower"),
    ("rescoring.hypotheses", "count", "higher"),
    ("rescoring.scored_per_hypothesis", "ratio", "lower"),
    ("rescoring.shared_prefix_share", "ratio", "higher"),
    ("rescoring.edit_distance_calls", "count", "lower"),
    ("rescoring.edit_distance_s", "s", "lower"),
    ("rescoring.grid_points", "count", "higher"),
    ("rescoring.self_s", "s", "lower"),
    ("classing.stats_build_s", "s", "lower"),
    ("classing.passes", "count", "higher"),
    ("classing.move_deltas_calls", "count", "lower"),
    ("classing.move_deltas_s", "s", "lower"),
    ("classing.moves_applied", "count", "higher"),
    ("classing.moves_per_visit", "ratio", "higher"),
    ("classing.loglik_s", "s", "lower"),
    ("classing.class_file_s", "s", "lower"),
    ("model_io.load_s", "s", "lower"),
    ("model_io.file_bytes", "bytes", "lower"),
    ("model_io.save_s", "s", "lower"),
    ("vocabulary.read_s", "s", "lower"),
    ("sampling.tokens", "count", "higher"),
    ("sampling.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

SOURCE_MODULES = ("init", "main", "architecture", "classing", "cli", "graph", "layers",
                  "model_io", "network", "optimizers", "rescoring", "sampling", "scoring",
                  "training", "vocabulary")
METRICS += [(f"{m}.lines", "lines", "lower") for m in SOURCE_MODULES] + [
    ("total.lines", "lines", "lower")]


def source_lines(src_dir):
    """Non-blank source lines of every module of the package."""
    counts = {}
    for module in SOURCE_MODULES:
        filename = f"__{module}__.py" if module in ("init", "main") else f"{module}.py"
        path = os.path.join(src_dir, filename)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                counts[f"{module}.lines"] = sum(1 for line in f if line.strip())
        else:
            counts[f"{module}.lines"] = 0
    counts["total.lines"] = sum(counts.values())
    return counts


class Probes:
    """Counters read from call arguments and results at span boundaries."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._matmuls = {}
        self._built = {}

    def table(self):
        return {
            "graph.forward_eval": self.forward_eval,
            "graph.backward": self.backward,
            "network.Network.training_graph": self.graph_returned,
            "network.Network.step_graph": self.graph_returned,
            "network.Network.step": self.step,
            "scoring.score_sentences": self.score_sentences,
            "rescoring.rescore_nbest": self.rescore_nbest,
            "rescoring.optimize_interpolation": self.optimize_interpolation,
            "model_io.load_model": self.load_model,
            "sampling.sample_text": self.sample_text,
            "training.train": self.train,
        }

    def _matmul_flops(self, graph, ws):
        """2·m·k·n per matmul node, from the operand shapes of this call."""
        entry = self._matmuls.get(id(graph))
        if entry is None or entry[0] is not graph:
            pairs = [(n.inputs[0].idx, n.inputs[1].idx) for n in graph.nodes if n.op == "matmul"]
            entry = self._matmuls[id(graph)] = (graph, pairs)
        vals = ws.values
        return sum(2 * vals[a].shape[0] * vals[a].shape[1] * vals[b].shape[1]
                   for a, b in entry[1])

    def forward_eval(self, c, span, args, kwargs, ws):
        graph, bindings = args[0], args[1]
        c["graph.forward_nodes"] += len(graph.nodes)
        c["graph.matmul_flops"] += self._matmul_flops(graph, ws)
        if "mask/0" in bindings:
            for key, mask in bindings.items():
                if key.startswith("mask/"):
                    c["training.useful_positions"] += float(mask.sum())
                    c["training.padded_positions"] += mask.size

    def backward(self, c, span, args, kwargs, grads):
        # each matmul's backward is two matmuls of the forward's size
        c["graph.matmul_flops"] += 2 * self._matmul_flops(args[0], args[1])

    def graph_returned(self, c, span, args, kwargs, graph):
        if self._built.get(id(graph)) is not graph:
            self._built[id(graph)] = graph
            c["network.graphs_built"] += 1
            c["network.graph_nodes"] += len(graph.nodes)
            c["network.graph_build_s"] += span[2] - span[1]

    def step(self, c, span, args, kwargs, result):
        c["network.step_rows"] += len(args[2])

    def score_sentences(self, c, span, args, kwargs, results):
        sentences = args[1]
        c["scoring.sentences"] += len(sentences)
        c["scoring.tokens"] += sum(len(s) + 1 for s in sentences)

    def rescore_nbest(self, c, span, args, kwargs, result):
        c["rescoring.hypotheses"] += sum(len(h) for h in args[0].values())

    def optimize_interpolation(self, c, span, args, kwargs, result):
        c["rescoring.grid_points"] += (len({float(x) for x in args[4]})
                                       * len({float(x) for x in args[5]}))

    def load_model(self, c, span, args, kwargs, result):
        c["model_io.file_bytes"] += os.path.getsize(args[0])

    def sample_text(self, c, span, args, kwargs, sentences):
        max_tokens = args[2]
        c["sampling.tokens"] += sum(len(s) + (len(s) < max_tokens) for s in sentences)

    def train(self, c, span, args, kwargs, state):
        c["training.best_dev_ppl"] = state.best_perplexity


def compute(stats, counters, shared_prefix_share):
    """Every per-layer metric except ``trace.*`` and ``*.lines``."""

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(module):
        return sum(v[2] for k, v in stats.items() if k.split(".", 1)[0] == module)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters
    m = {
        "graph.forward_calls": calls("graph.forward_eval"),
        "graph.forward_nodes": c["graph.forward_nodes"],
        "graph.forward_s": total("graph.forward_eval"),
        "graph.us_per_node": 1e6 * ratio(total("graph.forward_eval"), c["graph.forward_nodes"]),
        "graph.backward_calls": calls("graph.backward"),
        "graph.backward_s": total("graph.backward"),
        "graph.matmul_flops": c["graph.matmul_flops"],
        "network.graphs_built": c["network.graphs_built"],
        "network.graph_nodes": c["network.graph_nodes"],
        "network.graph_build_s": c["network.graph_build_s"],
        "network.step_calls": calls("network.Network.step"),
        "network.step_rows_mean": ratio(c["network.step_rows"], calls("network.Network.step")),
        "network.step_s": total("network.Network.step"),
        "optimizers.step_s": total("optimizers.Optimizer.step"),
        "optimizers.clip_s": total("optimizers.clip_gradients"),
        "training.batches": calls("optimizers.Optimizer.step"),
        "training.useful_position_ratio": ratio(c["training.useful_positions"],
                                                c["training.padded_positions"]),
        "training.validations": calls("scoring.corpus_perplexity"),
        "training.validate_s": total("scoring.corpus_perplexity"),
        "training.self_s": self_time("training"),
        "training.best_dev_ppl": c["training.best_dev_ppl"],
        "scoring.sentences": c["scoring.sentences"],
        "scoring.tokens": c["scoring.tokens"],
        "scoring.s": total("scoring.score_sentences"),
        "scoring.self_s": self_time("scoring"),
        "rescoring.hypotheses": c["rescoring.hypotheses"],
        "rescoring.scored_per_hypothesis": ratio(c["scoring.sentences"],
                                                 c["rescoring.hypotheses"]),
        "rescoring.shared_prefix_share": shared_prefix_share,
        "rescoring.edit_distance_calls": calls("rescoring.edit_distance"),
        "rescoring.edit_distance_s": total("rescoring.edit_distance"),
        "rescoring.grid_points": c["rescoring.grid_points"],
        "rescoring.self_s": self_time("rescoring"),
        "classing.stats_build_s": total("classing.BigramStats.__init__"),
        "classing.passes": calls("classing.exchange_pass"),
        "classing.move_deltas_calls": calls("classing.BigramStats.move_deltas"),
        "classing.move_deltas_s": total("classing.BigramStats.move_deltas"),
        "classing.moves_applied": calls("classing.BigramStats.apply_move"),
        "classing.moves_per_visit": ratio(calls("classing.BigramStats.apply_move"),
                                          calls("classing.BigramStats.move_deltas")),
        "classing.loglik_s": total("classing.class_bigram_loglik"),
        "classing.class_file_s": (total("classing.save_class_file")
                                  + total("classing.load_class_file")),
        "model_io.load_s": total("model_io.load_model"),
        "model_io.file_bytes": c["model_io.file_bytes"],
        "model_io.save_s": total("model_io.save_model"),
        "vocabulary.read_s": total("vocabulary.read_corpus"),
        "sampling.tokens": c["sampling.tokens"],
        "sampling.self_s": self_time("sampling"),
        "cli.self_s": self_time("cli"),
    }
    return m
