"""Span recorder and call-site instrumentation for the traced run.

`Instrumentation` replaces every public module-level function of the
package, and a short list of methods, with a wrapper that records a span
(name, start, end, parent) in a `SpanRecorder`.  A function is replaced at
every name it is bound to inside the package, so a call is caught wherever
the caller looks it up: ``classlm.training.forward_eval`` and
``classlm.network.forward_eval`` are patched as well as
``classlm.graph.forward_eval``.  Generator functions get one span per
resumption, so a span never covers time spent in the consumer.

Probes attached to a span name read the call's arguments and result after
the span has closed and add to named counters; they never run inside a
span.  Spans and counters stay in memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

# Methods traced besides the module-level functions: the units of work
# that the per-layer metrics are defined on.
METHODS = (
    ("network", "Network", "step"),
    ("network", "Network", "step_graph"),
    ("network", "Network", "training_graph"),
    ("optimizers", "Optimizer", "step"),
    ("classing", "BigramStats", "__init__"),
    ("classing", "BigramStats", "move_deltas"),
    ("classing", "BigramStats", "apply_move"),
)


class SpanRecorder:
    """Append-only list of ``[name, start, end, parent_index]`` spans."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def rollup(self):
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because calls nest.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        stats = {}
        for (name, start, end, _parent), child in zip(spans, children):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return stats

    def write_jsonl(self, path, rounds):
        """Write the spans of every traced round, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for index, spans in enumerate(rounds):
                for name, start, end, parent in spans:
                    f.write(json.dumps({"round": index, "name": name, "start": start,
                                        "end": end, "parent": parent}) + "\n")


def _package_modules(package):
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Instrumentation:
    """Installs span-recording wrappers into a package and removes them."""

    def __init__(self, package, recorder, probes=None):
        self.package = package
        self.recorder = recorder
        self.probes = probes or {}
        self._restore = []

    def targets(self):
        """(span name, owner, attribute, function) for everything traced."""
        found = []
        for module in _package_modules(self.package)[1:]:
            for attr, fn in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    found.append((f"{_short(module)}.{attr}", module, attr, fn))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{self.package.__name__}.{mod_name}"), cls_name)
            found.append((f"{mod_name}.{cls_name}.{meth}", cls, meth, vars(cls)[meth]))
        return found

    def install(self):
        modules = _package_modules(self.package)
        for name, owner, attr, fn in self.targets():
            wrapper = self._wrap(name, fn)
            sites = [(owner, attr)]
            if not inspect.isclass(owner):
                sites = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            for site, site_attr in sites:
                self._restore.append((site, site_attr, fn))
                setattr(site, site_attr, wrapper)

    def remove(self):
        for site, attr, fn in reversed(self._restore):
            setattr(site, attr, fn)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        recorder = self.recorder
        probe = self.probes.get(name)

        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = recorder.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(span)
                    yield item
            return generator_wrapper

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if probe is not None:
                probe(recorder.counters, span, args, kwargs, result)
            return result
        return wrapper


class FirstCall:
    """Records when a function, looked up at one module attribute, is first
    called; the untraced run uses it to split set-up from work."""

    def __init__(self, module, attr):
        self.module = module
        self.attr = attr
        self.at = None

    def __enter__(self):
        original = getattr(self.module, self.attr)

        def wrapper(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
            return original(*args, **kwargs)

        self._original = original
        setattr(self.module, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._original)
