"""Span recorder that wraps errstat's public functions from outside the program.

Modules bind kernels by name (``from .distributions import normal_cdf``), so
wrapping one module attribute is not enough: ``install`` replaces every
binding of a public function in every errstat module namespace, including
calls a module makes to its own functions, and ``uninstall`` restores them.
It is used only inside a traced run. Spans stay in memory as
(name, layer, start_ns, end_ns, parent, op) and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter

LAYERS = ("cli", "distributions", "error_tradeoff", "screening", "decision_cost",
          "pvalue_dist", "severity", "timeseries", "montecarlo")


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._local = threading.local()
        self._patched: list = []

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"errstat.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for module in [sys.modules["errstat"], *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, name, wrappers[id(obj)][1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    # --- summaries -------------------------------------------------------

    def completed(self):
        return [s for s in self.spans if s is not None]

    def self_ns(self) -> list:
        """Self time of each span: its duration minus the time its children cover."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s is not None and s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        return [(s[3] - s[2]) - child[i] if s is not None else 0 for i, s in enumerate(spans)]

    def layer_self_ns(self) -> Counter:
        totals = Counter()
        for s, own in zip(self.spans, self.self_ns()):
            if s is not None:
                totals[s[1]] += own
        return totals

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is not None:
                    name, layer, start, end, parent, op = s
                    fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "op": op}) + "\n")
