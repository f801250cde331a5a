"""In-memory span tracer that wraps a package's functions from outside.

`Tracer.instrument` wraps every public module-level function of each layer
module and swaps the wrapper in for the original wherever the same object is
bound in the package's namespaces (a function imported into another module
is the same object there), so calls between modules are traced too.  Each
span holds a name, start, end and parent; spans live in flat arrays until
`dump` writes them out.  Parents are tracked per thread, so spans opened in
a worker thread are roots of that thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import types
from array import array
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class SpanStats:
    calls: int = 0
    total: float = 0.0  # seconds, summed over calls
    self_time: float = 0.0  # seconds not covered by child spans


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(self._clock())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack().pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def instrument(self, layers: dict[str, types.ModuleType], namespaces: list[types.ModuleType]) -> None:
        """Wrap each layer's public functions in every namespace that binds them."""
        originals: dict[int, tuple[object, object]] = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-exported from another layer; traced under its own name
                originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: calls, total time and self time."""
        return span_stats(self.names, self.name_id, self.start, self.end, self.parent)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "names": self.names}, fh)
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}]\n")


def span_stats(names, name_id, start, end, parent) -> dict[str, SpanStats]:
    """Self time of a span is its duration minus the durations of its children.

    Children of one span run in its thread and nest inside it, so their
    durations never overlap and their sum is the time they cover.
    """
    n = len(start)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    for i in range(n):
        name = names[name_id[i]]
        dur = end[i] - start[i]
        calls[name] += 1
        total[name] += dur
        self_t[name] += dur - child_time[i]
    return {name: SpanStats(calls[name], total[name], self_t[name]) for name in calls}


def layer_self_time(stats: dict[str, SpanStats], layer: str) -> float:
    """Summed self time of every span named `<layer>.*`."""
    prefix = layer + "."
    return sum(s.self_time for name, s in stats.items() if name.startswith(prefix))
