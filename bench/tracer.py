"""In-memory span tracer that wraps a module's public functions.

Spans are (name, start, end, parent) rows kept in a list and written out
once, when the benchmark ends. Nothing in the package is edited: the
wrappers replace module attributes, and every call the package makes
through a module attribute or a module-level name goes through them.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds.

        A span's self time is its duration minus the part of it that its
        child spans cover. Totals count only the outermost span of a name,
        so a function that re-enters itself is not counted twice.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - covered(children[index], start, end)
            if not self._inside_same_name(index):
                row["s"] += end - start
        return dict(out)

    def _inside_same_name(self, index: int) -> bool:
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    ]


class Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, name: str, make) -> None:
        """Set `module.name` to `make(original)`."""
        fn = getattr(module, name)
        self._saved.append((module, name, fn))
        setattr(module, name, make(fn))

    def restore(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()


def instrument(tracer: Tracer, modules, patches: Patches) -> None:
    """Wrap every public function of `modules` in a span."""
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in public_functions(module):
            patches.replace(module, name,
                            lambda fn, span=f"{layer}.{name}": tracer.wrap(span, fn))
