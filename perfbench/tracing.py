"""Spans and call counts recorded from outside the package.

`Tracer.install` replaces each public function of the traced modules with a
wrapper in every `planemirage` module namespace that bound it, so a call
made through a name imported into another module (`cli` and `synthesis`
import `chain_reflection` by name) is counted as well. Spans are kept in
flat arrays while the pass runs and written out when it ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = ("cli", "wavecore", "synthesis", "gstc")


def _span_name(label: str, args) -> str:
    """Split the two calls whose cost depends on an argument."""
    if label == "synthesis.synthesize" and args:
        return f"{label}.{args[0].mode.value}"
    if label == "cli.emit" and len(args) > 2:
        return f"{label}.{args[2]}"
    return label


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.trace = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.trace_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, label: str, fn):
        name, trace, parent, start, end = self.name, self.trace, self.parent, self.start, self.end
        stack, clock, ident = self._stack, time.perf_counter_ns, self._id
        fixed = ident(label) if label not in ("synthesis.synthesize", "cli.emit") else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(fixed if fixed is not None else ident(_span_name(label, args)))
            trace.append(self.trace_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"planemirage.{short}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "planemirage" and not mod_name.startswith("planemirage."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in microseconds."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[int, int] = defaultdict(int)
        total: dict[int, int] = defaultdict(int)
        own: dict[int, int] = defaultdict(int)
        for i in range(n):
            k = self.name[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        return {
            self.names[k]: {"calls": calls[k], "us": total[k] / 1e3, "self_us": own[k] / 1e3}
            for k in calls
        }

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: id, trace (command index), name, start, end, parent."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,trace,name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.trace[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0},{self.end[i] - t0},{self.parent[i]}\n"
                )
