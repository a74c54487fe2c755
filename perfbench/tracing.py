"""Spans around the calls into each layer of ``rashba_contact``.

The layers are the library's modules.  ``Tracer.install`` wraps every public
function a layer defines and rebinds the wrapper in every module of the
package that holds the function under some name, so calls made through a
``from .greens import xi`` binding are seen as well as calls through the
defining module.  Each call records one span: name, start, end, parent span
and op id, kept in flat arrays in memory.  ``uninstall`` puts the original
functions back.

Calls between private helpers are not spans; their time counts as self time
of the public function that made them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "rashba_contact"
LAYERS = ("model", "greens", "extension", "spectrum", "perturbation", "oracle",
          "verify", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []          # "layer.function", indexed by name id
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop the recorded spans; installed wrappers keep recording."""
        for arr in (self.start, self.end, self.name, self.parent, self.op):
            del arr[:]
        self._stack[:] = [-1]

    def _wrap(self, fn, name_id: int):
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    key = f"{layer}.{attr}"
                    if key not in self.names:
                        self.names.append(key)
                    wrappers[id(obj)] = self._wrap(obj, self.names.index(key))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def arrays(self) -> dict[str, np.ndarray]:
        return {"start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "names": np.array(self.names)}


class SpanTable:
    """Derived quantities over one recorded pass."""

    def __init__(self, spans: dict[str, np.ndarray]) -> None:
        self.start = spans["start_ns"]
        self.end = spans["end_ns"]
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.names = [str(n) for n in spans["names"]]
        self.dur = self.end - self.start

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def count(self, *names: str) -> int:
        return int(np.count_nonzero(self.mask(*names)))

    def outermost_ns(self, *names: str) -> int:
        """Wall time covered by spans of these names, nested ones not counted twice."""
        sel = np.flatnonzero(self.mask(*names))     # index order is start order
        if sel.size == 0:
            return 0
        s, e = self.start[sel], self.end[sel]
        prev_end = np.concatenate(([np.iinfo(np.int64).min], np.maximum.accumulate(e)[:-1]))
        top = s >= prev_end
        return int(np.sum(e[top] - s[top]))

    def self_ns_by_layer(self) -> dict[str, int]:
        """Span duration minus the time its child spans cover, summed per layer."""
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self_ns = self.dur - covered
        per_name = np.bincount(self.name, weights=self_ns, minlength=len(self.names))
        out: dict[str, int] = {}
        for n, v in zip(self.names, per_name):
            layer = n.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + int(v)
        return out

    def calls_within(self, inner: str, outer: str) -> int:
        """Spans named `inner` that lie inside some span named `outer`
        (``outer`` never nests in itself)."""
        o = np.flatnonzero(self.mask(outer))
        i = np.flatnonzero(self.mask(inner))
        if o.size == 0 or i.size == 0:
            return 0
        k = np.searchsorted(self.start[o], self.start[i], side="right") - 1
        ok = k >= 0
        return int(np.count_nonzero(self.end[o[k[ok]]] >= self.end[i[ok]]))
