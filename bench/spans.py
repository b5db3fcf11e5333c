"""Span tracing of sobocurve's public module-level functions, from outside.

`Tracer.install()` replaces every public function defined in a layer
module by a wrapper, in every sobocurve module that holds a reference to
it, so calls made through `from .curves import derivative` are seen as
well.  It also wraps `DiscreteCurve.__post_init__` (construction) and the
entries of `verify.CHECKS`.  No program file is touched; `uninstall()`
restores the originals.

Spans are aggregated in memory by (name, parent) edge: calls, total time
and self time, where self time is the span's duration minus the time its
child spans cover.  A solve makes hundreds of thousands of coefficient
calls, so individual spans are not kept.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("curves", "metric", "completeness", "paths", "counterexample", "verify", "cli")
ROOT = "<root>"


class Tracer:
    def __init__(self):
        self._stack = [[ROOT, 0.0]]  # [name, time covered by children]
        self._on = [True]  # off while paused
        self.edges = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters = {}
        self._restore = []

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are not recorded."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def wrap(self, name: str, fn, on_result=None):
        stack, edges, on, clock = self._stack, self.edges, self._on, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                edge = edges.get((name, parent[0]))
                if edge is None:
                    edge = edges[(name, parent[0])] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def install(self, callers=()):
        """Wrap every layer's public functions, also where `callers` imported them."""
        hooks = {"paths.geodesic_bvp": _count_solve}
        modules = {layer: importlib.import_module(f"sobocurve.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    span = f"{layer}.{attr}"
                    wrappers[value] = self.wrap(span, value, hooks.get(span))
        import sobocurve

        for mod in [sobocurve, *modules.values(), *callers]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        curve_cls = modules["curves"].DiscreteCurve
        self._patch(curve_cls, "__post_init__",
                    self.wrap("curves.DiscreteCurve", curve_cls.__post_init__))
        checks = modules["verify"].CHECKS
        original = list(checks)
        checks[:] = [(name, self.wrap(f"verify.check.{name}", fn)) for name, fn in original]
        self._restore.append(lambda: checks.__setitem__(slice(None), original))

    def _patch(self, owner, attr, value):
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def merge(self, edges):
        """Add edges recorded by another process (rows as written by `rows()`)."""
        for row in edges:
            edge = self.edges.setdefault((row["name"], row["parent"]), [0, 0.0, 0.0])
            edge[0] += row["calls"]
            edge[1] += row["total_s"]
            edge[2] += row["self_s"]

    def rows(self):
        return [
            {"name": name, "parent": parent, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (name, parent), e in sorted(self.edges.items())
        ]

    def calls(self, name: str) -> int:
        return sum(e[0] for (n, _), e in self.edges.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(e[2] for (n, _), e in self.edges.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(e[1] for (n, _), e in self.edges.items() if n == name)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"edges": self.rows(), "counters": self.counters, **extra}, fh, indent=1)


def _count_solve(tracer: Tracer, result):
    tracer.count("paths.iterations", result.iterations)
    tracer.count("paths.converged", int(result.converged))
