"""Spans around the public functions of every cayleyiso module.

The tracer replaces each public function under every module attribute that
binds it, so a call from one layer into another (``isoperimetry`` calling
``groups.minimal_ball_radius``, ``counterexample`` calling ``boundary``) is
timed as well as a call from the benchmark. Spans live in memory and are
written out once, at the end of the traced run.

``neighbors`` is called millions of times per workload, so it gets an
aggregated count and time instead of one span per call; its time still
counts as child time of the span that called it.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

import cayleyiso
from cayleyiso import _grid, cli, counterexample, groups, isoperimetry, ringlike

LAYERS = (groups, isoperimetry, _grid, counterexample, ringlike, cli)
BINDERS = (cayleyiso,) + LAYERS
NEIGHBORS = "groups.neighbors"


def _short(module_name: str) -> str:
    """``cayleyiso._grid`` -> ``grid``: metric names start with a letter."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Collects spans, per-name call counts and self times, and counters.

    A span is (name, start, end, parent span index or -1, operation id).
    Self time is a span's duration minus the durations of its direct
    children, which cover disjoint parts of it in this single-threaded run.
    """

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stats_params: set = set()
        self.op = "setup"
        self._stack: list = []  # [span index, child seconds] per open span

    def _span(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans[index] = (
                    name, start, end, parent[0] if parent else -1, self.op
                )
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _aggregate(self, fn):
        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            self.calls[NEIGHBORS] += 1
            self.self_s[NEIGHBORS] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer, under every binding."""
        observers = {
            "isoperimetry.random_connected_set": lambda A: self.counts.update(
                {"isoperimetry.random_connected_set.vertices": len(A)}),
            "grid.perforated_block": lambda bm: self.counts.update(
                {"grid.cells": bm.mask.size}),
            "counterexample.stats": lambda st: self.stats_params.add(
                (st.params.i, st.params.k)),
        }
        wrappers = {}
        for module in LAYERS:
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                name = f"{_short(module.__name__)}.{attr}"
                wrappers[value] = self._span(name, value, observers.get(name))
        for module in BINDERS:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        vertex_set = isoperimetry.VertexSet
        vertex_set.__init__ = self._span(
            "isoperimetry.VertexSet", vertex_set.__init__
        )
        for cls in (groups.IntegerLattice, groups.Torus, groups.FreeGroup,
                    groups.Cylinder):
            cls.neighbors = self._aggregate(cls.neighbors)

    def nested_calls(self, inner: str, outer: str) -> int:
        """Number of ``inner`` spans that run inside some ``outer`` span."""
        total = 0
        for span in self.spans:
            if span[0] != inner:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            total += parent >= 0
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
            fh.write(json.dumps({
                "name": NEIGHBORS, "aggregated": True,
                "calls": self.calls[NEIGHBORS], "seconds": self.self_s[NEIGHBORS],
            }) + "\n")
