"""Span tracer that instruments autcrit from outside, without editing it.

Modules import functions by name (``from .abelian import hom_order``), so
patching a function in its defining module misses every caller that
already holds its own reference.  ``Tracer.function`` therefore rebinds a
target in every place an autcrit module looks it up: module globals,
values of module-level dicts (including tuples inside them, such as the
criterion table in ``report``) and class attributes.  ``restore`` puts
every original back.

Spans are ``(id, parent_id, name, start, end)`` tuples kept in memory;
``summarize`` derives inclusive time, self time (duration minus the time
covered by traced children) and call counts from them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter


def autcrit_modules():
    # The package attribute ``autcrit.catalog`` is the catalog() function,
    # so modules are taken from sys.modules, never by attribute access.
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "autcrit" or k.startswith("autcrit."))]


def module(name: str):
    """The submodule ``autcrit.<name>``, imported if needed."""
    return importlib.import_module(f"autcrit.{name}")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if count is not None:
                counts[count] += len(result)
            return result

        return traced

    def _rebind_everywhere(self, fn, wrapped):
        hits = 0
        for mod in autcrit_modules():
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is fn:
                    self._undo.append((ns, key, val))
                    ns[key] = wrapped
                    hits += 1
                elif isinstance(val, dict) and key != "__builtins__":
                    hits += self._rebind_in_dict(val, fn, wrapped)
        return hits

    def _rebind_in_dict(self, d, fn, wrapped):
        hits = 0
        for key, val in list(d.items()):
            if val is fn:
                new = wrapped
            elif isinstance(val, tuple) and any(v is fn for v in val):
                new = tuple(wrapped if v is fn else v for v in val)
            else:
                continue
            self._undo.append((d, key, val))
            d[key] = new
            hits += 1
        return hits

    def function(self, name, fn, count=None):
        """Trace a module-level function under span ``name``."""
        if self._rebind_everywhere(fn, self._wrap(name, fn, count)) == 0:
            raise LookupError(f"{name}: no autcrit module refers to {fn!r}")

    def method(self, name, cls, attr):
        """Trace ``cls.attr`` (plain method or classmethod) under ``name``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__))
        else:
            new = self._wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore(self):
        while self._undo:
            target, key, val = self._undo.pop()
            if isinstance(target, type):
                setattr(target, key, val)
            else:
                target[key] = val

    # -- results -----------------------------------------------------------

    def summarize(self, layer_of) -> dict[str, float]:
        """Per-name and per-layer totals.

        ``<name>.s`` sums spans not nested in a span of the same name,
        ``<name>.self_s`` sums duration minus traced-children time and
        ``<name>.calls`` counts spans.  ``<layer>.s`` and
        ``<layer>.calls`` do the same over every name that
        ``layer_of(name)`` maps to the layer.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: Counter = Counter()
        for sid, parent, _, t0, t1 in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: Counter = Counter()

        def nested_in(span, pred):
            parent = span[1]
            while parent:
                up = by_id[parent]
                if pred(up[2]):
                    return True
                parent = up[1]
            return False

        for span in self.spans:
            sid, _, name, t0, t1 = span
            layer = layer_of(name)
            dur = t1 - t0
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[sid]
            if not nested_in(span, lambda n: n == name):
                out[f"{name}.s"] += dur
            out[f"{layer}.calls"] += 1
            if not nested_in(span, lambda n: layer_of(n) == layer):
                out[f"{layer}.s"] += dur
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
