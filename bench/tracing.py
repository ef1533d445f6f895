"""Outside-in span tracing of the nrestrict layers.

The tracer wraps, from outside the package, every public module-level
function of each loaded ``nrestrict`` module, plus the methods in
:data:`METHODS`.  A wrapper replaces the function on its defining module
*and* on every other ``nrestrict`` module that bound it with
``from .mod import fn``; without that, calls through the alias would go
untraced.  When the tracer is inactive a wrapper only forwards the call.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at an op's top level) and ``op`` the index of the op that
caused it.  Spans stay in memory until :meth:`Tracer.write`.  The program
runs on one thread, so the child spans of a span never overlap and its self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: (module, class, method) wrapped besides the public functions
METHODS = [
    ("poly", "PuiseuxPoly", "shear_substitute"),
    ("poly", "PuiseuxPoly", "linear_substitute"),
    ("geometry", "NewtonPolyhedron", "of"),
    ("report", "ReportDocument", "to_json"),
]

SHEAR = "poly.PuiseuxPoly.shear_substitute"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counts: dict = defaultdict(int)
        self._sheared: set = set()
        self._restore: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = {name[len("nrestrict."):]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith("nrestrict.") and mod is not None}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in list(mods.values()) + [sys.modules["nrestrict"]]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, cls_name, meth in METHODS:
            if short not in mods:
                continue
            cls = getattr(mods[short], cls_name)
            raw = inspect.getattr_static(cls, meth)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(f"{short}.{cls_name}.{meth}", fn)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(wrapper)
                    if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == SHEAR:
                self._count_shear(args[0], args[1])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def _count_shear(self, phi, f) -> None:
        self.counts["shear_terms_in"] += len(phi)
        pair = (phi, f)
        if pair in self._sheared:
            self.counts["shear_repeats"] += 1
        else:
            self._sheared.add(pair)

    # -- recording --------------------------------------------------------

    def begin_op(self, op_index: int) -> None:
        self.op = op_index
        self._sheared = set()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._sheared = set()

    def write(self, path: str, op_kinds: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, kind in enumerate(op_kinds):
                fh.write(json.dumps({"op": i, "kind": kind}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _n, start, end, _p, _op in spans]
    for _n, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: call count, total self time and total inclusive time."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                "incl_s": 0.0})
    for (name, start, end, _p, _op), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += own
    return dict(out)


def self_time_by_op_kind(spans: list, name: str, op_kinds: list[str],
                         kind: str) -> float:
    """Self time of spans called ``name`` inside ops of the given kind."""
    return sum((own for (n, _s, _e, _p, op), own in zip(spans, self_times(spans))
                if n == name and op_kinds[op] == kind), 0.0)


def share_containing(spans: list, outer: str, inner: str) -> float:
    """Share of ``outer`` spans that have an ``inner`` span below them."""
    total = sum(1 for s in spans if s[0] == outer)
    if total == 0:
        return 0.0
    hit = set()
    for name, _s, _e, parent, _op in spans:
        if name != inner:
            continue
        while parent >= 0:
            if spans[parent][0] == outer:
                hit.add(parent)
            parent = spans[parent][3]
    return len(hit) / total
