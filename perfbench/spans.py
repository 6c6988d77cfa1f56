"""Spans and call counters applied to cyclodiff from outside the package.

Nothing here edits the package source.  A wrapper replaces a public function
in every loaded ``cyclodiff`` module that binds it, because several modules
import names directly (``from .constants import estimate_constants``) and a
wrapper on the defining module alone would never fire.  Methods are replaced
on their class, so nested calls (``mul`` inside ``invert``) are recorded as
children of the outer span.

Spans stay in memory as tuples ``(id, parent, name, item, start_ns, end_ns,
error, tag)`` and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from collections import defaultdict


def _modules(prefix: str = "cyclodiff"):
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]


class Patcher:
    """Replaces functions and methods and puts the originals back."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr: str, make):
        """Rebind ``module.attr`` wherever a cyclodiff module binds the same
        object; ``make(original)`` returns the replacement."""
        original = getattr(module, attr)
        wrapped = make(original)
        hits = 0
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
                    hits += 1
        if not hits:
            raise LookupError(f"{module.__name__}.{attr} is bound nowhere")

    def method(self, cls, attr: str, make):
        """Replace ``cls.attr``, keeping classmethod and staticmethod kinds."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


class Tracer:
    """Records one span per call of each wrapped function while active."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.active = False
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, fn, name, tag=None):
        """``name`` is a string or ``name(args, kwargs)``; ``tag(args,
        result)`` stores one extra number on the span."""
        tracer = self
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            label = fixed or name(args, kwargs)
            stack.append(sid)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                extra = tag(args, result) if tag is not None and error is None else None
                spans.append((sid, parent, label, tracer.item, start, end, error, extra))

        return wrapper

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


class Counter:
    """Counts calls of each wrapped function while active (no spans)."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.active = False
        self.item = None  # counts are totals, not per item

    def wrap(self, fn, name):
        counter = self
        counts = self.counts
        counts[name] += 0

        def wrapper(*args, **kwargs):
            if counter.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans):
    """Per span id, its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, parent, _name, _item, start, end, *_ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _item, start, end, *_ in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """name -> {"calls", "self_ns", "total_ns"} over all spans."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0})
    for sid, _parent, name, _item, start, end, *_ in spans:
        row = table[name]
        row["calls"] += 1
        row["self_ns"] += own[sid]
        row["total_ns"] += end - start
    return dict(table)


def descendants_per_call(spans, outer: str, inner: str) -> float:
    """Mean number of ``inner`` spans below each ``outer`` span; 0 when
    ``outer`` never ran."""
    name_of = {}
    parent_of = {}
    for sid, parent, name, *_ in spans:
        name_of[sid] = name
        parent_of[sid] = parent
    outers = [sid for sid, name in name_of.items() if name == outer]
    if not outers:
        return 0.0
    hits = 0
    for sid, name in name_of.items():
        if name != inner:
            continue
        up = parent_of[sid]
        while up:
            if name_of[up] == outer:
                hits += 1
                break
            up = parent_of[up]
    return hits / len(outers)
