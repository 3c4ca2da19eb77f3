"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` replaces every traced function by a wrapper in each
module namespace of the package that binds it, so a call through
``ehresmann.cli.check_localisable`` and one through
``ehresmann.core.check_localisable`` are both recorded; the lazy
``from .core import ...`` inside function bodies reads the defining module
and is covered the same way.  Nothing inside the package changes.

A span is recorded when its call returns or raises: id, function, start,
end, parent span, op id, self time and flags.  Spans stay in memory, in
per-thread column arrays, until ``write`` is called at the end of the run.
Self time is the span's duration minus the time its child spans cover.
Children on the span's own thread are nested and disjoint, so their
durations are summed as they end; children started on another thread
(``sweep --jobs 2`` runs records in a thread pool) may overlap, so spans
that have them are corrected afterwards with the union of their children's
intervals.  A span started on a thread with no open span of its own takes
the innermost open span of the installing thread as its parent.

A function returning a generator gets one call span for the call and one
resume span per ``next``, so a consumer's work between items is not
charged to the generator.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import types
from array import array
from collections import defaultdict
from time import perf_counter

CALL = 1  # the span is a call, not a generator resume
RAISED = 2  # the call or resume ended with an exception


class _Columns:
    """Column arrays of the spans one thread recorded."""

    def __init__(self) -> None:
        self.sid = array("q")
        self.fn = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("l")
        self.self_s = array("d")
        self.flags = array("b")

    def __len__(self) -> int:
        return len(self.sid)


class _ThreadState:
    def __init__(self) -> None:
        self.columns = _Columns()
        # open spans: [span id, child time covered so far]
        self.stack: list[list] = []


class Tracer:
    """Records one span per traced call; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []  # function index -> "layer.function"
        self.op = -1
        self.subjects: dict[str, set] = defaultdict(set)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._foreign_children: set[int] = set()
        self._count_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            self._states.append(st)
            return st

    def _open(self, st: _ThreadState) -> tuple[int, int, list]:
        sid = next(self._ids)
        if st.stack:
            parent_frame = st.stack[-1]
            parent = parent_frame[0]
        else:
            main = self._main.stack if self._main is not None else []
            parent_frame = None
            parent = main[-1][0] if (main and st is not self._main) else -1
            if parent >= 0:
                self._foreign_children.add(parent)
        frame = [sid, 0.0]
        st.stack.append(frame)
        return sid, parent, parent_frame

    def _close(self, st, fn_idx, sid, parent, parent_frame, start, end, flags) -> None:
        frame = st.stack.pop()
        dur = end - start
        if parent_frame is not None:
            parent_frame[1] += dur
        cols = st.columns
        cols.sid.append(sid)
        cols.fn.append(fn_idx)
        cols.start.append(start)
        cols.end.append(end)
        cols.parent.append(parent)
        cols.op.append(self.op)
        cols.self_s.append(dur - frame[1])
        cols.flags.append(flags)

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, result)`` runs once the call returns, outside the span
        and outside its parent's self time.
        """
        fn_idx = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            sid, parent, parent_frame = tracer._open(st)
            flags = CALL | RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                flags = CALL
            finally:
                tracer._close(st, fn_idx, sid, parent, parent_frame, start, perf_counter(), flags)
            if after is not None:
                hook_start = perf_counter()
                after(args, result)
                if parent_frame is not None:  # the hook is tracing cost, not the caller's
                    parent_frame[1] += perf_counter() - hook_start
            if isinstance(result, types.GeneratorType):
                return tracer._resumes(fn_idx, result)
            return result

        return traced

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to the counter ``key``; safe from any thread."""
        with self._count_lock:
            self.counters[key] += value

    def _resumes(self, fn_idx: int, gen):
        name = self.names[fn_idx]
        try:
            while True:
                st = self._state()
                sid, parent, parent_frame = self._open(st)
                flags = RAISED
                start = perf_counter()
                try:
                    item = next(gen)
                    flags = 0
                except StopIteration:
                    flags = 0
                    return
                finally:
                    self._close(st, fn_idx, sid, parent, parent_frame, start, perf_counter(), flags)
                self.count(name + ".items", 1)
                yield item
        finally:
            gen.close()

    def install(self, package, layers, hooks=None, extra=()) -> None:
        """Wrap every public function of ``package.<layer>`` for each layer.

        ``extra`` names private functions to wrap as well, as
        ``"layer.function"``; ``hooks`` maps ``"layer.function"`` to an
        ``after`` callback.  Every namespace in the package that binds an
        original function is rebound to its wrapper.
        """
        hooks = hooks or {}
        self._main = self._state()
        modules = [package] + [getattr(package, layer) for layer in layers]
        wrapped = {}
        for layer in layers:
            mod = getattr(package, layer)
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if attr.startswith("_") and qual not in extra:
                    continue
                wrapped[obj] = self.wrap(qual, obj, hooks.get(qual))
        missing = set(extra) - set(self.names)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def span_count(self) -> int:
        return sum(len(st.columns) for st in self._states)

    def _self_corrections(self) -> dict[int, float]:
        """Self time of spans with children on other threads, from interval unions."""
        if not self._foreign_children:
            return {}
        intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
        bounds: dict[int, tuple[float, float]] = {}
        for st in self._states:
            c = st.columns
            for i in range(len(c)):
                if c.parent[i] in self._foreign_children:
                    intervals[c.parent[i]].append((c.start[i], c.end[i]))
                if c.sid[i] in self._foreign_children:
                    bounds[c.sid[i]] = (c.start[i], c.end[i])
        fixed = {}
        for sid, (lo, hi) in bounds.items():
            covered = 0.0
            cur_lo = cur_hi = None
            for a, b in sorted(intervals[sid]):
                a, b = max(a, lo), min(b, hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            fixed[sid] = (hi - lo) - covered
        return fixed

    def summary(self) -> dict:
        """Per-function and per-layer aggregates over every recorded span.

        Per function: ``calls``, ``cum_s`` (summed span time, resumes
        included), ``self_s`` and ``raised``.  Per layer: ``calls``,
        ``self_s`` and ``raised``.
        """
        fixed = self._self_corrections()
        per_fn = {
            name: {"calls": 0, "cum_s": 0.0, "self_s": 0.0, "raised": 0} for name in self.names
        }
        for st in self._states:
            c = st.columns
            for i in range(len(c)):
                agg = per_fn[self.names[c.fn[i]]]
                flags = c.flags[i]
                if flags & CALL:
                    agg["calls"] += 1
                if flags & RAISED:
                    agg["raised"] += 1
                agg["cum_s"] += c.end[i] - c.start[i]
                agg["self_s"] += fixed.get(c.sid[i], c.self_s[i])
        per_layer: dict[str, dict] = {}
        for name, agg in per_fn.items():
            layer = name.split(".", 1)[0]
            tot = per_layer.setdefault(layer, {"calls": 0, "self_s": 0.0, "raised": 0})
            for key in tot:
                tot[key] += agg[key]
        return {"functions": per_fn, "layers": per_layer}

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON, one object of columns per thread.

        ``fn`` indexes ``functions``; ``parent`` is a span id, -1 for none;
        ``flags`` has bit 0 for a call (not a generator resume) and bit 1 for
        a raise.
        """
        doc = {
            "functions": self.names,
            "threads": [
                {key: list(getattr(st.columns, key)) for key in vars(st.columns)}
                for st in self._states
            ],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
