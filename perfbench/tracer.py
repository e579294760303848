"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program: it replaces bound methods on the
*instances* the benchmark built (``obj.method = wrapper``), so only the
objects of one run are timed and the classes stay untouched.  Each call
through a wrapper records one span; spans nest on a stack because the
program is single-threaded.

The wrapper only appends a row (name, parent, start, end) to in-memory
columns; aggregates are computed once the run is over.  Times are
integer nanoseconds from ``time.perf_counter_ns``, so the self-time
arithmetic is exact: a span's self time is its duration minus the
durations of its direct children, which is never negative, and the self
times of all spans add up to the summed duration of the root spans.

Objects shared between owners (every cluster replica holds the same
``DecodeCostModel``) are wrapped once: wrapping is keyed by object
identity and attribute, so a second request for the same method is a
no-op instead of a second, nested wrapper.
"""

from __future__ import annotations

import time

import numpy as np


class Tracer:
    """Spans in memory; per-name calls, busy, self time and work."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One row per span: name id, parent row (-1 = root), start, end.
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._open: list[int] = []          # rows of the open spans
        self.work: list[float] = []
        # (object, attribute, original instance attribute or None); the
        # list also keeps wrapped objects alive so their ids stay unique.
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped: set[tuple[int, str]] = set()
        self._totals: tuple[int, dict] | None = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.work.append(0.0)
        return nid

    # -- recording -------------------------------------------------------
    def _recorder(self, nid: int):
        """``begin() -> row`` and ``end(row)`` for spans named ``nid``."""
        names, parents = self.span_name, self.span_parent
        starts, ends, open_, clock = (self.span_start, self.span_end,
                                      self._open, self.clock)

        def begin() -> int:
            row = len(names)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            open_.append(row)
            ends.append(0)
            starts.append(clock())
            return row

        def end(row: int) -> None:
            ends[row] = clock()
            open_.pop()
        return begin, end

    def add(self, name: str, amount: float) -> None:
        """Add work to a name without opening a span."""
        self.work[self.name_id(name)] += amount

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(*self._recorder(self.name_id(name)))

    def wrap(self, obj, attr: str, name: str, work=None) -> bool:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``work(*args, **kwargs)`` optionally returns an amount of work
        (tokens, rows, FLOPs) to add to the name's tally.  Returns False
        when this object's method is already wrapped.
        """
        inner = self._claim(obj, attr)
        if inner is None:
            return False
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_, clock = (self.span_start, self.span_end,
                                      self._open, self.clock)
        tally = self.work

        # The hot path is written out inline: a call through a wrapper
        # costs a few list appends and two clock reads.
        def wrapper(*args, **kwargs):
            if work is not None:
                tally[nid] += work(*args, **kwargs)
            row = len(names)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            open_.append(row)
            ends.append(0)
            starts.append(clock())
            try:
                return inner(*args, **kwargs)
            finally:
                ends[row] = clock()
                open_.pop()
        setattr(obj, attr, wrapper)
        return True

    def wrap_generator(self, obj, attr: str, name: str) -> bool:
        """Time each ``next()`` of the generator ``obj.attr(...)`` returns.

        The span closes before the item is handed to the consumer, so the
        consumer's work between items is not billed to the producer.
        """
        inner = self._claim(obj, attr)
        if inner is None:
            return False
        begin, end = self._recorder(self.name_id(name))

        def wrapper(*args, **kwargs):
            items = inner(*args, **kwargs)
            while True:
                row = begin()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    end(row)
                yield item
        setattr(obj, attr, wrapper)
        return True

    def _claim(self, obj, attr: str):
        """The method to wrap, or None when this tracer already wrapped it."""
        key = (id(obj), attr)
        if key in self._wrapped:
            return None
        self._wrapped.add(key)
        self._originals.append((obj, attr, vars(obj).get(attr)))
        return getattr(obj, attr)

    def restore(self) -> None:
        """Remove every wrapper, leaving the objects as they were."""
        for obj, attr, original in reversed(self._originals):
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._originals.clear()
        self._wrapped.clear()

    # -- results ---------------------------------------------------------
    def _columns(self):
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end, dtype=np.int64) \
            - np.asarray(self.span_start, dtype=np.int64)
        return name, parent, duration

    def totals(self) -> dict[str, np.ndarray]:
        """Per-name ``calls``, ``busy_ns`` and ``self_ns`` (int64 arrays)."""
        if self._totals is None or self._totals[0] != len(self.span_name):
            name, parent, duration = self._columns()
            child = np.zeros(len(duration), dtype=np.int64)
            nested = parent >= 0
            np.add.at(child, parent[nested], duration[nested])
            count = len(self.names)
            calls = np.zeros(count, dtype=np.int64)
            busy = np.zeros(count, dtype=np.int64)
            own = np.zeros(count, dtype=np.int64)
            np.add.at(calls, name, 1)
            np.add.at(busy, name, duration)
            np.add.at(own, name, duration - child)
            self._totals = (len(name), {
                "calls": calls, "busy_ns": busy, "self_ns": own,
                "span_self_min": int((duration - child).min(initial=0))})
        return self._totals[1]

    def total(self, name: str, field: str) -> float:
        """Aggregate of one name: ``calls``, ``busy_s``, ``self_s``, ``work``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        if field == "work":
            return self.work[nid]
        totals = self.totals()
        if field == "calls":
            return float(totals["calls"][nid])
        if field == "busy_s":
            return totals["busy_ns"][nid] / 1e9
        if field == "self_s":
            return totals["self_ns"][nid] / 1e9
        raise ValueError(f"unknown field {field!r}")

    def root_ns(self) -> int:
        """Summed duration of the root spans (the traced wall time)."""
        _, parent, duration = self._columns()
        return int(duration[parent < 0].sum())

    def check(self) -> list[str]:
        """Problems with the recorded spans; empty when they are sound.

        Every span is closed, every span's self time is non-negative, and
        the self times add up exactly to the traced wall time.
        """
        problems = []
        if self._open:
            problems.append(f"{len(self._open)} spans left open")
        totals = self.totals()
        if totals["span_self_min"] < 0:
            problems.append("a span has negative self time")
        if int(totals["self_ns"].sum()) != self.root_ns():
            problems.append(f"self times sum to {totals['self_ns'].sum()} "
                            f"ns, root spans to {self.root_ns()} ns")
        return problems

    def save(self, path) -> None:
        """Write the spans as ``.npz``: a name table and four columns.

        Row ``i`` is one span: ``names[name[i]]``, ``start[i]`` and
        ``end[i]`` in perf_counter nanoseconds, and the row of the span
        that called it in ``parent[i]`` (-1 for a root).
        """
        np.savez(path, names=np.array(self.names),
                 name=np.asarray(self.span_name, dtype=np.int32),
                 parent=np.asarray(self.span_parent, dtype=np.int32),
                 start=np.asarray(self.span_start, dtype=np.int64),
                 end=np.asarray(self.span_end, dtype=np.int64))


class _Span:
    __slots__ = ("begin", "end", "row")

    def __init__(self, begin, end):
        self.begin = begin
        self.end = end

    def __enter__(self):
        self.row = self.begin()
        return self

    def __exit__(self, *exc):
        self.end(self.row)
        return False
