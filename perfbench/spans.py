"""In-memory spans and counters for the traced benchmark run.

A span is one timed call at a layer boundary: a name, a start and end in
nanoseconds, the id of the span that was open when it began (its parent,
-1 at the top), and the id of the benchmark operation it belongs to.
Spans live in flat arrays so that a run of a few hundred thousand of them
stays a few megabytes; they are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

_now = time.perf_counter_ns


class Spans:
    """Span recorder plus named counters, for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter[str] = Counter()
        self.op_id = -1
        self._open = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> tuple[int, int]:
        """Open a span; returns (its id, the previously open span id)."""
        sid = len(self.start)
        self.parent.append(self._open)
        self.op.append(self.op_id)
        self.name.append(nid)
        self.end.append(0)
        self.start.append(_now())
        prev, self._open = self._open, sid
        return sid, prev

    def finish(self, sid: int, prev: int) -> None:
        self.end[sid] = _now()
        self._open = prev

    @contextlib.contextmanager
    def span(self, name: str):
        sid, prev = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(sid, prev)

    def wrap(self, fn, name: str):
        """fn, recording a span named `name` around every call."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid, prev = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid, prev)
        return traced

    def wrap_named(self, fn, name_of):
        """fn, with a span whose name `name_of(*args)` picks per call."""
        def traced(*args, **kwargs):
            sid, prev = self.begin(self.name_id(name_of(*args)))
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid, prev)
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (total duration) and self_s
        (duration minus the time covered by its direct children), plus
        parent_calls, the call count split by the parent span's name."""
        child_ns = defaultdict(int)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[sid] - self.start[sid]
        out: dict[str, dict] = {}
        for sid, nid in enumerate(self.name):
            entry = out.get(self.names[nid])
            if entry is None:
                entry = out[self.names[nid]] = {
                    "calls": 0, "busy_s": 0.0, "self_s": 0.0,
                    "parent_calls": Counter()}
            dur = self.end[sid] - self.start[sid]
            entry["calls"] += 1
            entry["busy_s"] += dur * 1e-9
            entry["self_s"] += (dur - child_ns[sid]) * 1e-9
            parent = self.parent[sid]
            entry["parent_calls"][
                self.names[self.name[parent]] if parent >= 0 else None] += 1
        return out

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "op", "name", "start_ns", "end_ns"))
            for sid in range(len(self.start)):
                out.writerow((sid, self.parent[sid], self.op[sid],
                              self.names[self.name[sid]], self.start[sid],
                              self.end[sid]))


class NoSpans:
    """Stand-in for Spans in untraced runs: records nothing."""

    def __init__(self):
        self.op_id = -1

    def span(self, name: str):
        return contextlib.nullcontext()


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False
