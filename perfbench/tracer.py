"""In-memory span tracer for the benchmark's traced run.

A span is one call across a layer boundary: a name, a start and an end
time, and the index of the span that was open when it began (its parent).
Spans of one session share the session's root span. They are kept in flat
arrays while the run lasts, so the hot path only appends, and are
aggregated and written to disk after it ends.

A span's self time is its duration minus the time its direct children
cover. Calls are serial in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Union

ROOT = -1  # parent index of a span opened with nothing else open

ARRAYS = (("name_id", "H"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span with interned name nid; returns its index."""
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: Union[str, Callable[..., str]]) -> Callable:
        """fn inside a span; a callable name picks the span name from the call's arguments."""
        open_, close, intern = self.open, self.close, self.intern
        nid = None if callable(name) else intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(nid if nid is not None else intern(name(*args, **kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def summarize(self, session_names: Iterable[str] = ()) -> dict:
        """Calls, busy and self time per span name, over the whole run and
        within each kind of session root.

        A span named in session_names that no other session span encloses
        is a session root; every span below it belongs to that session.
        """
        n = len(self)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        covered = array("d", bytes(8 * n))  # time covered by each span's children
        for i in range(n):
            if parent[i] != ROOT:
                covered[parent[i]] += end[i] - start[i]
        root_ids = {self._ids[s] for s in session_names if s in self._ids}
        root_of = array("i", [ROOT]) * n  # name id of the enclosing session root
        totals: Dict[int, list] = {}
        within: Dict[int, dict] = {}
        for i in range(n):
            nid = name_id[i]
            busy = end[i] - start[i]
            own = busy - covered[i]
            _add(totals, nid, busy, own)
            root = root_of[parent[i]] if parent[i] != ROOT else ROOT
            if root == ROOT and nid in root_ids:
                root = nid
                session = within.setdefault(nid, {"sessions": 0, "busy_s": 0.0, "names": {}})
                session["sessions"] += 1
                session["busy_s"] += busy
            root_of[i] = root
            if root != ROOT:
                _add(within[root]["names"], nid, busy, own)
        names = self.names
        return {
            "spans": n,
            "names": {names[k]: _stat(v) for k, v in totals.items()},
            "sessions": {
                names[k]: {
                    "sessions": v["sessions"],
                    "busy_s": v["busy_s"],
                    "names": {names[j]: _stat(s) for j, s in v["names"].items()},
                }
                for k, v in within.items()
            },
        }

    def dump(self, path: Path) -> None:
        """Write every span: a JSON line with the names, the span count and
        the arrays' typecodes, then each array in ARRAYS order, raw, in this
        machine's byte order."""
        header = {"names": self.names, "count": len(self), "arrays": ARRAYS}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for attr, _ in ARRAYS:
                getattr(self, attr).tofile(fh)


def _add(table: dict, nid: int, busy: float, own: float) -> None:
    entry = table.get(nid)
    if entry is None:
        table[nid] = [1, busy, own]
    else:
        entry[0] += 1
        entry[1] += busy
        entry[2] += own


def _stat(entry: list) -> dict:
    return {"calls": entry[0], "busy_s": entry[1], "self_s": entry[2]}
