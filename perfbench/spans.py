"""Host wall-clock spans recorded from outside the program.

A :class:`Tracer` records one span per call into a layer's public
function: name, start, end, parent span and query id.  Spans stay in
memory and are written once, at the end, as Chrome trace-event JSON,
so Perfetto can open them next to ``repro trace`` output.

Two ways to put a span around a call:

* ``with tracer.span("relational.sql_parse"):`` around a call the
  benchmark makes itself;
* :meth:`Tracer.patch`, which swaps a class attribute for a wrapper
  for as long as the tracer is installed.  This reaches calls the
  program makes internally (``DataflowEngine.compile`` inside a
  serving run, ``Optimizer.rank`` inside ``optimize``).

Calls are synchronous and the process has one thread, so spans nest
strictly; a span's self time is its duration minus the durations of
its direct children, and the self times of all spans under the root
add up to the root's duration.

:data:`NULL_TRACER` has the same interface and records nothing; the
untraced runs that give the end-to-end metrics use it.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class NullTracer:
    """Records nothing; ``span`` is a shared no-op context."""

    qid = 0
    _none = nullcontext()

    def span(self, _name: str, qid: Optional[int] = None) -> nullcontext:
        return self._none


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        #: [name, start, end, parent index (-1 for a root), qid]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        #: Query id stamped on spans opened without an explicit one.
        self.qid = 0
        self._stack: list[int] = []
        self._patched: list[tuple[type, str, object]] = []

    @contextmanager
    def span(self, name: str, qid: Optional[int] = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent,
                  self.qid if qid is None else qid]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ---------------------------------------------------------

    def patch(self, owner: type, attr: str, name: str,
              on_result: Optional[Callable[[object], None]] = None
              ) -> None:
        """Wrap ``owner.attr`` in a span named ``name`` until uninstall.

        ``on_result`` sees each return value (to count work done).  A
        ``qid`` keyword argument, as ``DataflowEngine.compile`` takes
        in serving runs, becomes the span's query id.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name, kwargs.get("qid") or None):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus direct-child durations."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _qid in self.spans:
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            totals[name] = totals.get(name, 0.0) + duration
        for index, (name, _s, _e, _p, _q) in enumerate(self.spans):
            totals[name] -= child_time[index]
        return totals

    def write_chrome(self, path: str, process_name: str) -> None:
        """Write every span as Chrome trace-event JSON (``ph: X``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "tid": 1, "args": {"name": process_name}}]
        for index, (name, start, end, parent, qid) in enumerate(
                self.spans):
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "qid": qid},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
