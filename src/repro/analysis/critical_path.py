"""Exact critical-path attribution of a query's simulated time.

Given the fabric trace and a query window ``[started_at,
finished_at]``, partition the window into non-overlapping segments
and charge each segment to exactly one bucket:

``device:<name>``
    A processing element held an execution slot (``device.*`` spans).
``storage:<name>``
    The storage medium's channel was busy (``storage.*`` spans).
``nic:<name>``
    A NIC DMA engine was streaming bytes (``nic.*.dma`` spans).
``link:<name>``
    A link port was occupied — serialization time (``link.*`` spans).
``wait:wire``
    A chunk was in flight between its ``chunk_emit`` and matching
    ``chunk_recv`` (propagation latency) with nothing else busy.
``wait:credit``
    A sender was blocked on the credit window (``credit_stall``
    windows) with nothing else busy.
``wait:other``
    Nothing was recorded as busy: queueing for a resource before its
    busy span opened, scheduler gaps, end-of-stream draining.

When several sources overlap, the *highest-priority* one wins
(device > storage > nic > link > wire > credit), so compute hides
concurrent movement the way a pipelined system's critical path does.

Exactness: segment boundaries are converted to
:class:`fractions.Fraction` (exact for every float), so the per-bucket
sums telescope to precisely ``Fraction(finished_at) -
Fraction(started_at)`` — no float drift, asserted by the reconciliation
tests with zero tolerance.  :class:`Timeline` answers many windows of
one horizon from a single sweep with the same exactness, summing
dyadic integers instead of Fractions; :func:`attribute` is its
reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from ..sim import EventKind, Trace

__all__ = ["Attribution", "IntervalIndex", "Timeline", "attribute",
           "attribute_query", "raw_intervals"]


# Lower number wins when sources overlap.
_PRIO_DEVICE = 0
_PRIO_STORAGE = 1
_PRIO_NIC = 2
_PRIO_LINK = 3
_PRIO_WIRE = 4
_PRIO_CREDIT = 5

WAIT_OTHER = "wait:other"


def _span_bucket(name: str) -> Optional[tuple[str, int]]:
    """Map a span name to its attribution bucket (None = structural)."""
    if name.startswith("device."):
        return f"device:{name[len('device.'):]}", _PRIO_DEVICE
    if name.startswith("storage."):
        return f"storage:{name[len('storage.'):]}", _PRIO_STORAGE
    if name.startswith("nic."):
        return f"nic:{name[len('nic.'):]}", _PRIO_NIC
    if name.startswith("link."):
        return f"link:{name[len('link.'):]}", _PRIO_LINK
    return None  # query.*, graph.*, stage.* — structural, not busy.


@dataclass
class Attribution:
    """Exact partition of one query window into busy/wait buckets."""

    started_at: float
    finished_at: float
    #: Bucket name -> exact seconds (rational arithmetic).
    buckets: dict[str, Fraction] = field(default_factory=dict)
    #: Merged timeline of ``(start, end, bucket)`` segments, in order.
    segments: list[tuple[float, float, str]] = field(
        default_factory=list)
    #: True when the trace's bounded event ring dropped events, so the
    #: wire/credit interval sources are incomplete for part of the
    #: window.  The arithmetic still reconciles (``exact`` stays
    #: true); the *inputs* are what's partial.
    partial: bool = False
    partial_reason: str = ""

    @property
    def elapsed(self) -> Fraction:
        """The window width, exactly."""
        return Fraction(self.finished_at) - Fraction(self.started_at)

    @property
    def total(self) -> Fraction:
        """Sum of all bucket charges, exactly."""
        return sum(self.buckets.values(), Fraction(0))

    @property
    def exact(self) -> bool:
        """Whether the buckets reconcile exactly with the window."""
        return self.total == self.elapsed

    def bucket_seconds(self) -> dict[str, float]:
        """Buckets as floats, largest first."""
        return {name: float(value) for name, value in
                sorted(self.buckets.items(),
                       key=lambda kv: (-kv[1], kv[0]))}

    def shares(self) -> dict[str, float]:
        """Buckets as fractions of elapsed, largest first."""
        elapsed = self.elapsed
        if elapsed <= 0:
            return {}
        # Int true division is correctly rounded, so this is
        # float(value / elapsed) without building the quotient.
        num, den = elapsed.numerator, elapsed.denominator
        return {name: value.numerator * den / (value.denominator * num)
                for name, value in
                sorted(self.buckets.items(),
                       key=lambda kv: (-kv[1], kv[0]))}

    def dominant(self) -> str:
        """The bucket charged the most time (the bottleneck)."""
        if not self.buckets:
            return WAIT_OTHER
        return max(self.buckets.items(),
                   key=lambda kv: (kv[1], kv[0]))[0]

    def to_dict(self) -> dict:
        """JSON-ready form (floats; exactness recorded as a flag)."""
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_s": float(self.elapsed),
            "exact": self.exact,
            "partial": self.partial,
            "partial_reason": self.partial_reason,
            "dominant": self.dominant(),
            "buckets": self.bucket_seconds(),
            "shares": self.shares(),
        }


def raw_intervals(trace: Trace
                  ) -> list[tuple[float, Optional[float], str, int]]:
    """Every busy/wait interval source, *unclipped*.

    One pass over the trace's spans and event ring; the result can be
    handed to :func:`attribute` via ``intervals=`` to amortize the
    collection cost across many windows (the tail-exemplar path, which
    attributes dozens of query windows against one trace).  ``end`` is
    ``None`` for a still-open span (clipped to the window at
    attribution time).
    """
    out: list[tuple[float, Optional[float], str, int]] = []
    for name, spans in trace.spans.items():
        mapped = _span_bucket(name)
        if mapped is None:
            continue
        bucket, prio = mapped
        for span in spans:
            out.append((span.start, span.end, bucket, prio))

    # Wire propagation: emit -> recv, paired by flow id.
    emits: dict[int, float] = {}
    for event in trace.events:
        if event.kind == EventKind.CHUNK_EMIT and event.flow_id:
            emits[event.flow_id] = event.ts
        elif event.kind == EventKind.CHUNK_RECV and event.flow_id:
            sent = emits.pop(event.flow_id, None)
            if sent is not None:
                out.append((sent, event.ts, "wait:wire", _PRIO_WIRE))
        elif event.kind == EventKind.CREDIT_STALL and event.dur > 0:
            out.append((event.ts, event.ts + event.dur,
                        "wait:credit", _PRIO_CREDIT))
    return out


class IntervalIndex:
    """Vectorized clip over one trace's raw interval list.

    Wrap :func:`raw_intervals` output once, then hand the index to
    :func:`attribute` for each window: the per-window clip becomes a
    numpy mask over the start/end arrays instead of a Python loop over
    every interval in the trace.  Comparison and min/max on float64
    match Python-float semantics exactly, so the clipped set is
    bit-identical to :func:`_clip` on the same list (open spans are
    held as ``+inf``, which clips to ``q1`` just as ``None`` does).
    """

    __slots__ = ("_starts", "_ends", "_meta")

    def __init__(self, intervals):
        self._meta = [(iv[2], iv[3]) for iv in intervals]
        self._starts = np.array([iv[0] for iv in intervals],
                                dtype=np.float64)
        self._ends = np.array(
            [math.inf if iv[1] is None else iv[1] for iv in intervals],
            dtype=np.float64)

    def clip(self, q0: float, q1: float
             ) -> list[tuple[float, float, str, int]]:
        starts, ends = self._starts, self._ends
        hit = np.nonzero((starts < q1) & (ends > q0))[0]
        if not len(hit):
            return []
        lo = np.maximum(starts[hit], q0).tolist()
        hi = np.minimum(ends[hit], q1).tolist()
        meta = self._meta
        out = []
        for i, j in enumerate(hit.tolist()):
            start, end = lo[i], hi[i]
            if end > start:
                bucket, prio = meta[j]
                out.append((start, end, bucket, prio))
        return out


def _clip(intervals, q0: float, q1: float
          ) -> list[tuple[float, float, str, int]]:
    """Clip raw intervals to ``[q0, q1]``, dropping empty results.

    Runs once per attributed window over every interval in the trace
    (the tail-exemplar path attributes dozens of windows), so the
    comparisons are inlined rather than ``max``/``min`` calls.
    """
    out: list[tuple[float, float, str, int]] = []
    append = out.append
    for start, end, bucket, prio in intervals:
        if end is None or end > q1:  # still-open span, or past window
            end = q1
        if start < q0:
            start = q0
        if end > start:
            append((start, end, bucket, prio))
    return out


def _partial_reason(trace: Trace) -> str:
    """Why attributions over ``trace`` are partial ("" = complete).

    A bounded ring that overflowed lost CHUNK_EMIT/RECV and
    CREDIT_STALL events: the wire/credit sources are truncated and no
    window may be presented as fully reconciled.
    """
    dropped = trace.events.dropped
    if dropped > 0:
        return (f"event ring dropped {dropped} events; wire/credit "
                "intervals incomplete")
    return ""


def _sweep(clipped, q0: float, q1: float
           ) -> list[tuple[float, float, str]]:
    """Merged ``(lo, hi, winner)`` runs tiling ``[q0, q1]``.

    ``clipped`` holds intervals already clipped to the window.
    Between two adjacent boundaries exactly one set of sources is
    active, and the segment goes to the highest-priority one
    (``wait:other`` when none).  The sweep runs on raw floats: every
    float is exactly one rational, so float comparison, hashing, and
    sorting agree with their Fraction counterparts.
    """
    bounds = {q0, q1}
    starts: dict[float, list[tuple[int, str]]] = {}
    ends: dict[float, list[tuple[int, str]]] = {}
    for start, end, bucket, prio in clipped:
        bounds.add(start)
        bounds.add(end)
        starts.setdefault(start, []).append((prio, bucket))
        ends.setdefault(end, []).append((prio, bucket))

    points = sorted(bounds)
    active: dict[tuple[int, str], int] = {}
    raw_segments: list[tuple[float, float, str]] = []
    get_starts, get_ends = starts.get, ends.get
    for index in range(len(points) - 1):
        left = points[index]
        for key in get_ends(left, ()):
            count = active.get(key, 0) - 1
            if count > 0:
                active[key] = count
            else:
                active.pop(key, None)
        for key in get_starts(left, ()):
            active[key] = active.get(key, 0) + 1
        winner = min(active)[1] if active else WAIT_OTHER
        # Adjacent segments always share a boundary, so contiguous
        # same-winner segments merge into one run.
        if raw_segments and raw_segments[-1][2] == winner:
            prev = raw_segments[-1]
            raw_segments[-1] = (prev[0], points[index + 1], winner)
        else:
            raw_segments.append((left, points[index + 1], winner))
    return raw_segments


def _clip_any(intervals, q0: float, q1: float):
    if isinstance(intervals, IntervalIndex):
        return intervals.clip(q0, q1)
    return _clip(intervals, q0, q1)


def attribute(trace: Trace, started_at: float, finished_at: float,
              intervals: Optional[list] = None) -> Attribution:
    """Attribute every instant of ``[started_at, finished_at]``.

    Boundary sweep over the clipped interval set (:func:`_sweep`).
    All widths are summed as :class:`~fractions.Fraction`, so the
    result reconciles exactly; this is the reference arithmetic that
    :class:`Timeline`'s integer prefix sums are checked against.

    ``intervals`` (from :func:`raw_intervals`) skips the per-call
    trace walk when attributing many windows against one trace.
    """
    attribution = Attribution(started_at=started_at,
                              finished_at=finished_at)
    attribution.partial_reason = _partial_reason(trace)
    attribution.partial = bool(attribution.partial_reason)
    if finished_at <= started_at:
        return attribution

    if intervals is None:
        intervals = raw_intervals(trace)
    segments = _sweep(_clip_any(intervals, started_at, finished_at),
                      started_at, finished_at)
    # Segments tile the window, so per-bucket widths telescope across
    # each merged same-winner run: two Fraction conversions per run
    # instead of one per boundary point.
    buckets: dict[str, Fraction] = {}
    zero = Fraction(0)
    for lo, hi, winner in segments:
        buckets[winner] = buckets.get(winner, zero) + (
            Fraction(hi) - Fraction(lo))

    attribution.buckets = buckets
    attribution.segments = segments
    return attribution


def _dyadic(value: float) -> tuple[int, int]:
    """``value`` as ``(n, k)`` with ``value == n / 2**k`` exactly."""
    n, d = value.as_integer_ratio()  # d is a power of two
    return n, d.bit_length() - 1


class Timeline:
    """Every window of ``[start, end]`` from one sweep, in integers.

    :func:`attribute` clips and sweeps the whole interval list per
    window.  A timeline sweeps ``[start, end]`` once and keeps the
    merged ``(lo, hi, winner)`` runs.  The winner at an instant
    depends only on the intervals covering it, never on the window
    asked about, so any window's runs are a slice of these with the
    two end runs cut at the window edges.

    Every run boundary is a float, i.e. exactly ``n / 2**e``; all of
    them are stored as Python ints on the one scale ``2**-k`` with the
    largest ``e``.  Per bucket the timeline keeps the indices of its
    runs and integer prefix sums of their widths, so :meth:`window`
    costs two bisects per bucket plus the two partial end runs, with
    no ``gcd`` until the result is handed out as
    :class:`~fractions.Fraction` seconds.  The result equals
    :func:`attribute` over the same window exactly (buckets,
    segments, partial flag).
    """

    __slots__ = ("start", "end", "partial_reason", "_runs", "_los",
                 "_ints", "_k", "_table")

    def __init__(self, trace: Trace, start: float, end: float,
                 intervals=None):
        self.start = start
        self.end = end
        self.partial_reason = _partial_reason(trace)
        if intervals is None:
            intervals = raw_intervals(trace)
        runs = _sweep(_clip_any(intervals, start, end), start, end) \
            if end > start else []
        self._runs = runs
        self._los = [lo for lo, _hi, _winner in runs]
        dyadic = [_dyadic(x) for x in self._los]
        if runs:
            dyadic.append(_dyadic(end))
        k = max((e for _n, e in dyadic), default=0)
        ints = [n << (k - e) for n, e in dyadic]
        #: Bucket -> (indices of its runs, prefix sums of their widths).
        table: dict[str, tuple[list[int], list[int]]] = {}
        for index, (_lo, _hi, winner) in enumerate(runs):
            cell = table.get(winner)
            if cell is None:
                cell = table[winner] = ([], [0])
            cell[0].append(index)
            cell[1].append(cell[1][-1] + ints[index + 1] - ints[index])
        self._ints = ints
        self._k = k
        self._table = table

    def window(self, started_at: float, finished_at: float
               ) -> Attribution:
        """The exact attribution of ``[started_at, finished_at]``.

        Both edges must lie inside ``[start, end]``; a window that
        reaches outside the timeline raises :class:`ValueError`.
        """
        if not (self.start <= started_at <= self.end
                and self.start <= finished_at <= self.end):
            raise ValueError(
                f"window [{started_at!r}, {finished_at!r}] outside the "
                f"timeline [{self.start!r}, {self.end!r}]")
        attribution = Attribution(
            started_at=started_at, finished_at=finished_at,
            partial=bool(self.partial_reason),
            partial_reason=self.partial_reason)
        if finished_at <= started_at:
            return attribution

        runs, ints = self._runs, self._ints
        first = bisect_right(self._los, started_at) - 1
        last = bisect_left(self._los, finished_at) - 1
        # One scale for the run boundaries and both window edges.
        a, ka = _dyadic(started_at)
        b, kb = _dyadic(finished_at)
        k = max(self._k, ka, kb)
        a <<= k - ka
        b <<= k - kb
        shift = k - self._k

        head = runs[first][2]
        if first == last:
            charges = [(first, head, b - a)]
            segments = [(started_at, finished_at, head)]
        else:
            tail = runs[last][2]
            # (first run index in the window, bucket, width) per bucket.
            charges = [(first, head, (ints[first + 1] << shift) - a),
                       (last, tail, b - (ints[last] << shift))]
            for name, (indices, prefix) in self._table.items():
                lo = bisect_left(indices, first + 1)
                hi = bisect_left(indices, last)
                if hi > lo:
                    charges.append((indices[lo], name,
                                    (prefix[hi] - prefix[lo]) << shift))
            segments = runs[first:last + 1]
            segments[0] = (started_at, runs[first][1], head)
            segments[-1] = (runs[last][0], finished_at, tail)

        # Buckets in order of first appearance, like attribute().
        sums: dict[str, int] = {}
        for _index, name, width in sorted(charges):
            sums[name] = sums.get(name, 0) + width
        scale = 1 << k
        attribution.buckets = {name: Fraction(width, scale)
                               for name, width in sums.items()}
        attribution.segments = segments
        return attribution


def attribute_query(trace: Trace, result) -> Attribution:
    """Attribution for a :class:`~repro.engine.QueryResult` window."""
    return attribute(trace, result.started_at, result.finished_at)
