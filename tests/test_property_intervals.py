"""Property tests: fast attribution paths == scalar reference.

The vectorized clip (:class:`repro.analysis.IntervalIndex`) claims
bit-identity with the scalar `_clip` path for every interval/window
shape — zero-width intervals, open (still-running) spans, edges that
land exactly on window boundaries, fully-contained and
fully-straddling spans.  :class:`repro.analysis.Timeline` claims that
any window of its one horizon sweep, summed in dyadic integers,
equals :func:`repro.analysis.attribute` over that window.  Hypothesis
drives both claims; the attributions must agree Fraction-exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import IntervalIndex, Timeline, attribute
from repro.analysis.critical_path import _clip
from repro.sim import EventKind, EventRing, Trace

# A coarse binary grid makes exact window-edge collisions common
# (0.125 steps are exact in binary floating point), while the float
# strategy exercises arbitrary unaligned reals.
_GRID = st.integers(min_value=-8, max_value=24).map(lambda i: i / 8)
_REAL = st.floats(min_value=-1.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
_POINT = st.one_of(_GRID, _REAL)

_BUCKETS = [("device:cpu", 0), ("storage:media", 1), ("nic:dma", 2),
            ("link:bus", 3), ("wait:wire", 4), ("wait:credit", 5)]


@st.composite
def _interval(draw):
    start = draw(_POINT)
    kind = draw(st.sampled_from(["closed", "zero", "open"]))
    if kind == "open":
        end = None                      # still-running span
    elif kind == "zero":
        end = start                     # zero-width interval
    else:
        end = start + abs(draw(_POINT))
    bucket, prio = draw(st.sampled_from(_BUCKETS))
    return (start, end, bucket, prio)


@st.composite
def _window(draw):
    q0 = draw(_POINT)
    width = draw(st.one_of(st.just(0.0), _GRID.map(abs), _REAL.map(abs)))
    return q0, q0 + width


@given(intervals=st.lists(_interval(), max_size=24),
       window=_window())
@settings(max_examples=300, deadline=None)
def test_vectorized_clip_matches_scalar_reference(intervals, window):
    q0, q1 = window
    assert IntervalIndex(intervals).clip(q0, q1) \
        == _clip(intervals, q0, q1)


@given(intervals=st.lists(_interval(), max_size=24),
       window=_window())
@settings(max_examples=200, deadline=None)
def test_attribution_identical_on_either_path(intervals, window):
    q0, q1 = window
    trace = Trace()
    via_index = attribute(trace, q0, q1,
                          intervals=IntervalIndex(intervals))
    via_list = attribute(trace, q0, q1, intervals=list(intervals))
    assert via_index.buckets == via_list.buckets  # Fraction-exact
    assert via_index.segments == via_list.segments
    if q1 > q0:
        width = Fraction(q1) - Fraction(q0)
        assert via_index.total == width  # tiles the window exactly


# Multiples of 2**-60 put boundaries and window edges far below the
# grid's 2**-3, so the timeline's common dyadic scale must grow to
# hold them (and a window edge may need a finer scale than any run
# boundary).
_TINY = st.integers(min_value=-4, max_value=4).map(lambda i: i * 2.0**-60)
_EDGE = st.one_of(_POINT, _TINY)
_MARGIN = st.one_of(st.just(0.0), _GRID.map(abs), _TINY.map(abs))
_TINY_INTERVAL = st.tuples(_TINY, st.one_of(_TINY, st.none()),
                           st.just("device:cpu"), st.just(0))


def _overflowed_trace() -> Trace:
    trace = Trace(events=EventRing(1))
    for flow in (1, 2):
        trace.emit(0.0, EventKind.CHUNK_EMIT, "chan", nbytes=8,
                   flow_id=flow)
    assert trace.events.dropped > 0
    return trace


@given(intervals=st.lists(st.one_of(_interval(), _TINY_INTERVAL),
                          max_size=24),
       edges=st.lists(st.tuples(_EDGE, _EDGE), min_size=1, max_size=4),
       margins=st.tuples(_MARGIN, _MARGIN),
       overflowed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_timeline_window_matches_scalar_attribute(intervals, edges,
                                                  margins, overflowed):
    trace = _overflowed_trace() if overflowed else Trace()
    windows = [(min(a, b), max(a, b)) for a, b in edges]
    start = min(q0 for q0, _q1 in windows) - margins[0]
    end = max(q1 for _q0, q1 in windows) + margins[1]
    timeline = Timeline(trace, start, end, intervals=intervals)
    for q0, q1 in windows + [(start, end)]:
        fast = timeline.window(q0, q1)
        slow = attribute(trace, q0, q1, intervals=list(intervals))
        assert fast.buckets == slow.buckets  # Fraction-exact
        assert list(fast.buckets) == list(slow.buckets)
        assert fast.segments == slow.segments
        assert fast.partial == slow.partial == overflowed
        assert fast.partial_reason == slow.partial_reason
    for q0, q1 in ((math.nextafter(start, -math.inf), end),
                   (start, math.nextafter(end, math.inf))):
        with pytest.raises(ValueError):
            timeline.window(q0, q1)


# -- pinned edge cases the strategy must never regress on ------------------

def test_zero_width_interval_contributes_nothing():
    intervals = [(0.5, 0.5, "device:cpu", 0)]
    assert IntervalIndex(intervals).clip(0.0, 1.0) == []
    assert _clip(intervals, 0.0, 1.0) == []


def test_exactly_aligned_edges_are_half_open():
    # A span ending exactly at q0 or starting exactly at q1 is out.
    intervals = [(0.0, 0.25, "device:cpu", 0),
                 (0.75, 1.0, "link:bus", 3)]
    for path in (IntervalIndex(intervals).clip,
                 lambda a, b: _clip(intervals, a, b)):
        assert path(0.25, 0.75) == []
        assert path(0.0, 0.25) == [(0.0, 0.25, "device:cpu", 0)]


def test_fully_contained_and_straddling_spans():
    contained = (0.4, 0.6, "device:cpu", 0)
    straddling = (0.0, 2.0, "storage:media", 1)
    open_span = (0.5, None, "nic:dma", 2)
    clipped = IntervalIndex(
        [contained, straddling, open_span]).clip(0.25, 0.75)
    assert clipped == [
        (0.4, 0.6, "device:cpu", 0),
        (0.25, 0.75, "storage:media", 1),
        (0.5, 0.75, "nic:dma", 2)]
    assert clipped == _clip([contained, straddling, open_span],
                            0.25, 0.75)


def test_timeline_window_finer_than_every_run_boundary():
    # The window edges need 2**-70; no interval boundary does.
    intervals = [(0.0, 0.5, "device:cpu", 0),
                 (0.25, 1.0, "link:bus", 3)]
    timeline = Timeline(Trace(), 0.0, 1.0, intervals=intervals)
    q0, q1 = 2.0**-70, 0.5 + 2.0**-50
    att = timeline.window(q0, q1)
    assert att.buckets == {"device:cpu": Fraction(1, 2) - Fraction(q0),
                           "link:bus": Fraction(2**-50)}
    assert att.buckets == attribute(Trace(), q0, q1,
                                    intervals=intervals).buckets
    assert att.exact
