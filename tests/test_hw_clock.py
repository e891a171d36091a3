"""VirtualClock semantics: monotonicity, listeners, exact integration."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware import ClockError, VirtualClock


def test_clock_starts_at_zero_by_default():
    assert VirtualClock().now == 0.0


def test_clock_advances_and_returns_new_time():
    clk = VirtualClock()
    assert clk.advance(1.5) == 1.5
    assert clk.now == 1.5


def test_advance_to_absolute_time():
    clk = VirtualClock(start=2.0)
    clk.advance_to(5.0)
    assert clk.now == 5.0


def test_zero_advance_is_noop_and_skips_listeners():
    clk = VirtualClock()
    calls = []
    clk.subscribe(lambda a, b: calls.append((a, b)))
    clk.advance(0.0)
    assert calls == []


def test_negative_advance_rejected():
    clk = VirtualClock()
    with pytest.raises(ClockError):
        clk.advance(-0.1)


def test_advance_to_backwards_rejected():
    clk = VirtualClock(start=3.0)
    with pytest.raises(ClockError):
        clk.advance_to(1.0)


def test_listeners_receive_interval_endpoints():
    clk = VirtualClock()
    seen = []
    clk.subscribe(lambda t0, t1: seen.append((t0, t1)))
    clk.advance(1.0)
    clk.advance(0.5)
    assert seen == [(0.0, 1.0), (1.0, 1.5)]


def test_listener_fires_before_now_updates():
    clk = VirtualClock()
    observed = []
    clk.subscribe(lambda t0, t1: observed.append(clk.now))
    clk.advance(1.0)
    assert observed == [0.0]


def test_duplicate_subscription_rejected():
    clk = VirtualClock()
    fn = lambda a, b: None
    clk.subscribe(fn)
    with pytest.raises(ClockError):
        clk.subscribe(fn)


def test_unsubscribe_stops_callbacks():
    clk = VirtualClock()
    calls = []
    fn = lambda a, b: calls.append(1)
    clk.subscribe(fn)
    clk.advance(1.0)
    clk.unsubscribe(fn)
    clk.advance(1.0)
    assert len(calls) == 1


def test_unsubscribe_unknown_listener_raises():
    clk = VirtualClock()
    with pytest.raises(ClockError):
        clk.unsubscribe(lambda a, b: None)


def test_reentrant_advance_rejected():
    clk = VirtualClock()

    def reenter(t0, t1):
        clk.advance(1.0)

    clk.subscribe(reenter)
    with pytest.raises(ClockError):
        clk.advance(1.0)


def test_listener_unsubscribing_itself_mid_advance_still_sees_that_advance():
    clk = VirtualClock()
    calls = []

    def once(t0, t1):
        calls.append(("once", t1))
        clk.unsubscribe(once)

    clk.subscribe(once)
    clk.subscribe(lambda t0, t1: calls.append(("other", t1)))
    clk.advance(1.0)
    # Everyone subscribed when the advance began is notified, in order.
    assert calls == [("once", 1.0), ("other", 1.0)]
    clk.advance(1.0)
    assert calls[2:] == [("other", 2.0)]


def test_listener_unsubscribing_a_later_one_mid_advance():
    clk = VirtualClock()
    calls = []

    def later(t0, t1):
        calls.append(("later", t1))

    clk.subscribe(lambda t0, t1: clk.unsubscribe(later) if t1 == 1.0 else None)
    clk.subscribe(later)
    clk.advance(1.0)
    # The removal takes effect from the next advance, not this one.
    assert calls == [("later", 1.0)]
    clk.advance(1.0)
    assert calls == [("later", 1.0)]


def test_listener_subscribing_another_mid_advance_takes_effect_next_advance():
    clk = VirtualClock()
    calls = []

    def late(t0, t1):
        calls.append(("late", t1))

    def subscriber(t0, t1):
        calls.append(("subscriber", t1))
        if t1 == 1.0:
            clk.subscribe(late)

    clk.subscribe(subscriber)
    clk.advance(1.0)
    assert calls == [("subscriber", 1.0)]
    clk.advance(1.0)
    assert calls[1:] == [("subscriber", 2.0), ("late", 2.0)]


def test_reentrant_advance_still_rejected_after_resubscription():
    clk = VirtualClock()

    def reenter(t0, t1):
        clk.advance(1.0)

    clk.subscribe(reenter)
    clk.unsubscribe(reenter)
    clk.subscribe(reenter)
    with pytest.raises(ClockError):
        clk.advance(1.0)
    # The failed advance neither moved time nor wedged the clock.
    assert clk.now == 0.0
    clk.unsubscribe(reenter)
    assert clk.advance(1.0) == 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
def test_clock_is_monotone_under_any_advance_sequence(dts):
    clk = VirtualClock()
    last = clk.now
    for dt in dts:
        clk.advance(dt)
        assert clk.now >= last
        last = clk.now


@given(st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=30))
def test_listener_intervals_tile_the_timeline(dts):
    clk = VirtualClock()
    intervals = []
    clk.subscribe(lambda a, b: intervals.append((a, b)))
    for dt in dts:
        clk.advance(dt)
    # Intervals are contiguous and cover [0, now].
    assert intervals[0][0] == 0.0
    for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
        assert b0 == a1
    assert intervals[-1][1] == pytest.approx(clk.now)
