"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    Event,
    Interrupted,
    SimulationError,
    Simulator,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_schedule_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(3.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield Timeout(2.5)
        yield Timeout(1.5)
        return sim.now

    assert sim.run_process(proc()) == 4.0


def test_timeout_returns_value():
    sim = Simulator()

    def proc():
        value = yield Timeout(1.0, value="hello")
        return value

    assert sim.run_process(proc()) == "hello"


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-0.1)


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    event = sim.event("e")
    results = []

    def waiter():
        value = yield event
        results.append((sim.now, value))

    sim.spawn(waiter(), "w")
    sim.schedule(7.0, lambda: event.succeed(42))
    sim.run()
    assert results == [(7.0, 42)]


def test_triggered_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("pre")

    def waiter():
        value = yield event
        return value

    assert sim.run_process(waiter()) == "pre"


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_wakes_all_waiters():
    sim = Simulator()
    event = sim.event()
    woken = []

    def waiter(tag):
        yield event
        woken.append(tag)

    for tag in range(3):
        sim.spawn(waiter(tag))
    sim.schedule(1.0, event.succeed)
    sim.run()
    assert sorted(woken) == [0, 1, 2]


def test_process_join_returns_child_result():
    sim = Simulator()

    def child():
        yield Timeout(3.0)
        return "done"

    def parent():
        proc = sim.spawn(child(), "child")
        result = yield proc
        return (sim.now, result)

    assert sim.run_process(parent()) == (3.0, "done")


def test_join_finished_process_resumes_immediately():
    sim = Simulator()

    def child():
        return 7
        yield  # pragma: no cover

    def parent():
        proc = sim.spawn(child())
        yield Timeout(10.0)
        result = yield proc
        return result

    assert sim.run_process(parent()) == 7


def test_yield_from_delegation():
    sim = Simulator()

    def inner():
        yield Timeout(2.0)
        return 5

    def outer():
        value = yield from inner()
        yield Timeout(1.0)
        return value * 2

    assert sim.run_process(outer()) == 10
    assert sim.now == 3.0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_unsupported_yield_raises_into_process():
    sim = Simulator()

    def proc():
        with pytest.raises(SimulationError):
            yield 12345
        return "survived"

    assert sim.run_process(proc()) == "survived"


def test_interrupt_waiting_process():
    sim = Simulator()
    event = sim.event()

    def victim():
        try:
            yield event
        except Interrupted as exc:
            return ("interrupted", exc.cause, sim.now)
        return "not interrupted"

    proc = sim.spawn(victim())
    sim.schedule(4.0, lambda: proc.interrupt("reason"))
    sim.run()
    assert proc.result == ("interrupted", "reason", 4.0)


def test_interrupt_done_process_is_noop():
    sim = Simulator()

    def quick():
        return 1
        yield  # pragma: no cover

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt()  # should not raise
    assert proc.result == 1


def test_start_runs_first_step_inside_the_callback():
    # A schedule() callback that starts a process: its first step runs at
    # the callback's place in the order, ahead of a process already
    # runnable at the same instant (spawn would queue it behind).
    sim = Simulator()
    order = []

    def worker(tag):
        order.append((tag, sim.now))
        yield 1.0
        order.append((tag + " resumed", sim.now))

    def callback():
        sim.spawn(worker("spawned"))
        assert sim.start(worker("started"), "started") is not None
        assert sim.current is None

    sim.schedule(2.0, callback)
    sim.run()
    assert order == [
        ("started", 2.0),
        ("spawned", 2.0),
        ("started resumed", 3.0),
        ("spawned resumed", 3.0),
    ]
    assert sim.events_processed == 4  # callback, spawn, two resumes


def test_start_without_a_yield_is_no_process():
    sim = Simulator()
    seen = []

    def quick():
        seen.append(sim.current)
        return 1
        yield  # pragma: no cover

    assert sim.start(quick(), "quick") is None
    assert seen[0] is not None and seen[0].name == "quick"
    assert sim.current is None
    assert sim.live_processes() == []


def test_started_process_waits_on_its_first_event():
    sim = Simulator()
    event = sim.event()

    def waiter():
        value = yield event
        return value, sim.now

    proc = sim.start(waiter(), "waiter")
    assert proc in sim.live_processes()
    assert proc in [p for p, _ in sim.blocked_processes()]
    sim.schedule(5.0, lambda: event.succeed("go"))
    sim.run()
    assert proc.result == ("go", 5.0)


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(True))
    sim.run(until=5.0)
    assert not fired
    assert sim.now == 5.0
    sim.run()
    assert fired


def test_run_until_in_the_past_is_rejected():
    """The clock never moves backwards, even on request."""
    sim = Simulator()
    sim.schedule(20.0, lambda: None)
    sim.run(until=12.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)
    assert sim.now == 12.0
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert sim.run() == 20.0


def test_infinite_timeout_is_accepted():
    sim = Simulator()

    def proc():
        yield Timeout(float("inf"))
        return sim.now

    assert sim.run_process(proc()) == float("inf")


def test_nan_timeout_and_delay_rejected():
    nan = float("nan")
    with pytest.raises(SimulationError):
        Timeout(nan)
    with pytest.raises(SimulationError):
        Simulator().schedule(nan, lambda: None)


def test_negative_or_nan_bare_float_yield_raises_into_process():
    """Rejected when yielded, even with a younger entry runnable at now."""
    sim = Simulator()
    gate = sim.event()
    seen = []

    def other():
        yield gate
        seen.append(("other", sim.now))

    def proc():
        yield 5.0
        gate.succeed()  # queues a younger immediate resume at t=5
        for bad in (-3.0, float("nan")):
            with pytest.raises(SimulationError):
                yield bad
        yield 1.0
        seen.append(("proc", sim.now))

    sim.spawn(other())
    sim.spawn(proc())
    sim.run()
    assert seen == [("other", 5.0), ("proc", 6.0)]


def test_run_process_detects_deadlock():
    sim = Simulator()
    event = sim.event()

    def stuck():
        yield event

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_stop_halts_run():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: (order.append("a"), sim.stop()))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == [("a", None)] or order == [(None,)] or len(order) == 1
    sim.run()
    assert len(order) == 2


def test_determinism_same_seeded_program():
    def program():
        sim = Simulator()
        log = []

        def worker(tag, delay):
            for _ in range(3):
                yield Timeout(delay)
                log.append((sim.now, tag))

        sim.spawn(worker("x", 1.5))
        sim.spawn(worker("y", 2.0))
        sim.run()
        return log

    assert program() == program()


def test_exception_in_process_propagates():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def worker(tag):
        yield Timeout(tag % 7 + 0.1)
        done.append(tag)

    for tag in range(200):
        sim.spawn(worker(tag))
    sim.run()
    assert len(done) == 200
