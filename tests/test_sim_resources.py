"""Unit tests for resources, queues and signals."""

import pytest

from repro.sim import (
    Interrupted,
    Queue,
    Resource,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_uncontended_acquire_is_instant():
    sim = Simulator()
    res = Resource(sim)

    def proc():
        yield from res.acquire()
        t = sim.now
        res.release()
        return t

    assert sim.run_process(proc()) == 0.0


def test_contended_acquires_grant_fifo():
    sim = Simulator()
    res = Resource(sim)
    grants = []

    def holder():
        yield from res.acquire()
        yield Timeout(10.0)
        res.release()

    def waiter(tag, arrive):
        yield Timeout(arrive)
        yield from res.acquire()
        grants.append((tag, sim.now))
        yield Timeout(1.0)
        res.release()

    sim.spawn(holder())
    sim.spawn(waiter("late", 2.0))
    sim.spawn(waiter("later", 3.0))
    sim.run()
    assert grants == [("late", 10.0), ("later", 11.0)]


def test_capacity_two_allows_two_holders():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    times = []

    def worker():
        yield from res.acquire()
        times.append(sim.now)
        yield Timeout(5.0)
        res.release()

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    assert times == [0.0, 0.0, 5.0]


def test_try_acquire():
    sim = Simulator()
    res = Resource(sim)
    assert res.try_acquire()
    assert not res.try_acquire()
    res.release()
    assert res.try_acquire()


def test_release_idle_resource_rejected():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_utilization_tracking():
    sim = Simulator()
    res = Resource(sim)

    def worker():
        yield from res.acquire()
        yield Timeout(4.0)
        res.release()
        yield Timeout(6.0)

    sim.run_process(worker())
    assert res.utilization(10.0) == pytest.approx(0.4)


def test_queue_put_then_get():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("x")

    def getter():
        item = yield from queue.get()
        return item

    assert sim.run_process(getter()) == "x"


def test_queue_get_blocks_until_put():
    sim = Simulator()
    queue = Queue(sim)

    def getter():
        item = yield from queue.get()
        return (item, sim.now)

    proc = sim.spawn(getter())
    sim.schedule(3.0, lambda: queue.put("late"))
    sim.run()
    assert proc.result == ("late", 3.0)


def test_queue_fifo_order():
    sim = Simulator()
    queue = Queue(sim)
    for i in range(5):
        queue.put(i)
    out = []

    def getter():
        for _ in range(5):
            item = yield from queue.get()
            out.append(item)

    sim.run_process(getter())
    assert out == [0, 1, 2, 3, 4]


def test_queue_try_get_and_peek():
    sim = Simulator()
    queue = Queue(sim)
    assert queue.try_get() is None
    assert queue.peek() is None
    queue.put(1)
    queue.put(2)
    assert queue.peek() == 1
    assert queue.try_get() == 1
    assert len(queue) == 1


def test_queue_multiple_getters_fifo():
    sim = Simulator()
    queue = Queue(sim)
    got = []

    def getter(tag):
        item = yield from queue.get()
        got.append((tag, item))

    sim.spawn(getter("a"))
    sim.spawn(getter("b"))
    sim.schedule(1.0, lambda: queue.put("first"))
    sim.schedule(2.0, lambda: queue.put("second"))
    sim.run()
    assert got == [("a", "first"), ("b", "second")]


def test_signal_wakes_all_current_waiters():
    sim = Simulator()
    signal = Signal(sim)
    woken = []

    def waiter(tag):
        value = yield from signal.wait()
        woken.append((tag, value))

    sim.spawn(waiter(1))
    sim.spawn(waiter(2))
    sim.schedule(1.0, lambda: signal.fire("v"))
    sim.run()
    assert sorted(woken) == [(1, "v"), (2, "v")]


def test_signal_is_reusable():
    sim = Simulator()
    signal = Signal(sim)
    values = []

    def waiter():
        for _ in range(3):
            value = yield from signal.wait()
            values.append(value)

    sim.spawn(waiter())
    for i, t in enumerate((1.0, 2.0, 3.0)):
        sim.schedule(t, lambda v=i: signal.fire(v))
    sim.run()
    assert values == [0, 1, 2]
    assert signal.fire_count == 3


def test_signal_fire_without_waiters_is_fine():
    sim = Simulator()
    signal = Signal(sim)
    signal.fire()
    woken = []

    def late_waiter():
        value = yield from signal.wait()
        woken.append(value)

    sim.spawn(late_waiter())
    sim.schedule(1.0, lambda: signal.fire("later"))
    sim.run()
    assert woken == ["later"]


# -- interrupted waiters -------------------------------------------------
# A waiter interrupted while queued on a Resource or Queue gate must not
# take the unit or item with it: either its gate is withdrawn (interrupt
# before the grant) or the grant it already received in the same instant is
# passed on (interrupt, then grant, before the waiter runs again).


def _interruptible(wait, outcome, tag):
    try:
        value = yield from wait()
    except Interrupted as exc:
        outcome[tag] = exc.cause
        return
    outcome[tag] = value


def test_interrupted_resource_waiter_does_not_leak_the_unit():
    sim = Simulator()
    res = Resource(sim, name="bus")
    outcome = {}

    def holder():
        yield from res.acquire()
        yield Timeout(10.0)
        res.release()

    sim.spawn(holder(), "holder")
    victim = sim.spawn(_interruptible(res.acquire, outcome, "victim"), "victim")
    sim.schedule(1.0, lambda: victim.interrupt("bored"))
    sim.run()
    assert outcome == {"victim": "bored"}
    # The release found no waiter: the resource is idle, not held by the
    # dead gate.
    assert res.in_use == 0
    assert res.queue_length == 0
    assert res.try_acquire()


def test_unit_granted_to_an_interrupted_waiter_passes_to_the_next():
    sim = Simulator()
    res = Resource(sim, name="bus")
    outcome = {}
    grants = []

    def holder():
        yield from res.acquire()
        yield Timeout(10.0)
        # Interrupt first, then grant, in one step: the unit reaches the
        # victim's gate although the victim will only ever see the throw.
        victim.interrupt("late")
        res.release()

    def next_in_line():
        yield from res.acquire()
        grants.append(sim.now)
        res.release()

    sim.spawn(holder(), "holder")
    victim = sim.spawn(_interruptible(res.acquire, outcome, "victim"), "victim")
    sim.spawn(next_in_line(), "next")
    sim.run()
    assert outcome == {"victim": "late"}
    assert grants == [10.0]
    assert res.in_use == 0 and res.queue_length == 0


def test_interrupted_queue_getter_does_not_swallow_an_item():
    sim = Simulator()
    queue = Queue(sim, "mailbox")
    outcome = {}
    got = []

    victim = sim.spawn(_interruptible(queue.get, outcome, "victim"), "victim")
    sim.schedule(1.0, lambda: victim.interrupt("bored"))
    sim.schedule(2.0, lambda: queue.put("mail"))
    sim.run()
    assert outcome == {"victim": "bored"}
    assert len(queue) == 1

    def later_getter():
        got.append((yield from queue.get()))

    sim.run_process(later_getter())
    assert got == ["mail"]


def test_item_granted_to_an_interrupted_getter_passes_to_the_next():
    sim = Simulator()
    queue = Queue(sim, "mailbox")
    outcome = {}
    got = []

    def getter(tag):
        got.append((tag, (yield from queue.get())))

    def producer():
        yield Timeout(1.0)
        victim.interrupt("late")
        queue.put("first")

    victim = sim.spawn(_interruptible(queue.get, outcome, "victim"), "victim")
    sim.spawn(getter("next"), "next")
    sim.spawn(producer(), "producer")
    sim.run()
    assert outcome == {"victim": "late"}
    # "first" went to the victim's gate, then on to the next getter.
    assert got == [("next", "first")]
    assert len(queue) == 0


def test_item_granted_to_an_interrupted_sole_getter_returns_to_the_head():
    sim = Simulator()
    queue = Queue(sim, "mailbox")
    outcome = {}

    def producer():
        yield Timeout(1.0)
        victim.interrupt("late")
        queue.put("first")
        queue.put("second")

    victim = sim.spawn(_interruptible(queue.get, outcome, "victim"), "victim")
    sim.spawn(producer(), "producer")
    sim.run()
    assert outcome == {"victim": "late"}
    assert [queue.try_get(), queue.try_get()] == ["first", "second"]
