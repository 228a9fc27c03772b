"""Differential test: the two-queue engine against a one-heap reference.

``RefSim`` below is the scheduler the engine's ordering contract describes
and nothing more: one ``(time, seq)`` heap, one shared sequence counter,
and the engine's Event, join, interrupt and spawn semantics written out
plainly (a waiter list with removal instead of tombstones, no immediate
deque, no fused dispatch).  Hypothesis generates small process programs,
runs each through both schedulers and requires identical
``(now, process, step, outcome)`` traces.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.sim import Event, Interrupted, Simulator, Timeout


# -- the reference scheduler ------------------------------------------------


class RefProc:
    def __init__(self, gen, name):
        self.gen, self.name = gen, name
        self.done, self.result = False, None
        self.joiners = []
        self.waiting_on = None


class RefEvent:
    def __init__(self):
        self.triggered, self.value = False, None
        self.waiters = []


class RefSim:
    """One ``(time, seq)`` heap; every resume is an entry in it."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = itertools.count()

    def _push(self, time, item):
        heapq.heappush(self.heap, (time, next(self.seq), item))

    def _resume(self, proc, value=None, exc=None):
        self._push(self.now, (proc, value, exc))

    def _wake(self, proc, value):
        proc.waiting_on = None
        self._resume(proc, value)

    def spawn(self, gen, name):
        proc = RefProc(gen, name)
        self._resume(proc)
        return proc

    def schedule(self, delay, fn):
        self._push(self.now + delay, fn)

    def succeed(self, event, value):
        event.triggered, event.value = True, value
        waiters, event.waiters = event.waiters, []
        for proc in waiters:
            self._wake(proc, value)

    def interrupt(self, proc, cause):
        if proc.done:
            return
        if proc.waiting_on is not None:
            waiters = proc.waiting_on.waiters
            waiters[:] = [p for p in waiters if p is not proc]
            proc.waiting_on = None
        self._resume(proc, exc=Interrupted(cause))

    def run(self, until=None):
        while self.heap:
            time, _seq, item = self.heap[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self.heap)
            self.now = time
            if callable(item):
                item()
                continue
            proc, value, exc = item
            if proc.done:
                continue
            try:
                if exc is not None:
                    kind, arg = proc.gen.throw(exc)
                else:
                    kind, arg = proc.gen.send(value)
            except StopIteration as stop:
                proc.done, proc.result = True, stop.value
                joiners, proc.joiners = proc.joiners, []
                for joiner in joiners:
                    self._wake(joiner, stop.value)
                continue
            if kind == "delay":
                delay, value = arg
                self._push(self.now + delay, (proc, value, None))
            elif kind == "wait":
                proc.waiting_on = arg
                if arg.triggered:
                    self._wake(proc, arg.value)
                else:
                    arg.waiters.append(proc)
            elif arg.done:  # join
                self._wake(proc, arg.result)
            else:
                arg.joiners.append(proc)


# -- one program, two schedulers --------------------------------------------


class RealApi:
    def __init__(self, nevents):
        self.sim = Simulator()
        self.events = [Event(self.sim, f"e{i}") for i in range(nevents)]
        self.procs = []

    def now(self):
        return self.sim.now

    def timeout(self, delay, value):
        return Timeout(delay, value)

    def bare(self, delay):
        return delay

    def wait(self, index):
        return self.events[index]

    def join(self, index):
        return self.procs[index]

    def succeed(self, index, value):
        if not self.events[index].triggered:
            self.events[index].succeed(value)

    def interrupt(self, index, cause):
        self.procs[index].interrupt(cause)

    def spawn(self, gen, name):
        self.procs.append(self.sim.spawn(gen, name))

    def schedule(self, delay, fn):
        self.sim.schedule(delay, fn)

    def run(self, until):
        self.sim.run(until=until)


class RefApi:
    def __init__(self, nevents):
        self.sim = RefSim()
        self.events = [RefEvent() for _ in range(nevents)]
        self.procs = []

    def now(self):
        return self.sim.now

    def timeout(self, delay, value):
        return ("delay", (delay, value))

    def bare(self, delay):
        return ("delay", (delay, None))

    def wait(self, index):
        return ("wait", self.events[index])

    def join(self, index):
        return ("join", self.procs[index])

    def succeed(self, index, value):
        if not self.events[index].triggered:
            self.sim.succeed(self.events[index], value)

    def interrupt(self, index, cause):
        self.sim.interrupt(self.procs[index], cause)

    def spawn(self, gen, name):
        self.procs.append(self.sim.spawn(gen, name))

    def schedule(self, delay, fn):
        self.sim.schedule(delay, fn)

    def run(self, until):
        self.sim.run(until)


def _program(api, trace, name, ops, pool):
    """Interpret one op list as a process; log every resume."""
    trace.append((api.now(), name, "start"))
    for pc, (kind, arg) in enumerate(ops):
        label = f"{name}:{pc}"
        if kind in ("timeout", "bare", "wait", "join"):
            if kind == "timeout":
                request = api.timeout(arg, label)
            elif kind == "bare":
                request = api.bare(arg)
            elif kind == "wait":
                request = api.wait(arg)
            else:
                request = api.join(arg % len(api.procs))
            try:
                outcome = repr((yield request))
            except Interrupted as exc:
                outcome = f"interrupted by {exc.cause}"
            trace.append((api.now(), name, pc, outcome))
        elif kind == "succeed":
            api.succeed(arg, label)
        elif kind == "interrupt":
            api.interrupt(arg % len(api.procs), label)
        elif kind == "spawn":
            child = f"{name}.{pc}"
            api.spawn(_program(api, trace, child, pool[arg], pool[arg + 1:]), child)
        else:  # schedule: a callback that logs and fires an event
            delay, event = arg

            def callback(label=label, event=event):
                trace.append((api.now(), "callback", label))
                api.succeed(event, label)

            api.schedule(delay, callback)
    return name


def _execute(api, roots, pool, untils):
    trace = []
    for i, ops in enumerate(roots):
        api.spawn(_program(api, trace, f"p{i}", ops, pool), f"p{i}")
    for until in untils:
        api.run(until)
        trace.append(("run", until, api.now()))
    return trace


NEVENTS = 3
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5])


def _ops(depth):
    kinds = [
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("bare"), DELAYS),
        st.tuples(st.just("wait"), st.integers(0, NEVENTS - 1)),
        st.tuples(st.just("succeed"), st.integers(0, NEVENTS - 1)),
        st.tuples(st.just("join"), st.integers(0, 7)),
        st.tuples(st.just("interrupt"), st.integers(0, 7)),
        st.tuples(
            st.just("schedule"), st.tuples(DELAYS, st.integers(0, NEVENTS - 1))
        ),
    ]
    if depth:
        kinds.append(st.tuples(st.just("spawn"), st.integers(0, depth - 1)))
    return st.lists(st.one_of(kinds), max_size=8)


@st.composite
def programs(draw):
    # pool[k] may spawn only pool[k+1:] (passed down as its own pool), so
    # spawning always terminates.
    depth = 3
    pool = [draw(_ops(depth - k - 1)) for k in range(depth)]
    roots = draw(st.lists(_ops(depth), min_size=1, max_size=4))
    steps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), max_size=3))
    untils = list(itertools.accumulate(steps)) + [None]
    return roots, pool, untils


@settings(max_examples=200, deadline=None)
@given(program=programs())
def test_engine_matches_single_heap_reference(program):
    roots, pool, untils = program
    real = _execute(RealApi(NEVENTS), roots, pool, untils)
    ref = _execute(RefApi(NEVENTS), roots, pool, untils)
    assert real == ref
