"""Stateful property test of reliable VMMC under random fault plans.

Hypothesis drives two reliable channels out of node 0 (to nodes 1 and 2)
with interleaved sync and async sends and clock advances, over a fault
plan of its choosing: drops, corruption, node stalls and link outages
(some permanent).  A quarter of the plans are fragile: no retries, a
short timeout, heavy corruption and two back-to-back 4-page async sends
per channel, so a channel fails while a send is still issuing packets.
After every step:

* the receiver has accepted a prefix of each channel's packets, and its
  buffer accounts for exactly that prefix: each accepted byte counted
  once, each fully accepted message counted once, and the bytes in the
  buffer are the bytes that were sent;
* the sender's cumulative ack never runs ahead of what was accepted, and
  a send that returned was fully delivered.

At the end every channel drains within a bounded virtual time, and a
channel that lost a message raised ``DeliveryFailed`` to its sender.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Machine
from repro.faults import FaultConfig, FaultPlan
from repro.sim import Queue
from repro.vmmc import DeliveryFailed, ReliableConfig, VMMCRuntime

PAGE = 4096
#: Every message starts on a fresh page of its channel's buffer, so the
#: buffer holds every message ever sent, side by side.
MAX_PAGES = 40
DESTINATIONS = (1, 2)
#: Virtual time allowed for the final drain: the worst plan below (every
#: remaining message exhausting 4 retries at 500us x 2.5**k) needs under
#: a tenth of it.
DRAIN_BOUND_US = 20_000_000.0


class _Channel:
    """One reliable channel: its sender's command queue and its records."""

    def __init__(self, dst: int):
        self.dst = dst
        self.channel = None
        self.buffer = None
        self.receiver = None
        self.commands = None
        self.src = None
        self.pages_used = 0
        #: (first_seq, last_seq, dst_offset, nbytes) per issued message.
        self.messages = []
        #: Indexes into ``messages`` of sync sends that returned, and of
        #: sends that raised (plus ``"drain"`` if the final drain did).
        self.completed = set()
        self.failed = set()
        self.drained = False
        self.proc = None


class ReliableVMMC(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**16),
        fragile=st.integers(0, 3),
        drop_rate=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
        corrupt_rate=st.sampled_from([0.0, 0.05, 0.2]),
        node_stalls=st.integers(0, 3),
        outages=st.lists(
            st.tuples(
                st.sampled_from([(0, 1), (1, 0), (1, 2), (2, 1)]),
                st.floats(0.0, 20_000.0),
                st.one_of(st.just(float("inf")), st.floats(10.0, 5000.0)),
            ),
            max_size=2,
        ),
        timeout_us=st.floats(30.0, 500.0),
        backoff=st.floats(1.0, 2.5),
        max_retries=st.integers(0, 4),
    )
    def build(
        self,
        seed,
        fragile,
        drop_rate,
        corrupt_rate,
        node_stalls,
        outages,
        timeout_us,
        backoff,
        max_retries,
    ):
        if fragile == 0:
            # A quarter of the draws fail a channel while a send is still
            # issuing packets: any corrupt packet is fatal, and the timer
            # of one async send fires while the next is issuing.
            corrupt_rate, timeout_us, max_retries = 0.2, 30.0, 0
        self.machine = Machine(num_nodes=4, seed=seed)
        plan = FaultPlan(
            FaultConfig(
                drop_rate=drop_rate,
                corrupt_rate=corrupt_rate,
                node_stalls=node_stalls,
                horizon_us=20_000.0,
            ),
            seed,
        )
        self.machine.install_fault_plan(plan)
        for link, start, duration in outages:
            windows = plan.outages.setdefault(link, [])
            windows.append((start, start + duration))
            windows.sort()
        config = ReliableConfig(
            timeout_us=timeout_us, backoff=backoff, max_retries=max_retries
        )
        self.sim = self.machine.sim
        self.vmmc = VMMCRuntime(self.machine)
        sender = self.vmmc.endpoint(self.machine.create_process(0))
        self.channels = [_Channel(dst) for dst in DESTINATIONS]
        for index, state in enumerate(self.channels):
            state.receiver = self.vmmc.endpoint(self.machine.create_process(state.dst))
            state.commands = Queue(self.sim, f"commands{index}")
            self.sim.spawn(self._export(state, index), f"rx{index}")
            state.proc = self.sim.spawn(
                self._sender(sender, state, index, config), f"tx{index}"
            )
        self.sim.run()  # export, import and open; the senders then idle
        if fragile == 0:
            for which in range(len(DESTINATIONS)):
                for _ in range(2):
                    self.send(which, 4 * PAGE, False)

    def _export(self, state, index):
        state.buffer = yield from state.receiver.export(
            MAX_PAGES * PAGE, name=f"chan{index}"
        )

    def _sender(self, endpoint, state, index, config):
        imported = yield from endpoint.import_buffer(f"chan{index}")
        state.channel = endpoint.open_reliable(imported, config)
        state.src = endpoint.alloc(MAX_PAGES * PAGE)
        # Distinct bytes per channel and page, so misplaced or foreign data
        # cannot pass for the real thing.
        cycle = bytes(range(251)) * (PAGE // 251 + 2)
        endpoint.poke(
            state.src,
            b"".join(
                cycle[(index * 89 + page * 7) % 251 :][:PAGE]
                for page in range(MAX_PAGES)
            ),
        )
        while True:
            command = yield from state.commands.get()
            if command is None:
                break
            message, sync = command
            first, _last, offset, nbytes = state.messages[message]
            try:
                yield from state.channel.send(
                    state.src + offset, nbytes, offset, sync=sync
                )
            except DeliveryFailed:
                state.failed.add(message)
            else:
                if sync:
                    state.completed.add(message)
        try:
            yield from state.channel.drain()
        except DeliveryFailed:
            state.failed.add("drain")
        state.drained = True

    # -- rules --------------------------------------------------------------

    @precondition(lambda self: any(s.pages_used < MAX_PAGES for s in self.channels))
    @rule(
        which=st.integers(0, len(DESTINATIONS) - 1),
        nbytes=st.integers(1, 3 * PAGE),
        sync=st.booleans(),
    )
    def send(self, which, nbytes, sync):
        state = self.channels[which]
        pages = -(-nbytes // PAGE)
        if state.pages_used + pages > MAX_PAGES:
            return
        # Sequence numbers this message will take, if its channel is still
        # alive when the sender reaches it.
        first = state.messages[-1][1] + 1 if state.messages else 1
        offset = state.pages_used * PAGE
        state.messages.append((first, first + pages - 1, offset, nbytes))
        state.pages_used += pages
        state.commands.put((len(state.messages) - 1, sync))

    @rule(dt=st.one_of(st.floats(0.0, 3000.0), st.sampled_from([100.0, 400.0])))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    # -- invariants ---------------------------------------------------------

    def _accepted(self, state) -> int:
        """Packets of the channel the receiver accepted (a prefix)."""
        rx = self.vmmc._node_state[state.dst].reliable_rx.get(
            state.channel.channel_id
        )
        return 0 if rx is None else rx.expected - 1

    @invariant()
    def receiver_accounts_for_exactly_the_accepted_prefix(self):
        for state in self.channels:
            if state.channel is None:
                continue
            accepted = self._accepted(state)
            channel = state.channel
            assert channel.acked <= accepted <= channel.last_seq
            expect_bytes = expect_messages = 0
            for first, last, offset, nbytes in state.messages:
                if accepted >= last:
                    expect_messages += 1
                    expect_bytes += nbytes
                    got = state.receiver.read_buffer(state.buffer, offset, nbytes)
                    assert got == self._sent(state, offset, nbytes)
                elif accepted >= first:
                    expect_bytes += (accepted - first + 1) * PAGE
            assert state.buffer.bytes_received == expect_bytes
            assert state.buffer.messages_received == expect_messages

    @invariant()
    def a_returned_send_was_delivered(self):
        for state in self.channels:
            if state.channel is None:
                continue
            accepted = self._accepted(state)
            for message in state.completed:
                assert accepted >= state.messages[message][1]

    def _sent(self, state, offset, nbytes) -> bytes:
        endpoint = state.channel.endpoint
        return endpoint.space.read(state.src + offset, nbytes)

    def teardown(self):
        if not hasattr(self, "sim"):
            return
        for state in self.channels:
            state.commands.put(None)
        start = self.sim.now
        self.sim.run(until=start + DRAIN_BOUND_US)
        # Drained inside the bound: nothing left to run, every sender done.
        assert not self.sim._queue and not self.sim._immediate
        for state in self.channels:
            assert state.drained and state.proc.done
            channel = state.channel
            accepted = self._accepted(state)
            undelivered = [m for m in state.messages if accepted < m[1]]
            if channel.failed:
                # Never silent: if anything did not arrive, a send or the
                # final drain raised.  (A late ack can still complete what
                # was in flight when the channel failed.)
                assert state.failed or not undelivered
                # Failing cleared the unacked set, and no send refilled it.
                assert channel.in_flight == 0
            else:
                assert not state.failed and not undelivered
                assert channel.acked == accepted == channel.last_seq
                assert channel.last_seq == (
                    state.messages[-1][1] if state.messages else 0
                )
        self.receiver_accounts_for_exactly_the_accepted_prefix()


ReliableVMMC.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestReliableVMMC = ReliableVMMC.TestCase
