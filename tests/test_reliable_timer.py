"""The reliable-VMMC retransmit timer against the process it replaced.

The timer is one ``schedule()`` deadline per channel (DESIGN.md
section 8); it used to be a ``rel{N}.timer`` process spawned per send and
interrupted by the ack that drained the channel.  That channel is kept
here as an oracle: random programs of sync and async sends over random
fault plans (drops, corruption, link outages, node stalls, a crash) run
once on each, and must agree on the clock, every counter, every
channel's retransmissions and acks, every ``DeliveryFailed`` and the
bytes that landed.  The dispatch count must differ by exactly what the
process cost (``ProcessTimerChannel.dispatch_surplus``).

One difference is by design.  When a send refills a channel in the very
instant an ack drained it, the deadline timer restarts at the refill.
The process restarted only if the refill ran before its interrupt was
delivered (as a sync sender woken by that ack does); otherwise it
started after the refilling send, so a send slower than the timeout got
no round until it returned.  Such runs are only checked to drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.faults import FaultConfig, FaultPlan
from repro.hardware import Protection
from repro.nic import TransferRequest
from repro.sim import Interrupted, Signal, Timeout
from repro.vmmc import DeliveryFailed, ReliableConfig, VMMCRuntime
from repro.vmmc import reliable as reliable_module
from repro.vmmc.errors import VMMCError

# -- the oracle: the process-timer channel ----------------------------------

_PacketSpec = Tuple[int, int, int, int, int, bool]


class ProcessTimerChannel:
    """The reliable channel with its original retransmit-timer process.

    Verbatim but for the tallies (``dispatch_surplus``, ``late_refills``
    and the state behind them) that account for how it differs from the
    deadline timer, and for the real channel's later mid-send failure
    check in :meth:`send`.
    """

    def __init__(self, endpoint, imported, config: Optional[ReliableConfig] = None):
        self.endpoint = endpoint
        self.imported = imported
        self.config = config or ReliableConfig()
        # Same run-scoped id sequence as the real channel.
        self.channel_id = next(reliable_module._channel_ids)
        self.sim = endpoint.sim
        self.stats = endpoint.stats
        self.last_seq = 0
        self.acked = 0
        self._unacked: Dict[int, _PacketSpec] = {}
        self._issue_spans: Dict[int, int] = {}
        self._ack_signal = Signal(self.sim, f"rel{self.channel_id}.ack")
        self._progress_at = 0.0
        self._retries = 0
        self._timer = None
        self._timer_sleeping = False
        self._failure: Optional[DeliveryFailed] = None
        self.retransmissions = 0
        #: Dispatches this timer costs beyond the deadline timer: one per
        #: spawn and one per interrupt, less one per timer whose first step
        #: did not sleep (the deadline timer arms at once instead), and
        #: less one per timer that was drained and refilled before its
        #: first step (the deadline timer arms twice).
        self.dispatch_surplus = 0
        #: Refills in the instant of a drain that came after the timer's
        #: interrupt was delivered (see test docstring).
        self.late_refills = 0
        self._stepped = False
        self._drained_unstepped = False
        self._drain_at = None
        endpoint.runtime._register_reliable_sender(self)

    @property
    def failed(self) -> bool:
        return self._failure is not None

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

    def send(self, src_vaddr, nbytes, dst_offset=0, sync=True) -> Generator:
        if self._failure is not None:
            raise self._failure
        if not self.imported.valid:
            raise VMMCError("send on an invalidated import")
        if nbytes <= 0:
            raise VMMCError("send of zero bytes")
        if dst_offset + nbytes > self.imported.nbytes:
            raise VMMCError("send overruns the remote buffer")
        endpoint = self.endpoint
        node = endpoint.node
        self.stats.count("vmmc.messages_sent")
        self.stats.count("vmmc.reliable.sends")
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "vmmc.send",
                endpoint.node_id,
                "vmmc",
                bytes=nbytes,
                dst=self.imported.remote_node,
                channel=self.channel_id,
                reliable=True,
            )
        if not node.nic.config.user_level_dma:
            yield from node.kernel.syscall("communication")
        page_size = endpoint.params.page_size
        sent = 0
        specs: List[Tuple[int, _PacketSpec]] = []
        while sent < nbytes:
            src = src_vaddr + sent
            dst = dst_offset + sent
            chunk = min(
                nbytes - sent,
                page_size - (src % page_size),
                page_size - (dst % page_size),
            )
            src_phys = endpoint.space.translate(src, Protection.READ)
            remote_page, remote_off = divmod(dst, page_size)
            proxy = node.nic.opt.proxy_lookup(self.imported.proxy_ids[remote_page])
            is_last = sent + chunk >= nbytes
            specs.append(
                (
                    self.last_seq + len(specs) + 1,
                    (
                        src_phys,
                        chunk,
                        proxy.dst_node,
                        proxy.dst_frame,
                        remote_off,
                        is_last,
                    ),
                )
            )
            sent += chunk
        try:
            for seq, spec in specs:
                if self._failure is not None:
                    # Failed while this send was issuing: the real
                    # channel's fix for the failed-channel leak, kept here
                    # so that the two differ only in their timers.
                    raise self._failure
                if not self._unacked:
                    if self.sim.now == self._drain_at and self._timer is None:
                        self.late_refills += 1
                    self._progress_at = self.sim.now
                self.last_seq = seq
                self._unacked[seq] = spec
                if span is not None:
                    self._issue_spans[seq] = span
                self.stats.count("vmmc.reliable.packets")
                yield from self.endpoint.node.cpu.busy(
                    endpoint.params.udma_init_us, "communication"
                )
                yield from node.nic.initiate_du(self._request_for(seq, spec))
            self._ensure_timer()
            if sync:
                yield from self.wait_acked(self.last_seq)
        finally:
            if tel is not None:
                tel.end(span, acked=self.acked)

    def drain(self) -> Generator:
        yield from self.wait_acked(self.last_seq)

    def wait_acked(self, seq: int) -> Generator:
        while self.acked < seq:
            if self._failure is not None:
                raise self._failure
            yield from self._ack_signal.wait()
        if self._failure is not None and self.acked < seq:
            raise self._failure

    def _request_for(self, seq: int, spec: _PacketSpec) -> TransferRequest:
        src_phys, chunk, dst_node, dst_frame, dst_off, is_last = spec
        return TransferRequest(
            src_phys=src_phys,
            nbytes=chunk,
            dst_node=dst_node,
            dst_frame=dst_frame,
            dst_offset=dst_off,
            last_of_message=is_last,
            channel=self.channel_id,
            seq=seq,
            span=self._issue_spans.get(seq),
        )

    def _on_ack(self, ackno: int) -> None:
        self.stats.count("vmmc.acks_received")
        if ackno <= self.acked:
            return
        self.acked = ackno
        for seq in [s for s in self._unacked if s <= ackno]:
            del self._unacked[seq]
            self._issue_spans.pop(seq, None)
        self._retries = 0
        self._progress_at = self.sim.now
        self._ack_signal.fire()
        if not self._unacked and self._timer is not None:
            if self._timer_sleeping or not self._stepped:
                self._drain_at = self.sim.now
            if not self._stepped:
                self._drained_unstepped = True
        if not self._unacked and self._timer is not None and self._timer_sleeping:
            self.dispatch_surplus += 1
            self._timer.interrupt("drained")

    def _ensure_timer(self) -> None:
        if self._timer is None and self._unacked and self._failure is None:
            self.dispatch_surplus += 1
            self._stepped = False
            self._drained_unstepped = False
            self._timer = self.sim.spawn(
                self._retransmit_timer(), f"rel{self.channel_id}.timer"
            )

    def _retransmit_timer(self) -> Generator:
        node = self.endpoint.node
        self._stepped = True
        first_step = True
        try:
            while self._unacked and self._failure is None:
                deadline = self._progress_at + self.config.timeout_us * (
                    self.config.backoff ** self._retries
                )
                if self.sim.now < deadline:
                    if first_step and self._drained_unstepped:
                        self.dispatch_surplus -= 1
                    first_step = False
                    self._timer_sleeping = True
                    try:
                        yield Timeout(deadline - self.sim.now)
                    finally:
                        self._timer_sleeping = False
                    continue
                if first_step:
                    self.dispatch_surplus -= 1
                first_step = False
                if self._retries >= self.config.max_retries:
                    self._fail()
                    return
                self._retries += 1
                self._progress_at = self.sim.now
                self.stats.count("vmmc.retx.rounds")
                monitor = self.sim.monitor
                if monitor is not None:
                    monitor.note_retx_round(self)
                for seq in sorted(self._unacked):
                    if seq <= self.acked:
                        continue
                    spec = self._unacked.get(seq)
                    if spec is None:
                        continue
                    self.retransmissions += 1
                    self.stats.count("vmmc.retx.packets")
                    self.stats.trace(
                        "vmmc.retx",
                        node.node_id,
                        f"ch{self.channel_id} seq{seq} round{self._retries}",
                    )
                    tel = self.stats.telemetry
                    if tel is not None:
                        tel.instant(
                            "vmmc.retx",
                            node.node_id,
                            "vmmc",
                            parent=self._issue_spans.get(seq),
                            channel=self.channel_id,
                            seq=seq,
                            round=self._retries,
                        )
                    yield from node.nic.initiate_du(self._request_for(seq, spec))
        except Interrupted:
            pass
        finally:
            if first_step:
                self.dispatch_surplus -= 1
            self._timer = None
            self._ensure_timer()

    def _fail(self) -> None:
        first = min(self._unacked) if self._unacked else self.last_seq
        self._failure = DeliveryFailed(
            f"channel {self.channel_id} to node {self.imported.remote_node}: "
            f"seq {first} unacknowledged after {self._retries} retransmission "
            "rounds",
            channel=self.channel_id,
            first_unacked=first,
            retries=self._retries,
        )
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.note_delivery_failed(self, self._failure)
        self._unacked.clear()
        self.stats.count("vmmc.delivery_failures")
        self.stats.trace(
            "vmmc.retx",
            self.endpoint.node.node_id,
            f"ch{self.channel_id} FAILED at seq{first}",
        )
        self._ack_signal.fire()


# -- random programs ---------------------------------------------------------

NODES = 4
BUFFER = 3 * 4096
#: Generous virtual-time bound: the worst program below needs well under
#: a tenth of it (every message exhausting 5 retries at 600us x 3**k).
HORIZON_US = 50_000_000.0

#: Round instants and delays as well as arbitrary floats, so same-instant
#: ties between deadlines and program events get exercised.
_times = st.one_of(
    st.sampled_from([0.0, 50.0, 100.0, 200.0, 400.0, 800.0]),
    st.floats(0.0, 1500.0, allow_nan=False),
)


@dataclass(frozen=True)
class Message:
    think_us: float
    nbytes: int
    src_offset: int
    dst_offset: int
    sync: bool


@dataclass(frozen=True)
class Flow:
    src: int
    dst: int
    messages: Tuple[Message, ...]


@st.composite
def messages(draw):
    nbytes = draw(st.integers(1, 2 * 4096 + 100))
    return Message(
        think_us=draw(_times),
        nbytes=nbytes,
        src_offset=draw(st.integers(0, BUFFER - nbytes)),
        dst_offset=draw(st.integers(0, BUFFER - nbytes)),
        sync=draw(st.booleans()),
    )


@st.composite
def flows(draw):
    src = draw(st.integers(0, NODES - 1))
    dst = draw(st.integers(0, NODES - 2))
    if dst >= src:
        dst += 1
    return Flow(src, dst, tuple(draw(st.lists(messages(), min_size=1, max_size=4))))


@dataclass(frozen=True)
class Scenario:
    seed: int
    drop_rate: float
    corrupt_rate: float
    node_stalls: int
    #: (link index, start, duration or inf) for each pinned outage window.
    outages: Tuple[Tuple[int, float, float], ...]
    crash: Optional[Tuple[int, float]]
    config: ReliableConfig
    flows: Tuple[Flow, ...]
    monitor: bool


@st.composite
def scenarios(draw):
    drop = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    corrupt = draw(st.sampled_from([0.0, 0.05, 0.2]))
    return Scenario(
        seed=draw(st.integers(0, 2**16)),
        drop_rate=drop,
        corrupt_rate=corrupt,
        node_stalls=draw(st.integers(0, 2)),
        outages=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 5),
                        _times,
                        st.one_of(st.just(float("inf")), st.floats(10.0, 3000.0)),
                    ),
                    max_size=2,
                )
            )
        ),
        crash=draw(st.one_of(st.none(), st.tuples(st.integers(0, NODES - 1), _times))),
        config=ReliableConfig(
            timeout_us=draw(
                st.one_of(st.sampled_from([50.0, 200.0, 400.0]), st.floats(20.0, 600.0))
            ),
            backoff=draw(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 3.0))),
            max_retries=draw(st.integers(0, 5)),
        ),
        flows=tuple(draw(st.lists(flows(), min_size=1, max_size=3))),
        monitor=draw(st.booleans()),
    )


def run_scenario(scenario: Scenario, oracle: bool) -> Tuple[dict, int]:
    """Run ``scenario`` on the real channel or the process-timer oracle;
    returns the outcome and the dispatch count."""
    machine = Machine(num_nodes=NODES, seed=scenario.seed)
    if scenario.monitor:
        machine.enable_monitor()
    plan = FaultPlan(
        FaultConfig(
            drop_rate=scenario.drop_rate,
            corrupt_rate=scenario.corrupt_rate,
            node_stalls=scenario.node_stalls,
            horizon_us=5000.0,
            crash_times=(scenario.crash,) if scenario.crash else (),
        ),
        scenario.seed,
    )
    machine.install_fault_plan(plan)
    # The row of the mesh the four nodes sit on, both directions.
    links = sorted(
        link for link in machine.backplane.topology.links() if max(link) < NODES
    )
    for index, start, duration in scenario.outages:
        windows = plan.outages.setdefault(links[index], [])
        windows.append((start, start + duration))
        windows.sort()
    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    buffers: Dict[int, object] = {}
    receivers: Dict[int, object] = {}
    channels: List[object] = []
    failures: List[tuple] = []
    senders = []

    def export(index, endpoint):
        buffers[index] = yield from endpoint.export(BUFFER, name=f"flow{index}")

    def send(index, endpoint, flow):
        imported = yield from endpoint.import_buffer(f"flow{index}")
        if oracle:
            channel = ProcessTimerChannel(endpoint, imported, scenario.config)
            endpoint.stats.count("vmmc.reliable.channels")
        else:
            channel = endpoint.open_reliable(imported, scenario.config)
        channels.append(channel)
        src = endpoint.alloc(BUFFER)
        endpoint.poke(src, bytes((index * 31 + i) % 251 for i in range(BUFFER)))
        for message in flow.messages:
            if message.think_us:
                yield message.think_us
            try:
                yield from channel.send(
                    src + message.src_offset,
                    message.nbytes,
                    message.dst_offset,
                    sync=message.sync,
                )
            except DeliveryFailed as exc:
                failures.append((index, exc.channel, exc.first_unacked, exc.retries, str(exc)))
        try:
            yield from channel.drain()
        except DeliveryFailed as exc:
            failures.append((index, "drain", exc.first_unacked, exc.retries, str(exc)))

    for index, flow in enumerate(scenario.flows):
        receivers[index] = vmmc.endpoint(machine.create_process(flow.dst))
        sim.spawn(export(index, receivers[index]), f"rx{index}")
        endpoint = vmmc.endpoint(machine.create_process(flow.src))
        senders.append(sim.spawn(send(index, endpoint, flow), f"tx{index}"))
    sim.run(until=HORIZON_US)
    outcome = {
        "now": sim.now,
        "drained": not sim._queue and not sim._immediate,
        "senders_done": [proc.done for proc in senders],
        "stats": machine.stats.snapshot(),
        "channels": [
            (c.channel_id, c.retransmissions, c.acked, c.last_seq, c.in_flight, c.failed)
            for c in channels
        ],
        "failures": failures,
        "buffers": {
            index: (
                buffer.bytes_received,
                buffer.messages_received,
                receivers[index].read_buffer(buffer, 0, BUFFER),
            )
            for index, buffer in buffers.items()
        },
    }
    if machine.monitor is not None:
        outcome["trips"] = [
            (t.kind, t.time, t.subject, t.detail) for t in machine.monitor.trips
        ]
    if oracle:
        outcome["surplus"] = sum(c.dispatch_surplus for c in channels)
        outcome["late_refills"] = sum(c.late_refills for c in channels)
    return outcome, sim.events_processed


def _late_refill() -> Scenario:
    """A sync send returns on the draining ack, then the sender sleeps a
    delay too small to move the clock and refills the channel in the same
    instant, after the old timer's interrupt was delivered."""
    return Scenario(
        seed=0,
        drop_rate=0.0,
        corrupt_rate=0.0,
        node_stalls=0,
        outages=((0, 0.0, 177.0),),
        crash=None,
        config=ReliableConfig(timeout_us=50.0, backoff=3.0, max_retries=1),
        flows=(
            Flow(
                0,
                1,
                (
                    Message(0.0, 1, 0, 0, False),
                    Message(0.0, 4265, 0, 0, True),
                    Message(4.7e-194, 1, 0, 0, False),
                ),
            ),
            Flow(0, 1, (Message(0.0, 4098, 0, 0, False), Message(0.0, 2869, 0, 0, False))),
        ),
        monitor=False,
    )


def _mid_send_failure() -> Scenario:
    """Three async sends on a channel with no retries: the first packet's
    deadline fails the channel while the second send is still issuing."""
    return Scenario(
        seed=0,
        drop_rate=0.0,
        corrupt_rate=0.0,
        node_stalls=0,
        outages=(),
        crash=None,
        config=ReliableConfig(timeout_us=50.0, backoff=1.0, max_retries=0),
        flows=(
            Flow(
                0,
                1,
                (
                    Message(0.0, 1, 0, 0, False),
                    Message(0.0, 1477, 0, 0, False),
                    Message(0.0, 2, 0, 4095, False),
                ),
            ),
        ),
        monitor=False,
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@example(scenario=_late_refill())
@example(scenario=_mid_send_failure())
@given(scenario=scenarios())
def test_deadline_timer_matches_process_timer(scenario):
    new, new_events = run_scenario(scenario, oracle=False)
    old, old_events = run_scenario(scenario, oracle=True)
    surplus = old.pop("surplus")
    assert new["drained"] and all(new["senders_done"])
    if old.pop("late_refills"):
        # The one place the two timers differ by design (module docstring).
        event("late refill")
        assert old["drained"] and all(old["senders_done"])
        return
    assert new == old
    assert new_events == old_events - surplus


def test_late_refill_restarts_the_timer_at_once():
    new, _ = run_scenario(_late_refill(), oracle=False)
    old, _ = run_scenario(_late_refill(), oracle=True)
    assert old["late_refills"] == 1
    # The deadline timer restarts at the refill, so its round fires while
    # the slow refilling send still waits for the DU slot; the process
    # timer only started after that send, and the run ends later.
    assert new["now"] < old["now"]
    assert new["drained"] and all(new["senders_done"])


def _lossy_pair(oracle: bool, **config) -> tuple:
    scenario = Scenario(
        seed=5,
        drop_rate=0.5,
        corrupt_rate=0.0,
        node_stalls=0,
        outages=(),
        crash=None,
        config=ReliableConfig(**config),
        flows=(
            Flow(0, 2, (Message(0.0, 9000, 0, 100, True),) * 3),
            Flow(0, 3, (Message(75.0, 5000, 10, 0, False),) * 3),
        ),
        monitor=False,
    )
    return run_scenario(scenario, oracle)


def test_rounds_block_on_the_du_slot_like_the_process_did():
    # Two channels on one node, multi-packet sends and a DU queue depth of
    # one: retransmission rounds contend for the slot and block.
    new, new_events = _lossy_pair(False, timeout_us=150.0, max_retries=6)
    old, old_events = _lossy_pair(True, timeout_us=150.0, max_retries=6)
    surplus = old.pop("surplus")
    assert old.pop("late_refills") == 0
    assert new == old
    assert new["stats"]["vmmc.retx.rounds"] > 0
    assert new_events == old_events - surplus < old_events
