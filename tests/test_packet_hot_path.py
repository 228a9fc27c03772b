"""The packet hot path against the general path it shortcuts.

With telemetry off, the backplane and the NIC skip their span and
timeline bookkeeping (DESIGN.md section 11, "Packet hot path"); the
health monitor always arms telemetry, and an installed fault plan is
checked inside the hot path at the same points as in the general one.
Each scenario below runs four ways -- plain, telemetry, monitor,
zero-rate fault plan -- and the runs must agree on the clock, the
dispatch count, every counter and the bytes that landed.

The combining engine was rewritten for the same reason; the original is
kept here as an oracle and must emit the same packets and arm the same
timers on random write runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.apps.base import run_app
from repro.apps.radix_vmmc import RadixVMMC
from repro.faults import FaultConfig, FaultPlan
from repro.network import Packet, PacketKind
from repro.nic import CombiningEngine, NICConfig, OPTEntry
from repro.sim import Simulator
from repro.vmmc import VMMCRuntime

VARIANTS = ("plain", "telemetry", "monitor", "faults")


def _machine(variant: str, nodes: int, **kwargs) -> Machine:
    machine = Machine(nodes, seed=7, telemetry=variant == "telemetry", **kwargs)
    if variant == "monitor":
        machine.enable_monitor()
    elif variant == "faults":
        # Installed explicitly: Machine skips a plan that injects nothing,
        # but an installed plan (even a zero-rate one) runs every fault
        # check on the hot path.
        machine.install_fault_plan(FaultPlan(FaultConfig(), 7))
    return machine


def _memory_digest(machine: Machine) -> str:
    """Every allocated page of every node (the rest reads as zeros)."""
    digest = hashlib.sha256()
    for node in machine.nodes:
        memory = node.memory
        for frame in range(memory.num_frames):
            if memory.is_allocated(frame):
                digest.update(frame.to_bytes(4, "little"))
                digest.update(memory.read_page(frame))
    return digest.hexdigest()


def _outcome(machine: Machine) -> dict:
    return {
        "now": machine.sim.now,
        "events": machine.sim.events_processed,
        "stats": machine.stats.snapshot(),
        "memory": _memory_digest(machine),
    }


@lru_cache(maxsize=None)
def _au_stream(variant: str) -> dict:
    """Three combined-AU senders and one DU sender into node 0, through a
    1 KB outgoing FIFO so threshold flow control engages."""
    machine = _machine(variant, 5, nic_config=NICConfig(fifo_capacity=1024))
    vmmc = VMMCRuntime(machine)
    rx = vmmc.endpoint(machine.create_process(0))
    page = machine.params.page_size
    slot, slots, messages = 1024, 8, 24

    def receiver():
        for s in range(3):
            yield from rx.export(slots * slot, name=f"au{s}")
        yield from rx.export(2 * page, name="du")

    def au_sender(s: int):
        ep = vmmc.endpoint(machine.create_process(1 + s))
        imported = yield from ep.import_buffer(f"au{s}")
        local = ep.alloc(slots * slot)
        yield from ep.bind_au(imported, local, slots * slot // page, combine=True)
        for i in range(messages):
            chunk = bytes([(s * 37 + i) % 256]) * slot
            yield from ep.au_write(local + (i % slots) * slot, chunk)
        yield from ep.au_flush()

    def du_sender():
        ep = vmmc.endpoint(machine.create_process(4))
        imported = yield from ep.import_buffer("du")
        src = ep.alloc(page)
        for i in range(messages):
            ep.poke(src, bytes([i]) * page)
            yield from ep.send(
                imported, src, page, dst_offset=(i % 2) * page, sync_delivered=True
            )

    machine.sim.spawn(receiver(), "rx")
    procs = [machine.sim.spawn(au_sender(s), f"au{s}") for s in range(3)]
    procs.append(machine.sim.spawn(du_sender(), "du"))
    machine.sim.run()
    assert all(p.done for p in procs)
    return _outcome(machine)


@lru_cache(maxsize=None)
def _radix_au(variant: str) -> dict:
    machine = _machine(variant, 4)
    app = RadixVMMC(mode="au", n_keys=4096, max_key=1024)
    result = run_app(app, 4, machine=machine)
    outcome = _outcome(machine)
    outcome["elapsed_us"] = result.elapsed_us
    return outcome


@pytest.mark.parametrize("scenario", [_au_stream, _radix_au], ids=["stream", "radix"])
def test_general_path_matches_fast_path(scenario):
    plain = scenario("plain")
    for variant in VARIANTS[1:]:
        assert scenario(variant) == plain, variant


def test_au_stream_scenario_engages_flow_control():
    stats = _au_stream("plain")["stats"]
    assert stats["kernel.fifo_threshold_interrupts"] > 0
    # A full incoming FIFO sends transmit down the blocking admit path.
    assert stats["rx.backpressure"] > 0
    assert stats["au.packets"] > 0 and stats["du.transfers"] > 0


def test_radix_au_scenario_exercises_posted_and_uncombined_stores():
    stats = _radix_au("plain")["stats"]
    # Every key is one posted word store (at most posted_write_max bytes)
    # into an uncombined binding: one single-fragment packet per store.
    writes = stats["vmmc.au_writes"]
    assert writes > 0
    assert stats["au.bytes"] == 4 * writes
    assert stats["au.write_runs"] == stats["au.packets"] == writes


# -- the combining engine against its original ------------------------------


@dataclass
class _OldPending:
    dst_node: int
    dst_frame: int
    offset: int
    data: bytearray
    interrupt: bool
    generation: int

    @property
    def end(self) -> int:
        return self.offset + len(self.data)


class _OldCombiningEngine:
    """The combining engine as it was before the hot-path rewrite."""

    def __init__(self, sim, src_node, emit, word_size, page_size,
                 combine_boundary, combine_timeout_us, force_off=False):
        self.sim = sim
        self.src_node = src_node
        self.emit = emit
        self.word_size = word_size
        self.page_size = page_size
        self.combine_boundary = combine_boundary
        self.combine_timeout_us = combine_timeout_us
        self.force_off = force_off
        self._pending: Optional[_OldPending] = None
        self._generation = 0
        self.packets_emitted = 0
        self.stores_seen = 0
        self.stores_combined = 0

    def write_run(self, entry, offset, data):
        if offset + len(data) > self.page_size:
            raise ValueError("write run crosses a page boundary")
        nwords = max(1, len(data) // self.word_size)
        self.stores_seen += nwords
        if self.force_off or not entry.combine:
            self._flush()
            self._emit_uncombined(entry, offset, data, nwords)
            return
        self._combine_run(entry, offset, data)

    def _emit_uncombined(self, entry, offset, data, nwords):
        self.emit(Packet(
            src=self.src_node, dst=entry.dst_node, dst_frame=entry.dst_frame,
            offset=offset, payload=bytes(data),
            kind=PacketKind.AUTOMATIC_UPDATE, interrupt=entry.interrupt,
            fragments=nwords,
        ))
        self.packets_emitted += nwords

    def _combine_run(self, entry, offset, data):
        pos = 0
        while pos < len(data):
            run_offset = offset + pos
            pending = self._pending
            extends = (
                pending is not None
                and pending.dst_node == entry.dst_node
                and pending.dst_frame == entry.dst_frame
                and pending.end == run_offset
            )
            if not extends:
                self._flush()
                self._generation += 1
                self._pending = _OldPending(
                    entry.dst_node, entry.dst_frame, run_offset, bytearray(),
                    entry.interrupt, self._generation,
                )
                self._arm_timer(self._pending.generation)
            else:
                self.stores_combined += 1
            pending = self._pending
            boundary = (
                (pending.end // self.combine_boundary) + 1
            ) * self.combine_boundary
            take = min(len(data) - pos, boundary - pending.end)
            pending.data.extend(data[pos:pos + take])
            pos += take
            if pending.end >= boundary or pending.end >= self.page_size:
                self._flush()

    def flush(self):
        self._flush()

    def _flush(self):
        pending, self._pending = self._pending, None
        if pending is None or not pending.data:
            return
        self.emit(Packet(
            src=self.src_node, dst=pending.dst_node,
            dst_frame=pending.dst_frame, offset=pending.offset,
            payload=bytes(pending.data), kind=PacketKind.AUTOMATIC_UPDATE,
            interrupt=pending.interrupt,
        ))
        self.packets_emitted += 1

    def _arm_timer(self, generation):
        def expire():
            if self._pending is not None and self._pending.generation == generation:
                self._flush()

        self.sim.schedule(self.combine_timeout_us, expire)


class _RecordingSimulator(Simulator):
    """A simulator that logs every timer arm as (arm time, delay)."""

    def __init__(self):
        super().__init__()
        self.arms = []

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.arms.append((self.now, delay))
        super().schedule(delay, fn)


_ENTRIES = [
    OPTEntry(dst_node=1, dst_frame=9, combine=True),
    OPTEntry(dst_node=1, dst_frame=10, combine=True, interrupt=True),
    OPTEntry(dst_node=2, dst_frame=9, combine=True),
    OPTEntry(dst_node=1, dst_frame=9, combine=False),
]

_runs = st.lists(
    st.tuples(
        st.integers(0, len(_ENTRIES) - 1),   # binding
        # Offset in a 1 KB page; None continues where the last run ended
        # (under any binding), so runs often abut.
        st.none() | st.integers(0, 1023),
        st.integers(1, 300),                 # run length
        st.sampled_from([0.0, 0.0, 1.0, 3.0, 6.0]),  # clock advance first
    ),
    max_size=40,
)


def _drive(engine_cls, runs, boundary, force_off):
    sim = _RecordingSimulator()
    emitted = []
    step = [0]

    def emit(packet):
        # When a packet leaves matters as much as what it carries.
        emitted.append((step[0], sim.now, packet))

    engine = engine_cls(
        sim, 0, emit, word_size=4, page_size=1024,
        combine_boundary=boundary, combine_timeout_us=5.0, force_off=force_off,
    )
    errors = []
    end = 0
    for position, (index, offset, length, advance) in enumerate(runs):
        step[0] = position
        if advance:
            sim.run(until=sim.now + advance)
        if offset is None:
            offset = end % 1024
        end = offset + length
        data = bytes((offset + k) % 251 for k in range(length))
        try:
            engine.write_run(_ENTRIES[index], offset, data)
        except ValueError as exc:
            errors.append((len(emitted), str(exc)))
    sim.run()
    engine.flush()
    packets = [
        (at_step, at, p.src, p.dst, p.dst_frame, p.offset, p.payload, p.kind,
         p.interrupt, p.fragments, p.size)
        for at_step, at, p in emitted
    ]
    counts = (engine.packets_emitted, engine.stores_seen, engine.stores_combined)
    return packets, sim.arms, errors, counts


@settings(max_examples=200, deadline=None)
@given(
    runs=_runs,
    # Boundaries that do not divide the page make the page-end flush
    # observable on its own.
    boundary=st.sampled_from([8, 64, 100, 256, 1024, 1500]),
    force_off=st.booleans(),
)
def test_combining_engine_matches_its_original(runs, boundary, force_off):
    assert _drive(CombiningEngine, runs, boundary, force_off) == _drive(
        _OldCombiningEngine, runs, boundary, force_off
    )
