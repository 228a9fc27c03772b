"""Unit tests for the node hardware models: memory, MMU, bus, CPU, params."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.hardware import (
    CPU,
    AddressSpace,
    DEFAULT_PARAMS,
    MachineParams,
    MemoryBus,
    OutOfMemoryError,
    PageFault,
    PageMode,
    PhysicalMemory,
    Protection,
)
from repro.sim import Simulator, StatsRegistry, Timeout


# ---------------------------------------------------------------- memory --

def _memory(pages=8, page_size=4096):
    return PhysicalMemory(pages * page_size, page_size)


def test_memory_size_must_be_whole_pages():
    with pytest.raises(ValueError):
        PhysicalMemory(5000, 4096)


def test_frame_allocation_and_exhaustion():
    mem = _memory(pages=2)
    a = mem.alloc_frame()
    b = mem.alloc_frame()
    assert a != b
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()
    mem.free_frame(a)
    assert mem.alloc_frame() == a


def test_double_free_rejected():
    mem = _memory()
    frame = mem.alloc_frame()
    mem.free_frame(frame)
    with pytest.raises(ValueError):
        mem.free_frame(frame)


def test_freed_frame_is_zeroed():
    mem = _memory()
    frame = mem.alloc_frame()
    mem.write(mem.frame_base(frame), b"secret")
    mem.free_frame(frame)
    frame2 = mem.alloc_frame()
    assert mem.read_page(frame2)[:6] == bytes(6)


def test_read_write_roundtrip():
    mem = _memory()
    mem.write(100, b"hello world")
    assert mem.read(100, 11) == b"hello world"


def test_out_of_range_access_rejected():
    mem = _memory(pages=1)
    with pytest.raises(ValueError):
        mem.read(4090, 10)
    with pytest.raises(ValueError):
        mem.write(-1, b"x")


def test_write_page_requires_full_page():
    mem = _memory()
    with pytest.raises(ValueError):
        mem.write_page(0, b"short")


def test_alloc_frames_bulk():
    mem = _memory(pages=4)
    frames = mem.alloc_frames(3)
    assert len(set(frames)) == 3
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frames(2)


@pytest.mark.parametrize("frame", [-1, 2])
def test_frame_numbers_out_of_range_rejected(frame):
    mem = _memory(pages=2)
    mem.alloc_frames(2)
    with pytest.raises(ValueError):
        mem.free_frame(frame)
    with pytest.raises(ValueError):
        mem.is_allocated(frame)
    # Nothing was freed, so there is no frame to hand out.
    assert mem.free_frames == 0
    assert mem.is_allocated(1)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


class _EagerMemory:
    """Reference model: the eager allocator ``PhysicalMemory`` replaced, a
    zeroed ``bytearray`` and a descending free-frame stack."""

    def __init__(self, size, page_size):
        self.page_size, self.size = page_size, size
        self.num_frames = size // page_size
        self.data = bytearray(size)
        self.stack = list(range(self.num_frames - 1, -1, -1))
        self.allocated = [False] * self.num_frames

    @property
    def free_frames(self):
        return len(self.stack)

    def alloc_frame(self):
        if not self.stack:
            raise OutOfMemoryError("out of frames")
        frame = self.stack.pop()
        self.allocated[frame] = True
        return frame

    def alloc_frames(self, count):
        if count > len(self.stack):
            raise OutOfMemoryError("out of frames")
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, frame):
        base = self.frame_base(frame)
        if not self.allocated[frame]:
            raise ValueError("double free")
        self.allocated[frame] = False
        self.data[base : base + self.page_size] = bytes(self.page_size)
        self.stack.append(frame)

    def is_allocated(self, frame):
        self.frame_base(frame)
        return self.allocated[frame]

    def frame_base(self, frame):
        if not 0 <= frame < self.num_frames:
            raise ValueError("frame out of range")
        return frame * self.page_size

    def read(self, addr, length):
        self._check(addr, length)
        return bytes(self.data[addr : addr + length])

    def write(self, addr, payload):
        self._check(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload

    def read_page(self, frame):
        base = self.frame_base(frame)
        return bytes(self.data[base : base + self.page_size])

    def write_page(self, frame, payload):
        if len(payload) != self.page_size:
            raise ValueError("not a page")
        base = self.frame_base(frame)
        self.data[base : base + self.page_size] = payload

    def _check(self, addr, length):
        if addr < 0 or length < 0 or addr + length > self.size:
            raise ValueError("outside memory")


def _outcome(memory, op, args):
    """What ``op`` returns, or the type of exception it raises."""
    try:
        attr = getattr(memory, op)
        return "ok", attr(*args) if callable(attr) else attr
    except Exception as exc:  # the exception type is part of the contract
        return "raised", type(exc)


@st.composite
def _memory_program(draw):
    page = draw(st.sampled_from([16, 64]))
    frames = draw(st.one_of(st.integers(0, 8), st.just(64)))
    size = page * frames
    frame = st.integers(-2, frames + 1)
    addr = st.integers(-2, size + 2)
    blob = st.binary(max_size=3 * page)
    alloc = st.tuples(st.just("alloc_frame"), st.tuples())
    # ``free_held`` frees the k-th currently allocated frame, so frees
    # mostly succeed and reuse order gets exercised.
    free_held = st.tuples(st.just("free_held"), st.integers(0, 63))
    op = st.one_of(
        alloc,
        alloc,
        free_held,
        free_held,
        st.tuples(st.just("alloc_frames"), st.tuples(st.integers(-1, frames + 2))),
        st.tuples(st.just("free_frame"), st.tuples(frame)),
        st.tuples(st.just("is_allocated"), st.tuples(frame)),
        st.tuples(st.just("free_frames"), st.tuples()),
        st.tuples(st.just("read"), st.tuples(addr, st.integers(-1, 3 * page))),
        st.tuples(st.just("write"), st.tuples(addr, blob)),
        st.tuples(st.just("read_page"), st.tuples(frame)),
        st.tuples(
            st.just("write_page"),
            st.tuples(frame, st.binary(min_size=page - 1, max_size=page + 1)),
        ),
    )
    return size, page, draw(st.lists(op, min_size=20, max_size=80))


@settings(max_examples=150, deadline=None)
@given(_memory_program())
def test_lazy_memory_matches_eager_reference(program):
    size, page, ops = program
    lazy, eager = PhysicalMemory(size, page), _EagerMemory(size, page)
    for op, args in ops:
        if op == "free_held":
            held = [f for f, taken in enumerate(eager.allocated) if taken]
            if not held:
                continue
            op, args = "free_frame", (held[args % len(held)],)
        assert _outcome(lazy, op, args) == _outcome(eager, op, args), (op, args)
    assert lazy.free_frames == eager.free_frames
    assert lazy.read(0, size) == bytes(eager.data)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_stay_private():
    # Memory must be a private mapping: a forked fleet worker writing its
    # copy must not write through into the parent's.
    mem = _memory(pages=2)
    mem.write(0, b"parent")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            mem.write(0, b"child!")
            code = 0 if mem.read(0, 6) == b"child!" else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert mem.read(0, 6) == b"parent"


_MESH_256_DU = textwrap.dedent(
    """
    import resource
    from repro import Machine, VMMCRuntime

    machine = Machine(width=16, height=16)
    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(255))
    receiver = vmmc.endpoint(machine.create_process(0))
    page = bytes(range(256)) * 16
    got = []

    def receiver_side():
        buffer = yield from receiver.export(4096, name="far")
        yield from receiver.wait_bytes(buffer, 4096)
        got.append(receiver.read_buffer(buffer, 0, 4096))

    def sender_side():
        imported = yield from sender.import_buffer("far")
        src = sender.alloc(4096)
        sender.poke(src, page)
        yield from sender.send(imported, src, 4096)

    machine.sim.spawn(receiver_side(), "receiver")
    machine.sim.spawn(sender_side(), "sender")
    machine.sim.run()
    assert got == [page], "page corrupted in transit"
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KiB on Linux")
def test_256_node_machine_fits_in_512_mb():
    # Per-node memory is committed only where touched, so a 256-node
    # SHRIMP machine (8 GB of simulated DRAM) builds and runs in a small
    # fraction of that.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _MESH_256_DU],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 512 * 1024


# ------------------------------------------------------------------- MMU --

def _space():
    return AddressSpace(_memory(pages=16))


def test_alloc_region_maps_pages():
    space = _space()
    base = space.alloc_region(3)
    assert base % space.page_size == 0
    vpage = base // space.page_size
    for i in range(3):
        assert space.is_mapped(vpage + i)


def test_translate_and_data_access():
    space = _space()
    base = space.alloc_region(2)
    space.write(base + 10, b"payload")
    assert space.read(base + 10, 7) == b"payload"


def test_cross_page_write_spans_frames():
    space = _space()
    base = space.alloc_region(2)
    blob = bytes(range(200)) * 30  # 6000 bytes, crosses the page boundary
    space.write(base, blob)
    assert space.read(base, len(blob)) == blob


def test_unmapped_access_faults():
    space = _space()
    with pytest.raises(PageFault) as info:
        space.read(0, 1)
    assert info.value.mapped is False


def test_write_to_readonly_page_faults():
    space = _space()
    base = space.alloc_region(1, protection=Protection.READ)
    assert space.read(base, 4) == bytes(4)
    with pytest.raises(PageFault) as info:
        space.write(base, b"x")
    assert info.value.mapped is True
    assert info.value.access == Protection.WRITE


def test_protection_none_blocks_reads():
    space = _space()
    base = space.alloc_region(1, protection=Protection.NONE)
    with pytest.raises(PageFault):
        space.read(base, 1)


def test_protect_transitions():
    space = _space()
    base = space.alloc_region(1)
    vpage = base // space.page_size
    space.protect(vpage, Protection.READ)
    with pytest.raises(PageFault):
        space.write(base, b"x")
    space.protect(vpage, Protection.WRITE)
    space.write(base, b"x")


def test_page_mode_set_and_query():
    space = _space()
    base = space.alloc_region(1)
    vpage = base // space.page_size
    assert space.entry(vpage).mode == PageMode.WRITE_BACK
    space.set_mode(vpage, PageMode.WRITE_THROUGH)
    assert space.entry(vpage).mode == PageMode.WRITE_THROUGH


def test_double_map_rejected():
    space = _space()
    frame = space.memory.alloc_frame()
    space.map_page(100, frame)
    with pytest.raises(ValueError):
        space.map_page(100, frame)


def test_unmap_page():
    space = _space()
    frame = space.memory.alloc_frame()
    space.map_page(100, frame)
    entry = space.unmap_page(100)
    assert entry.frame == frame
    with pytest.raises(ValueError):
        space.unmap_page(100)


# ------------------------------------------------------------------- bus --

def test_bus_transfer_time_scales_with_size():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    small = bus.hold_us(4)
    large = bus.hold_us(4096)
    assert large > small
    assert small == pytest.approx(
        DEFAULT_PARAMS.bus_transaction_us + 4 / DEFAULT_PARAMS.memory_bus_bandwidth
    )


def test_bus_bandwidth_cap():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    eisa = bus.hold_us(1024, bandwidth=DEFAULT_PARAMS.eisa_bandwidth)
    full = bus.hold_us(1024)
    assert eisa > full


def test_bus_serializes_masters():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    finish = []

    def master(tag):
        yield from bus.transfer(2400)  # 10us + transaction
        finish.append((tag, sim.now))

    sim.spawn(master("a"))
    sim.spawn(master("b"))
    sim.run()
    assert finish[0][0] == "a"
    # The second master finishes a full transfer later than the first.
    assert finish[1][1] == pytest.approx(2 * finish[0][1])


def test_bus_transaction_count_for_fragments():
    sim = Simulator()
    bus = MemoryBus(sim, DEFAULT_PARAMS)
    one = bus.hold_us(1024, transactions=1)
    many = bus.hold_us(1024, transactions=256)
    assert many - one == pytest.approx(255 * DEFAULT_PARAMS.bus_transaction_us)


# ------------------------------------------------------------------- CPU --

def test_cpu_compute_charges_cycles():
    sim = Simulator()
    stats = StatsRegistry()
    cpu = CPU(sim, DEFAULT_PARAMS, 0, stats)

    def proc():
        yield from cpu.compute(60.0)  # 60 cycles at 60 MHz = 1 us
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.0)
    assert stats.breakdown(0).computation == pytest.approx(1.0)


def test_cpu_interrupt_stealing_extends_next_busy():
    sim = Simulator()
    stats = StatsRegistry()
    cpu = CPU(sim, DEFAULT_PARAMS, 0, stats)
    cpu.steal(5.0)

    def proc():
        yield from cpu.busy(2.0)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(7.0)
    assert stats.breakdown(0).overhead == pytest.approx(5.0)
    assert cpu.pending_steal == 0.0


def test_cpu_busy_category_routing():
    sim = Simulator()
    stats = StatsRegistry()
    cpu = CPU(sim, DEFAULT_PARAMS, 3, stats)

    def proc():
        yield from cpu.busy(4.0, "barrier")

    sim.run_process(proc())
    assert stats.breakdown(3).barrier == pytest.approx(4.0)


# ---------------------------------------------------------------- params --

def test_params_derived_values():
    p = MachineParams()
    assert p.cycle_us == pytest.approx(1 / 60)
    assert p.words_per_page == 1024
    assert p.fifo_threshold_bytes == int(32 * 1024 * 0.75)
    assert p.cycles(120) == pytest.approx(2.0)


def test_params_with_overrides_is_a_copy():
    base = MachineParams()
    tweaked = base.with_overrides(page_size=1024)
    assert tweaked.page_size == 1024
    assert base.page_size == 4096


def test_params_describe():
    desc = DEFAULT_PARAMS.describe()
    assert desc["cpu_mhz"] == 60.0
    assert desc["mesh"] == "4x4"
