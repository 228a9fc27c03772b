#!/usr/bin/env python
"""Large parametric meshes and sharded simulation, end to end.

This walks the scale regime from the library API:

1. **parametric machines** — a 64-node SHRIMP machine on a non-square
   16x4 mesh, routed corner to corner through the same wormhole
   backplane the 16-node studies use;
2. **the shard model** — a 256-node mesh under open-loop transpose
   traffic, run single-process;
3. **the determinism contract** — the same spec sharded across 4 worker
   processes in conservative-lookahead epochs, byte-identical to the
   serial run (same deliveries, same floats, same sha256);
4. **scaling measurements** — events/s across worker counts (wall-clock,
   host-dependent: expect speedup only on multi-core hosts).

The CLI equivalents are shown next to each step.  Run::

    python examples/large_mesh.py
"""

from repro.node import Machine
from repro.shard import plan_partitions, run_serial, run_sharded, spec_for_nodes
from repro.vmmc import VMMCRuntime


def parametric_machine() -> None:
    # CLI: none needed — any entry point taking nodes accepts 64 too.
    machine = Machine(width=16, height=4)
    print(
        f"machine: {machine.num_nodes} nodes on a "
        f"{machine.params.mesh_width}x{machine.params.mesh_height} mesh"
    )
    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(63))

    def rx():
        buffer = yield from receiver.export(4096, name="corner")
        yield from receiver.wait_bytes(buffer, 4096)
        print(f"  corner-to-corner page landed at t={machine.now:.2f}us")

    def tx():
        endpoint = vmmc.endpoint(machine.create_process(0))
        imported = yield from endpoint.import_buffer("corner")
        src = endpoint.alloc(4096)
        yield from endpoint.send(imported, src, 4096, sync_delivered=True)

    machine.sim.spawn(rx(), "rx")
    machine.sim.spawn(tx(), "tx")
    machine.sim.run()


def shard_serial():
    # CLI: python -m repro.shard run --nodes 256 --workload transpose
    spec = spec_for_nodes(256, workload="transpose", duration_us=100.0)
    print(f"\nspec: {spec.describe()}")
    print(f"partitioning at 4 workers: {plan_partitions(spec, 4).describe()}")
    result = run_serial(spec)
    print(f"serial : {result.summary()}")
    return spec, result


def shard_parallel(spec, serial) -> None:
    # CLI: python -m repro.shard verify --nodes 256 --workers 4
    sharded = run_sharded(spec, 4)
    print(f"sharded: {sharded.summary()}")
    assert sharded.telemetry_bytes() == serial.telemetry_bytes()
    print(
        f"byte-identical across 1 and {sharded.workers} workers: "
        f"sha256 {serial.telemetry_digest()}"
    )


def scaling_sweep() -> None:
    # CLI: python -m repro.shard scaling --nodes 64 --workers 1,2,4
    #      python -m repro.shard scaling --nodes 256 --workload transpose
    spec = spec_for_nodes(
        64, duration_us=60.0, record_deliveries=False
    )
    print(f"\nscaling {spec.width}x{spec.height} (wall-clock, host-dependent):")
    base = None
    for workers in (1, 2, 4):
        result = run_sharded(spec, workers) if workers > 1 else run_serial(spec)
        if base is None:
            base = result.events_per_sec
        print(
            f"  workers={workers}: {result.events_per_sec:>10,.0f} ev/s "
            f"({result.events_per_sec / base:.2f}x, {result.epochs} epochs)"
        )


def main() -> None:
    parametric_machine()
    spec, serial = shard_serial()
    shard_parallel(spec, serial)
    scaling_sweep()


if __name__ == "__main__":
    main()
