#!/usr/bin/env python
"""Large parametric meshes, end to end.

This walks the scale regime from the library API:

1. **parametric machines** — a 64-node SHRIMP machine on a non-square
   16x4 mesh, routed corner to corner through the same wormhole
   backplane the 16-node studies use;
2. **the shard model** — a 256-node mesh under open-loop transpose
   traffic on the keyed packet model; the sha256 of its event stream is
   the run's identity.

The CLI equivalents are shown next to each step.  Run::

    python examples/large_mesh.py
"""

from repro.node import Machine
from repro.shard import run_serial, spec_for_nodes
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


def shard_model() -> None:
    # CLI: python -m repro.shard run --nodes 256 --workload transpose --digest
    spec = spec_for_nodes(256, workload="transpose", duration_us=100.0)
    print(f"\nspec: {spec.describe()}")
    result = run_serial(spec)
    assert result.packets_delivered == result.packets_injected > 0
    print(f"run: {result.summary()}")
    print(f"telemetry sha256: {result.telemetry_digest()}")


def main() -> None:
    parametric_machine()
    shard_model()


if __name__ == "__main__":
    main()
