"""Unit and property tests for the mesh backplane."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import DEFAULT_PARAMS
from repro.network import Backplane, MeshTopology, Packet, PacketKind
from repro.sim import Simulator


# -------------------------------------------------------------- topology --

def test_mesh_dimensions_validated():
    with pytest.raises(ValueError):
        MeshTopology(0, 4)


def test_coords_roundtrip():
    mesh = MeshTopology(4, 4)
    for node in range(16):
        x, y = mesh.coords(node)
        assert mesh.node_at(x, y) == node


def test_coords_out_of_range():
    mesh = MeshTopology(2, 2)
    with pytest.raises(ValueError):
        mesh.coords(4)
    with pytest.raises(ValueError):
        mesh.node_at(2, 0)


def test_neighbors_of_corner_and_center():
    mesh = MeshTopology(4, 4)
    assert sorted(mesh.neighbors(0)) == [1, 4]
    assert sorted(mesh.neighbors(5)) == [1, 4, 6, 9]


def test_links_are_bidirectional_pairs():
    mesh = MeshTopology(3, 3)
    links = set(mesh.links())
    assert all((b, a) in links for a, b in links)
    # 2 * (horizontal + vertical edges)
    assert len(links) == 2 * (2 * 3 + 3 * 2)


def test_xy_route_goes_x_first():
    mesh = MeshTopology(4, 4)
    path = mesh.xy_route(0, 10)  # (0,0) -> (2,2)
    assert path == [(0, 1), (1, 2), (2, 6), (6, 10)]


def test_xy_route_to_self_is_empty():
    mesh = MeshTopology(4, 4)
    assert mesh.xy_route(5, 5) == []


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    data=st.data(),
)
def test_xy_route_is_a_valid_shortest_path(width, height, data):
    mesh = MeshTopology(width, height)
    src = data.draw(st.integers(0, mesh.num_nodes - 1))
    dst = data.draw(st.integers(0, mesh.num_nodes - 1))
    path = mesh.xy_route(src, dst)
    assert len(path) == mesh.hop_count(src, dst)
    # Path is connected, starts at src, ends at dst, uses real links.
    position = src
    all_links = set(mesh.links())
    for a, b in path:
        assert a == position
        assert (a, b) in all_links
        position = b
    assert position == dst


@settings(max_examples=50, deadline=None)
@given(width=st.integers(2, 5), height=st.integers(2, 5), data=st.data())
def test_xy_route_is_deterministic(width, height, data):
    mesh = MeshTopology(width, height)
    src = data.draw(st.integers(0, mesh.num_nodes - 1))
    dst = data.draw(st.integers(0, mesh.num_nodes - 1))
    assert mesh.xy_route(src, dst) == mesh.xy_route(src, dst)


# ---------------------------------------------------------------- packet --

def test_packet_size_includes_header_per_fragment():
    p = Packet(0, 1, 0, 0, b"1234", PacketKind.DELIBERATE_UPDATE)
    assert p.size == 12
    burst = Packet(0, 1, 0, 0, b"12345678", PacketKind.AUTOMATIC_UPDATE,
                   fragments=2)
    assert burst.size == 2 * 8 + 8


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(0, 1, 0, 0, b"", PacketKind.DELIBERATE_UPDATE)
    with pytest.raises(ValueError):
        Packet(0, 1, 0, -4, b"x", PacketKind.DELIBERATE_UPDATE)
    with pytest.raises(ValueError):
        Packet(0, 1, 0, 0, b"x", PacketKind.DELIBERATE_UPDATE, fragments=0)


# -------------------------------------------------------------- backplane --

def _backplane():
    sim = Simulator()
    bp = Backplane(sim, DEFAULT_PARAMS)
    return sim, bp


def _attach_collector(bp, node):
    received = []

    def admit(packet):
        received.append((bp.sim.now, packet))
        return
        yield  # pragma: no cover

    # No non-blocking half: every packet goes through the admit generator.
    bp.attach_receiver(node, admit, lambda packet: False)
    return received


def test_transmit_unloaded_latency():
    sim, bp = _backplane()
    received = _attach_collector(bp, 3)
    packet = Packet(0, 3, 0, 0, b"x" * 92, PacketKind.DELIBERATE_UPDATE)

    def send():
        yield from bp.transmit(packet)

    sim.run_process(send())
    expected = 3 * DEFAULT_PARAMS.router_hop_us + 100 / DEFAULT_PARAMS.link_bandwidth
    assert received[0][0] == pytest.approx(expected)
    assert bp.unloaded_latency(0, 3, 100) == pytest.approx(expected)


def test_same_pair_packets_deliver_in_order():
    sim, bp = _backplane()
    received = _attach_collector(bp, 5)

    def sender():
        for i in range(10):
            packet = Packet(0, 5, 0, i, bytes([i]) * 4,
                            PacketKind.DELIBERATE_UPDATE)
            yield from bp.transmit(packet)

    sim.run_process(sender())
    offsets = [p.offset for _t, p in received]
    assert offsets == list(range(10))


def test_link_contention_serializes():
    sim, bp = _backplane()
    _attach_collector(bp, 1)
    done = []

    def sender(tag):
        packet = Packet(0, 1, 0, 0, b"z" * 1992, PacketKind.DELIBERATE_UPDATE)
        yield from bp.transmit(packet)
        done.append((tag, sim.now))

    sim.spawn(sender("a"))
    sim.spawn(sender("b"))
    sim.run()
    # Both use link (0, 1): the second waits for the first to finish.
    assert done[1][1] >= 2 * 2000 / DEFAULT_PARAMS.link_bandwidth


def test_disjoint_paths_proceed_in_parallel():
    sim, bp = _backplane()
    _attach_collector(bp, 1)
    _attach_collector(bp, 11)
    done = []

    def sender(src, dst):
        packet = Packet(src, dst, 0, 0, b"z" * 1992,
                        PacketKind.DELIBERATE_UPDATE)
        yield from bp.transmit(packet)
        done.append(sim.now)

    sim.spawn(sender(0, 1))
    sim.spawn(sender(15, 11))
    sim.run()
    # Independent links: both complete in one transfer time (+hops).
    assert max(done) < 1.5 * 2000 / DEFAULT_PARAMS.link_bandwidth


def test_ejection_channel_serializes_many_to_one():
    sim, bp = _backplane()
    _attach_collector(bp, 5)
    done = []

    def sender(src):
        packet = Packet(src, 5, 0, 0, b"z" * 1992,
                        PacketKind.DELIBERATE_UPDATE)
        yield from bp.transmit(packet)
        done.append(sim.now)

    sim.spawn(sender(4))   # 1 hop west
    sim.spawn(sender(6))   # 1 hop east (different links, same ejection)
    sim.run()
    transfer = 2000 / DEFAULT_PARAMS.link_bandwidth
    assert max(done) >= 2 * transfer


def test_loopback_does_not_use_links():
    sim, bp = _backplane()
    received = _attach_collector(bp, 2)
    packet = Packet(2, 2, 0, 0, b"self", PacketKind.DELIBERATE_UPDATE)

    def send():
        yield from bp.transmit(packet)

    sim.run_process(send())
    assert len(received) == 1
    assert received[0][0] == pytest.approx(DEFAULT_PARAMS.router_hop_us)


def test_missing_receiver_raises():
    sim, bp = _backplane()
    packet = Packet(0, 9, 0, 0, b"x", PacketKind.DELIBERATE_UPDATE)

    def send():
        yield from bp.transmit(packet)

    with pytest.raises(RuntimeError, match="no receiver"):
        sim.run_process(send())


def test_backplane_statistics():
    sim, bp = _backplane()
    _attach_collector(bp, 1)

    def send():
        packet = Packet(0, 1, 0, 0, b"abcd", PacketKind.DELIBERATE_UPDATE)
        yield from bp.transmit(packet)

    sim.run_process(send())
    assert bp.packets_delivered == 1
    assert bp.bytes_delivered == 12


def test_route_cache_matches_fresh_xy_route_for_all_pairs():
    """Every memoized route equals a freshly computed XY route (256 pairs)."""
    sim = Simulator()
    bp = Backplane(sim, DEFAULT_PARAMS)
    num_nodes = bp.num_nodes
    assert num_nodes == 16  # the default 4x4 mesh: 256 (src, dst) pairs
    assert not bp._routes  # routes are built lazily, on first use
    fresh_topology = MeshTopology(
        DEFAULT_PARAMS.mesh_width, DEFAULT_PARAMS.mesh_height
    )
    for src in range(num_nodes):
        for dst in range(num_nodes):
            if src == dst:
                continue
            path, links, ejection, base_latency = bp._route_for(src, dst)
            expected = fresh_topology.xy_route(src, dst)
            assert path == expected
            # The cached handles are the very Resource objects the link and
            # ejection tables hold — not copies.
            assert links == tuple(bp.link(link_id) for link_id in expected)
            assert ejection is bp._ejection[dst]
            assert base_latency == len(expected) * DEFAULT_PARAMS.router_hop_us
            # Memoized: the second lookup returns the identical tuple.
            assert bp._route_for(src, dst)[0] is path
    # At 16 nodes the cap admits all pairs (the historical eager table).
    assert len(bp._routes) == num_nodes * (num_nodes - 1)


def test_backplane_route_cache_is_capped_on_large_meshes():
    sim = Simulator()
    params = DEFAULT_PARAMS.with_overrides(mesh_width=32, mesh_height=32)
    bp = Backplane(sim, params)
    assert bp._route_cap == 32 * 1024 < 1024 * 1023
    # Past the cap, routes still resolve correctly — just unmemoized.
    bp._route_cap = 4
    for dst in range(1, 10):
        path, _links, _ej, _lat = bp._route_for(0, dst)
        assert len(path) == bp.topology.hop_count(0, dst)
    assert len(bp._routes) == 4
