"""repro.shard: kernel ordering, spec shapes, and the large-mesh model's
pinned event-stream digests."""

import pytest

from repro.shard import (
    INJECT_SRC,
    ShardKernel,
    ShardSpec,
    run_serial,
    spec_for_nodes,
)
from repro.shard.__main__ import main as shard_main


# -- kernel ----------------------------------------------------------------


def test_kernel_executes_in_key_order_not_insertion_order():
    seen = []
    kernel = ShardKernel(lambda e: seen.append(e[:4]))
    kernel.push((2.0, 0, 1, 0, None))
    kernel.push((1.0, 5, 0, 0, None))
    kernel.push((1.0, 2, 7, 1, None))
    kernel.push((1.0, 2, 3, 9, None))
    kernel.push((1.0, 2, INJECT_SRC, 0, None))
    assert kernel.run_all() == 5
    assert seen == [
        (1.0, 2, INJECT_SRC, 0),  # injections sort before arrivals
        (1.0, 2, 3, 9),
        (1.0, 2, 7, 1),
        (1.0, 5, 0, 0),
        (2.0, 0, 1, 0),
    ]
    assert kernel.events_processed == 5


# -- spec ------------------------------------------------------------------


def test_spec_for_nodes_prefers_near_square():
    assert (spec_for_nodes(64).width, spec_for_nodes(64).height) == (8, 8)
    assert (spec_for_nodes(256).width, spec_for_nodes(256).height) == (16, 16)
    assert (spec_for_nodes(48).width, spec_for_nodes(48).height) == (8, 6)
    assert (spec_for_nodes(7).width, spec_for_nodes(7).height) == (7, 1)


def test_spec_validation():
    with pytest.raises(ValueError, match="workload"):
        ShardSpec(width=4, height=4, workload="nope")
    with pytest.raises(ValueError, match="positive"):
        ShardSpec(width=0, height=4)


# -- the pinned event streams ---------------------------------------------

#: sha256 of each pattern's canonical event stream at 64 nodes and 40 us:
#: any change to the key order, a handler, an RNG stream or the stream's
#: format moves these bytes.
DIGESTS_64 = {
    "uniform": "949f548cdb9ac48fb3195f348af98134fd73fc36de319b297b147b6e3faed686",
    "transpose": "3f5f178d6429e2c473e5343a480410e2f51ddc3c4b4791df0dec2407a9562ccd",
    "neighbor": "1f4031cb30da5416fb6ecf4174a93b01c4fc69deccae28d5a3bec1321fe094a0",
    "hotspot": "bafbf460c960c7958b338379dd2ced738bcfcaead18a6469f2d1bfe416aeeeac",
}


@pytest.mark.parametrize("pattern", sorted(DIGESTS_64))
def test_serial_digest_oracle(pattern):
    result = run_serial(spec_for_nodes(64, duration_us=40.0, workload=pattern))
    assert result.packets_delivered == result.packets_injected > 0
    assert result.telemetry_digest() == DIGESTS_64[pattern]


def test_transpose_pattern_has_fixed_destinations():
    spec = ShardSpec(width=4, height=2, workload="transpose", duration_us=10.0)
    result = run_serial(spec)
    # (x, y) -> index x*height + y: node 1 = (1,0) always sends to node 2.
    for _t, node, src, _q, _it, _h in result.deliveries:
        if src == 1:
            assert node == 2


def test_record_deliveries_off_keeps_counters_and_identity():
    base = spec_for_nodes(16, duration_us=30.0)
    slim = spec_for_nodes(16, duration_us=30.0, record_deliveries=False)
    full, counters_only = run_serial(base), run_serial(slim)
    assert counters_only.deliveries is None
    assert counters_only.packets_delivered == full.packets_delivered
    assert counters_only.events == full.events
    assert counters_only.mean_latency_us == pytest.approx(full.mean_latency_us)
    with pytest.raises(ValueError, match="record_deliveries"):
        counters_only.latency_samples()


def test_loopback_and_mean_hops_accounting():
    spec = ShardSpec(width=1, height=1, duration_us=5.0)
    result = run_serial(spec)
    # A 1-node mesh can only loop back to itself; zero mesh hops.
    assert result.packets_delivered == result.packets_injected > 0
    assert result.mean_hops == 0.0


# -- CLI -------------------------------------------------------------------


def test_cli_run_prints_summary_and_digest(capsys):
    rc = shard_main(
        ["run", "--width", "6", "--height", "3", "--duration", "15",
         "--workload", "neighbor", "--digest"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "6x3 neighbor" in out and "telemetry sha256:" in out


def test_cli_rejects_contradictory_mesh_arguments():
    with pytest.raises(SystemExit):
        shard_main(["run", "--width", "4"])
    with pytest.raises(SystemExit):
        shard_main(["run", "--nodes", "9", "--width", "4", "--height", "4"])
    # One execution path: no worker count, no other subcommand.
    with pytest.raises(SystemExit):
        shard_main(["run", "--workers", "2"])
    with pytest.raises(SystemExit):
        shard_main(["verify", "--nodes", "16"])
