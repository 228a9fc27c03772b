"""End-to-end tests: every Table 1 application runs and self-validates.

Each application's ``validate()`` compares the parallel result against a
sequential reference (bit-exact for the numeric apps), so a passing run
demonstrates the whole stack — VMMC, NIC, network, protocol library —
moved correct data.
"""

import pytest

from repro import MachineParams
from repro.apps import (
    APPLICATIONS,
    BarnesNX,
    BarnesSVM,
    DFSSockets,
    OceanNX,
    OceanSVM,
    RadixSVM,
    RadixVMMC,
    RenderSockets,
    run_app,
)

PAGE_1K = MachineParams().with_overrides(page_size=1024)


def test_application_registry_matches_table1():
    assert set(APPLICATIONS) == {
        "Barnes-SVM", "Ocean-SVM", "Radix-SVM", "Radix-VMMC",
        "Barnes-NX", "Ocean-NX", "DFS-sockets", "Render-sockets",
    }


@pytest.mark.parametrize("protocol", ["hlrc", "hlrc-au", "aurc"])
def test_radix_svm_sorts(protocol):
    app = RadixSVM(protocol=protocol, n_keys=1024, radix=16, max_key=4096)
    result = run_app(app, 4, params=PAGE_1K)
    assert result.elapsed_us > 0


@pytest.mark.parametrize("mode", ["au", "du"])
def test_radix_vmmc_sorts(mode):
    app = RadixVMMC(mode=mode, n_keys=2048, max_key=4096)
    result = run_app(app, 4)
    assert result.api == "VMMC"
    assert result.stat("vmmc.notifications") == 0  # polling only


@pytest.mark.parametrize("protocol", ["hlrc", "aurc"])
def test_ocean_svm_matches_reference(protocol):
    app = OceanSVM(protocol=protocol, n=18, sweeps=4)
    run_app(app, 4, params=PAGE_1K)


@pytest.mark.parametrize("mode", ["du", "au"])
def test_ocean_nx_matches_reference(mode):
    app = OceanNX(mode=mode, n=18, sweeps=4)
    result = run_app(app, 4)
    assert result.api == "NX"


def test_ocean_nx_rejects_too_many_ranks():
    with pytest.raises(ValueError):
        run_app(OceanNX(n=6, sweeps=1), 8)


@pytest.mark.parametrize("protocol", ["hlrc", "aurc"])
def test_barnes_svm_matches_reference(protocol):
    app = BarnesSVM(protocol=protocol, n_bodies=64, steps=2)
    run_app(app, 4, params=PAGE_1K)


@pytest.mark.parametrize("mode", ["du", "au"])
def test_barnes_nx_matches_reference(mode):
    app = BarnesNX(mode=mode, n_bodies=64, steps=2)
    run_app(app, 4)


def test_dfs_serves_verified_blocks():
    app = DFSSockets(n_files=2, blocks_per_file=8, block_size=1024,
                     reads_per_client=12, cache_blocks=4)
    result = run_app(app, 4)
    assert result.stat("sockets.block_sends") > 0
    assert result.stat("vmmc.notifications") == 0


def test_render_produces_reference_image():
    app = RenderSockets(vol_size=8, image_size=16, tile_size=8)
    result = run_app(app, 4)
    assert result.stat("vmmc.notifications") == 0


def test_render_single_node_fallback():
    run_app(RenderSockets(vol_size=8, image_size=16, tile_size=8), 1)


@pytest.mark.parametrize(
    "app_factory, params",
    [
        (lambda: RadixSVM(protocol="aurc", n_keys=512, radix=16, max_key=256), PAGE_1K),
        (lambda: RadixVMMC(n_keys=512, max_key=256), None),
        (lambda: OceanSVM(protocol="hlrc", n=10, sweeps=2), PAGE_1K),
        (lambda: BarnesNX(n_bodies=32, steps=1), None),
    ],
)
def test_apps_run_on_single_node(app_factory, params):
    result = run_app(app_factory(), 1, params=params)
    assert result.nprocs == 1


def test_app_mode_validation():
    with pytest.raises(ValueError):
        RadixSVM(mode="quantum")


def test_result_reporting_fields():
    app = RadixVMMC(n_keys=512, max_key=256)
    result = run_app(app, 2)
    assert result.app == "Radix-VMMC"
    assert result.mode == "au"
    assert result.elapsed_ms == pytest.approx(result.elapsed_us / 1000)
    assert result.breakdown.total >= 0
    assert "du.transfers" in result.stats


def test_elapsed_scales_down_with_more_nodes():
    """Basic sanity: Barnes gets faster from 1 to 4 nodes."""
    seq = run_app(BarnesNX(n_bodies=128, steps=1), 1)
    par = run_app(BarnesNX(n_bodies=128, steps=1), 4)
    assert par.elapsed_us < seq.elapsed_us
