#!/usr/bin/env python
"""Live observability, end to end: metrics, profiling, HTML.

This walks the ``repro.obs`` surface from the library API:

1. **live metrics** — a VMMC stream with the virtual-time sampling
   cadence armed: ring-buffered series, a Prometheus-style scrape and
   the observational zero-overhead contract (the observed run's
   trajectory is byte-identical to an unobserved one);
2. **serve SLO series** — the fleet ``demos`` serve-smoke scenario (the
   serving tier through a permanent link outage), with the live
   ok/late/failed counters sampled as time series;
3. **host-time profiling** — where the simulator's wall clock goes,
   attributed to components by stack sampling;
4. **HTML evidence** — the series rendered into a self-contained page.

The CLI equivalents are shown next to each step.  Run::

    python examples/live_metrics.py
"""

import os
import tempfile

from repro.node import Machine
from repro.obs import ObsConfig, SamplingProfiler
from repro.obs.html import render_series_html
from repro.vmmc import VMMCRuntime


def live_metrics() -> None:
    # CLI: python -m repro.obs scrape --workload seed
    machine = Machine(num_nodes=4)
    obs = machine.enable_obs(ObsConfig(cadence_us=25.0))
    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    sender = vmmc.endpoint(machine.create_process(1))
    nbytes, ops = 1024, 200
    payload = (bytes(range(256)) * 4)[:nbytes]

    def rx():
        buffer = yield from receiver.export(nbytes, name="live.buf")
        yield from receiver.wait_bytes(buffer, nbytes * ops)

    def tx():
        imported = yield from sender.import_buffer("live.buf")
        src = sender.alloc(nbytes)
        sender.poke(src, payload)
        for _ in range(ops):
            yield from sender.send(imported, src, nbytes, sync_delivered=True)

    machine.sim.spawn(rx(), "live.rx")
    machine.sim.spawn(tx(), "live.tx")
    machine.sim.run()
    obs.sample_now()
    depth = obs.series["sim.heap_depth"]
    print(
        f"metrics: {obs.samples_taken} samples across {len(obs.series)} "
        f"series over {machine.now:.0f}us of virtual time"
    )
    print(
        f"  sim.heap_depth peaked at "
        f"{max(v for _t, v in depth.points):.0f} "
        f"(retained {len(depth.points)}/{depth.offered} offers, "
        f"stride {depth.stride})"
    )
    scrape = obs.scrape()
    sample = [l for l in scrape.splitlines() if l.startswith("repro_net")][:3]
    print("  scrape excerpt:", *sample, sep="\n    ")
    return obs


def serve_slo_series():
    # CLI: python -m repro.obs scrape --workload serve-chaos
    # The fleet demos matrix's serve-smoke scenario: a 2x2 serving tier
    # loses one link for good, with the tier's SLO counters sampled live.
    from repro.fleet.workloads import (
        SERVE_SMOKE_CONFIG,
        SERVE_SMOKE_OUTAGE_AT_US,
    )
    from repro.serve import ServeCluster, make_chaos

    cluster = ServeCluster(SERVE_SMOKE_CONFIG)
    obs = cluster.machine.enable_obs(ObsConfig(cadence_us=100.0))
    cluster.setup()
    chaos = make_chaos(
        "link-outage", at_us=SERVE_SMOKE_OUTAGE_AT_US, duration_us=None
    )
    chaos.apply(cluster)
    report = cluster.run()
    failed = obs.series["serve.slo.failed"].points
    first_failure = next((t for t, v in failed if v > 0), None)
    print(f"\nserve: {chaos.describe(cluster)}")
    print(
        f"  ok={report.overall.ok} late={report.overall.late} "
        f"failed={report.overall.failed}; first failure sampled at "
        f"t={first_failure:.0f}us" if first_failure is not None else "  clean"
    )
    return obs


def host_profile() -> None:
    # CLI: python -m repro.obs profile --matrix smoke
    from repro.fleet import make_spec
    from repro.fleet.workloads import resolve_workload

    spec = make_spec("ping", nodes=4, ops=200)
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        resolve_workload(spec.workload).run(spec)
    shares = ", ".join(
        f"{component} {100 * share:.0f}%"
        for component, share in list(profiler.attribution().items())[:4]
    )
    print(f"\nprofile: {profiler.total_samples} samples -> {shares}")


def html_evidence(obs) -> None:
    # CLI: python -m repro.obs html obs-series.json --out report.html
    page = render_series_html(obs.series_doc(), "live_metrics example")
    out = os.path.join(tempfile.gettempdir(), "live_metrics.html")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(page)
    print(
        f"\nhtml: {len(page)} bytes, {page.count('<svg')} inline-SVG "
        f"charts -> {out}"
    )


def main() -> None:
    live_metrics()
    obs = serve_slo_series()
    host_profile()
    html_evidence(obs)


if __name__ == "__main__":
    main()
