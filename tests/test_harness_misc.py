"""Tests for the app harness, sensitivity sweeps and the study CLI."""

import pytest

from repro import Machine, VMMCRuntime
from repro.apps.base import Application, AppResult, RunContext, run_app
from repro.sim import Timeout, TimeBreakdown


# -------------------------------------------------------------- harness --

class _ToyApp(Application):
    name = "Toy"
    api = "VMMC"

    def __init__(self, mode="du", work_us=100.0):
        super().__init__(mode)
        self.work_us = work_us
        self.ran = []

    def workers(self, ctx):
        return [self._worker(ctx, i) for i in range(ctx.nprocs)]

    def _worker(self, ctx, i):
        yield from ctx.rendezvous("setup")
        ctx.mark_start()
        cpu = ctx.machine.nodes[i].cpu
        yield from cpu.busy(self.work_us * (i + 1))
        self.ran.append(i)
        ctx.mark_end()


def test_run_app_measures_between_marks():
    app = _ToyApp(work_us=50.0)
    result = run_app(app, 3)
    assert sorted(app.ran) == [0, 1, 2]
    # Elapsed is the slowest worker's span: 3 * 50 us.
    assert result.elapsed_us == pytest.approx(150.0)
    assert result.nprocs == 3


def test_run_app_checks_worker_count():
    class Broken(_ToyApp):
        def workers(self, ctx):
            return [self._worker(ctx, 0)]

    with pytest.raises(RuntimeError, match="workers"):
        run_app(Broken(), 2)


def test_run_app_reports_deadlock():
    class Stuck(_ToyApp):
        def workers(self, ctx):
            def forever(i):
                yield ctx.sim.event("never")

            return [forever(i) for i in range(ctx.nprocs)]

    with pytest.raises(RuntimeError, match="deadlock"):
        run_app(Stuck(), 2)


def test_run_app_invokes_validate():
    class Invalid(_ToyApp):
        def validate(self):
            raise AssertionError("wrong answer")

    with pytest.raises(AssertionError, match="wrong answer"):
        run_app(Invalid(), 1)


def test_mark_start_resets_breakdowns():
    machine = Machine(num_nodes=2)
    vmmc = VMMCRuntime(machine)
    ctx = RunContext(machine, vmmc, 2)
    machine.stats.breakdown(0).charge("computation", 99.0)
    ctx.mark_start()
    assert ctx.t_start is None  # only one of two workers marked
    ctx.mark_start()
    assert ctx.t_start is not None
    assert machine.stats.breakdowns == {}


def test_rendezvous_releases_all_at_once():
    machine = Machine(num_nodes=3)
    vmmc = VMMCRuntime(machine)
    ctx = RunContext(machine, vmmc, 3)
    exits = []

    def worker(i):
        yield Timeout(i * 10.0)
        yield from ctx.rendezvous("r")
        exits.append((i, machine.now))

    procs = [machine.sim.spawn(worker(i), f"w{i}") for i in range(3)]
    machine.sim.run()
    assert all(p.done for p in procs)
    assert all(t == 20.0 for _i, t in exits)


def test_rendezvous_custom_count_and_reuse():
    machine = Machine(num_nodes=2)
    vmmc = VMMCRuntime(machine)
    ctx = RunContext(machine, vmmc, 2)
    log = []

    def worker(i):
        for round_no in range(3):
            yield from ctx.rendezvous("pair", count=2)
            log.append((round_no, i))

    procs = [machine.sim.spawn(worker(i), f"w{i}") for i in range(2)]
    machine.sim.run()
    assert all(p.done for p in procs)
    assert len(log) == 6


def test_app_result_helpers():
    result = AppResult(
        app="X", api="NX", mode="du", nprocs=4, elapsed_us=2500.0,
        breakdown=TimeBreakdown(computation=1.0), stats={"a": 2.0},
    )
    assert result.elapsed_ms == 2.5
    assert result.stat("a") == 2.0
    assert result.stat("missing", -1.0) == -1.0
    assert "X" in repr(result)


def test_application_mode_validation_and_describe():
    app = _ToyApp(mode="au")
    assert "Toy" in app.describe()
    with pytest.raises(ValueError):
        _ToyApp(mode="telepathy")


# ---------------------------------------------------------- sensitivity --

def test_write_through_sweep_structure():
    from repro.study.sensitivity import write_through_sweep

    points = write_through_sweep(bandwidths=(24.0,))
    assert len(points) == 1
    assert 3.0 < points[0].metric < 4.5


def test_mesh_scale_sweep_structure():
    from repro.study.sensitivity import mesh_scale_sweep

    points = mesh_scale_sweep(hop_pairs=((0, 1), (0, 15)))
    assert points[0].parameter < points[1].parameter
    assert points[0].metric < points[1].metric


# -------------------------------------------------------------- CLI -----

def test_study_cli_micro(capsys):
    from repro.study.__main__ import main

    assert main(["micro"]) == 0
    out = capsys.readouterr().out
    assert "DU one-word latency" in out
    assert "AU one-word latency" in out


def test_study_cli_rejects_unknown(capsys):
    from repro.study.__main__ import main

    with pytest.raises(SystemExit):
        main(["table99"])


# -------------------------------------------------------------- version --

def test_package_and_pyproject_versions_agree():
    """One version number: ``pyproject.toml`` and ``repro.__version__``.

    Parsed with a regex, not ``tomllib``: Python 3.9 has no TOML reader.
    """
    import os
    import re

    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        match = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.M)
    assert match, "pyproject.toml has no [project] version"
    assert match.group(1) == repro.__version__
