"""Tests for the experiment harness: configs, runner, tables, figures."""

import pytest

from repro.study import (
    CONFIGS,
    SUITE,
    ExperimentRunner,
    config,
    figure3,
    figure4_du_au,
    figure4_svm,
    format_figure3,
    format_table,
    format_table1,
    run_families,
    spec,
    table1,
)
from repro.study.report import format_series


def test_all_paper_configs_exist():
    assert {"baseline", "kernel_send", "interrupt_all", "no_combining",
            "fifo_1k", "fifo_32k", "du_queue_2", "no_au"} <= set(CONFIGS)


def test_config_materializes_nic_and_params():
    kernel = config("kernel_send")
    assert kernel.nic_config().user_level_dma is False
    fifo = config("fifo_1k")
    assert fifo.nic_config().fifo_capacity == 1024
    base = config("baseline")
    assert base.nic_config().user_level_dma is True
    assert base.params().page_size == 4096


def test_unknown_config_rejected():
    with pytest.raises(ValueError):
        config("overclocked")


def test_suite_covers_table1():
    assert set(SUITE) == {
        "Barnes-SVM", "Ocean-SVM", "Radix-SVM", "Radix-VMMC",
        "Barnes-NX", "Ocean-NX", "DFS-sockets", "Render-sockets",
    }
    for app_spec in SUITE.values():
        app = app_spec.factory("du")
        assert app.name == app_spec.name


def test_spec_lookup():
    assert spec("Radix-SVM").api == "SVM"
    with pytest.raises(ValueError):
        spec("Linpack")


def _served(family, workers=1):
    """``family(runner)`` rendered through the plan-then-replay path."""
    (value,) = run_families({"family": family}, workers=workers).values()
    if isinstance(value, Exception):
        raise value
    return value


def test_runner_caches_identical_runs():
    planner = ExperimentRunner()
    planner.run("Radix-VMMC", 2)
    planner.run("Radix-VMMC", 2, mode="au")  # its best mode: the same run
    planner.run("Radix-VMMC", 2, "kernel_send")
    assert planner.requests == 3 and len(planner.planned) == 2
    runner = planner.execute()
    first = runner.run("Radix-VMMC", 2)
    second = runner.run("Radix-VMMC", 2)
    assert first is second
    third = runner.run("Radix-VMMC", 2, "kernel_send")
    assert third is not first


def test_runner_mode_and_protocol_selection():
    au, du, hlrc, aurc = _served(lambda runner: (
        runner.run("Radix-VMMC", 2, mode="au"),
        runner.run("Radix-VMMC", 2, mode="du"),
        runner.run("Radix-SVM", 2, protocol="hlrc"),
        runner.run("Radix-SVM", 2, protocol="aurc"),
    ))
    assert (au.mode, du.mode) == ("au", "du")
    assert au.elapsed_us != du.elapsed_us
    # HLRC runs the DU variant, the AU protocols the AU one.
    assert (hlrc.mode, aurc.mode) == ("du", "au")
    assert hlrc.elapsed_us != aurc.elapsed_us


def test_runner_protocol_rejected_for_non_svm():
    from repro.fleet import make_spec, resolve_workload

    with pytest.raises(ValueError, match="not an SVM application"):
        resolve_workload("app").run(
            make_spec("app", nodes=2, app="Radix-VMMC", protocol="aurc")
        )
    with pytest.raises(RuntimeError, match="not an SVM application"):
        _served(lambda runner: runner.run("Radix-VMMC", 2, protocol="aurc"))


def test_slowdown_percent_sign():
    slow = _served(lambda runner: runner.slowdown_percent(
        "Radix-VMMC", 2, "kernel_send", mode="du"
    ))
    assert slow > 0  # syscalls can only slow a run down


def test_speedup_definition():
    speedup = _served(lambda runner: runner.speedup("Barnes-NX", 2, mode="du"))
    assert speedup > 1.0


def test_table1_runs_at_small_scale():
    rows = _served(table1)
    assert {r["app"] for r in rows} == set(SUITE)
    assert all(r["seq_time_ms"] > 0 for r in rows)
    text = format_table1(rows)
    assert "Table 1" in text
    assert "Radix-VMMC" in text


def test_figure_generators_shape():
    curves = _served(lambda runner: figure3(runner, node_counts=(1, 2)))
    assert set(curves) == {
        "Ocean-NX", "Radix-VMMC", "Barnes-NX", "Radix-SVM", "Ocean-SVM",
        "Barnes-SVM",
    }
    for points in curves.values():
        assert [n for n, _s in points] == [1, 2]
    text = format_figure3(curves)
    assert "Figure 3" in text


def test_figure4_rows_structure():
    rows, du_au = _served(lambda runner: (
        figure4_svm(runner, nprocs=2), figure4_du_au(runner, nprocs=2)
    ))
    assert len(rows) == 9  # 3 apps x 3 protocols
    protocols = [r["protocol"] for r in rows[:3]]
    assert protocols == ["hlrc", "hlrc-au", "aurc"]
    assert rows[0]["normalized"] == pytest.approx(1.0)
    assert {r["app"] for r in du_au} == {"Radix-VMMC", "Ocean-NX", "Barnes-NX"}


def test_replay_runner_raises_on_unplanned_spec():
    runner = ExperimentRunner(results={})
    with pytest.raises(LookupError, match="not planned"):
        runner.run("Radix-VMMC", 2)


def test_families_render_identically_at_one_and_two_workers():
    from repro.study import format_queueing_study, queueing_study

    families = {
        "table1": lambda runner: format_table1(table1(runner)),
        "queueing": lambda runner: format_queueing_study(
            queueing_study(runner, 4)
        ),
    }
    serial = run_families(families, workers=1)
    assert all(isinstance(text, str) for text in serial.values())
    assert run_families(families, workers=2) == serial


def test_combine_param_changes_radix_vmmc_and_default_does_not():
    """``combine=1`` turns AU combining on; without it the app runs with
    combining off, exactly as when the knob is set off by hand."""
    from repro.apps import run_app
    from repro.fleet import make_spec, resolve_workload

    app = resolve_workload("app")

    def run(**params):
        return app.run(make_spec(
            "app", nodes=4, app="Radix-VMMC", mode="au", observe=False,
            **params,
        )).metrics

    default = run()
    radix = spec("Radix-VMMC").factory("au")
    radix.au_combine = False
    by_hand = run_app(radix, 4, params=spec("Radix-VMMC").params)
    assert default["elapsed_us"] == by_hand.elapsed_us
    assert {
        name[len("stats."):]: value
        for name, value in default.items() if name.startswith("stats.")
    } == by_hand.stats
    assert run(combine=True)["elapsed_us"] != default["elapsed_us"]


def test_report_formatting():
    table = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", "y"]])
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "2.50" in table
    series = format_series("S", "x", {"s1": [(1, 2.0)], "s2": [(1, 3.0), (2, 4.0)]})
    assert "s1" in series and "4.00" in series


def test_format_series_preserves_duplicate_x():
    # Regression: duplicate x values used to be collapsed via dict(),
    # silently keeping only the last y.  Every occurrence must render.
    series = format_series(
        "S", "x", {"s1": [(1, 2.0), (1, 9.0), (2, 5.0)], "s2": [(1, 3.0)]}
    )
    assert "2.00" in series and "9.00" in series
    x1_rows = [
        line for line in series.splitlines() if line.split("|")[0].strip() == "1"
    ]
    assert len(x1_rows) == 2


def test_family_registry_complete_and_documented():
    """Every family is registered with a one-line description; the
    growth-direction families are excluded from `all` and the --help
    epilog says so."""
    from repro.study.__main__ import FAMILIES, _epilog, main

    # Paper-grounded families run under `all`; growth directions do not.
    for name in (
        "micro", "table1", "table2", "table3", "table4",
        "figure3", "figure4", "combining", "fifo", "queueing",
        "reliability",
    ):
        description, in_all, emitter = FAMILIES[name]
        assert in_all, name
        assert description.strip(), name
        assert callable(emitter), name
    for name in ("serve", "coll"):
        description, in_all, _emitter = FAMILIES[name]
        assert not in_all, name
        assert "not in `all`" in description, name
    epilog = _epilog()
    for name, (description, _in_all, _emitter) in FAMILIES.items():
        assert name in epilog
        assert description in epilog
    assert "excludes the growth-direction families" in epilog
    # --help must render the registry and exit cleanly.
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
    assert excinfo.value.code == 0
    help_text = out.getvalue()
    for name in FAMILIES:
        assert name in help_text


def test_coll_study_cell_and_formatting():
    from repro.study import coll_cell, format_coll_study

    nic = coll_cell("tree-nic", nodes=4, ops=2)
    host = coll_cell("tree-host", nodes=4, ops=2)
    nx = coll_cell("nx", nodes=4, ops=2)
    assert nic["barrier_us"] < nx["barrier_us"]
    assert nic["coll_packets"] > 0
    assert nx["coll_packets"] == 0
    text = format_coll_study([nx, host, nic])
    assert "NIC-side barrier speedup" in text
    assert "tree-nic" in text and "tree-host" in text


def test_cli_exits_nonzero_when_a_family_raises(capsys, monkeypatch):
    """A raising family is reported on stderr with a traceback and turns
    the exit status non-zero; the other families still run."""
    from repro.study import __main__ as cli

    def boom(runner, nodes):
        raise RuntimeError("synthetic family failure")

    families = {
        "micro": ("broken on purpose", True, boom),
        "okay": ("still healthy", True, lambda runner, nodes: "okay ran"),
    }
    monkeypatch.setattr(cli, "FAMILIES", families)
    assert cli.main(["all"]) == 1
    captured = capsys.readouterr()
    assert "family micro raised" in captured.err
    assert "synthetic family failure" in captured.err
    assert "FAILED family: micro" in captured.err
    # The healthy families still emitted their reports.
    assert "okay ran" in captured.out


def test_cli_fails_only_the_families_that_read_a_failed_run(
    capsys, monkeypatch
):
    """A run that errors fails every family reading it, prints none of
    their output, and turns the exit status non-zero; families that do
    not read it still print."""
    from repro.study import __main__ as cli

    families = {
        "broken": (
            "reads a run that fails", True,
            lambda runner, nodes: str(
                runner.run("Radix-VMMC", nodes, protocol="aurc")
            ),
        ),
        "healthy": (
            "reads a run that succeeds", True,
            lambda runner, nodes: "healthy "
            f"{runner.run('Radix-VMMC', nodes).elapsed_us > 0}",
        ),
    }
    monkeypatch.setattr(cli, "FAMILIES", families)
    assert cli.main(["all", "--nodes", "2"]) == 1
    captured = capsys.readouterr()
    assert "family broken raised" in captured.err
    assert "not an SVM application" in captured.err
    assert "FAILED family: broken" in captured.err
    assert captured.out == "healthy True\n"


def test_cli_single_family_success_exits_zero(capsys):
    from repro.study.__main__ import main

    assert main(["micro", "--nodes", "4"]) == 0
    assert "DU one-word latency" in capsys.readouterr().out
