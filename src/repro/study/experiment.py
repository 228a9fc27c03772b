"""The experiment runner: every study number is a fleet record's metric.

:func:`run_families` runs each family twice: first against a planning
runner that notes the fleet specs it asks for, then, once their union
has run through :func:`repro.fleet.runner.run_specs` with no store
(no sidecar is rendered; each record comes back on its outcome),
against a runner serving the records.  So a family's own loop is the
only list of the runs it needs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..apps import AppResult
from ..fleet.catalog import ExperimentSpec, make_spec
from ..fleet.runner import run_specs
from ..fleet.workloads import app_result
from .suite import spec as app_spec

__all__ = ["ExperimentRunner", "run_families"]


class _Placeholder(dict):
    """A planned record's metrics: every metric reads 1.0."""

    def __missing__(self, key: str) -> float:
        return 1.0


class ExperimentRunner:
    """Reads fleet records' metrics by spec.

    Without ``results`` the runner plans: :meth:`metrics` notes the spec
    in :attr:`planned` and returns a placeholder.  With ``results``
    (fingerprint -> record metrics, or the error text of a failed run)
    it serves them, and raises on any spec it was not given.
    """

    def __init__(
        self,
        seed: int = 1998,
        results: Optional[Dict[str, Union[Dict[str, float], str]]] = None,
    ):
        self.seed = seed
        self.results = results
        #: Specs asked for while planning, by fingerprint.
        self.planned: Dict[str, ExperimentSpec] = {}

    def metrics(self, spec: ExperimentSpec) -> Dict[str, float]:
        """The metrics of ``spec``'s record."""
        if self.results is None:
            self.planned.setdefault(spec.fingerprint, spec)
            return _Placeholder()
        if spec.fingerprint not in self.results:
            raise LookupError(f"{spec.describe()} was not planned")
        result = self.results[spec.fingerprint]
        if isinstance(result, str):
            raise RuntimeError(f"{spec.describe()} failed:\n{result}")
        return result

    def run(
        self,
        app_name: str,
        nprocs: int,
        config_name: str = "baseline",
        mode: Optional[str] = None,
        protocol: Optional[str] = None,
        combine: bool = False,
    ) -> AppResult:
        """One app run's result.

        ``mode`` defaults to the application's better variant (what
        Figure 3 plots); ``protocol`` overrides the SVM protocol for
        Figure 4, on the DU variant for HLRC and the AU one otherwise;
        ``combine`` turns automatic-update combining on.
        """
        if protocol is not None:
            mode = "du" if protocol == "hlrc" else "au"
        params = {"app": app_name, "observe": False,
                  "mode": mode or app_spec(app_name).best_mode}
        # Defaults stay out of the spec, so equal runs share a fingerprint.
        if config_name != "baseline":
            params["config"] = config_name
        if protocol is not None:
            params["protocol"] = protocol
        if combine:
            params["combine"] = True
        run_spec = make_spec("app", nodes=nprocs, seed=self.seed, **params)
        return app_result(run_spec, self.metrics(run_spec))

    def execute(self, workers: int = 1) -> "ExperimentRunner":
        """Run each planned spec once, with no store; a runner that
        serves their records."""
        outcomes = run_specs(list(self.planned.values()), None, workers)
        return ExperimentRunner(self.seed, {
            outcome.fingerprint: outcome.error or outcome.record["metrics"]
            for outcome in outcomes
        })

    def slowdown_percent(
        self,
        app_name: str,
        nprocs: int,
        config_name: str,
        mode: Optional[str] = None,
    ) -> float:
        """Execution-time increase of ``config_name`` over baseline, in %."""
        base = self.run(app_name, nprocs, "baseline", mode)
        what_if = self.run(app_name, nprocs, config_name, mode)
        return (what_if.elapsed_us / base.elapsed_us - 1.0) * 100.0

    def speedup(
        self, app_name: str, nprocs: int, mode: Optional[str] = None,
        protocol: Optional[str] = None,
    ) -> float:
        """Speedup over the single-node run of the same variant."""
        seq = self.run(app_name, 1, "baseline", mode, protocol)
        par = self.run(app_name, nprocs, "baseline", mode, protocol)
        return seq.elapsed_us / par.elapsed_us


def _value(family: Callable[[ExperimentRunner], object], runner):
    try:
        return family(runner)
    except Exception as exc:  # noqa: BLE001 - handed to the caller
        return exc


def run_families(
    families: Dict[str, Callable[[ExperimentRunner], object]],
    workers: int = 1,
    seed: int = 1998,
) -> Dict[str, object]:
    """Each family's value, or the exception it raised, in input order.

    Every family is planned, the union of their specs runs once on
    ``workers`` processes, and every family is replayed against the
    records.  Planning builds no machine: a family's runs are specs.
    """
    planner = ExperimentRunner(seed)
    for family in families.values():
        _value(family, planner)
    runner = planner.execute(workers)
    return {name: _value(family, runner) for name, family in families.items()}
