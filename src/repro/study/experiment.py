"""The experiment runner: (application, configuration, nodes) -> result.

Every study app run is a fleet ``app`` spec.  :func:`run_families` runs
each family twice: first against a planning runner that notes the specs
it asks for, then, once their union has run through
:func:`repro.fleet.runner.run_specs`, against a runner serving the
records.  So a family's own loop is the only list of the runs it needs.
"""

from __future__ import annotations

from tempfile import TemporaryDirectory
from typing import Callable, Dict, Optional, Union

from ..apps import AppResult
from ..fleet.catalog import ExperimentSpec, make_spec
from ..fleet.runner import run_specs
from ..fleet.store import RunStore
from ..fleet.workloads import app_result
from .suite import spec as app_spec

__all__ = ["ExperimentRunner", "run_families"]


class ExperimentRunner:
    """Reads app results by (application, configuration, nodes).

    Without ``results`` the runner plans: :meth:`run` notes the spec in
    :attr:`planned` and returns a placeholder.  With ``results``
    (fingerprint -> result, or the error text of a failed run) it serves
    them, and raises on any spec it was not given.
    """

    def __init__(
        self,
        seed: int = 1998,
        results: Optional[Dict[str, Union[AppResult, str]]] = None,
    ):
        self.seed = seed
        self.results = results
        #: Specs asked for while planning, by fingerprint.
        self.planned: Dict[str, ExperimentSpec] = {}
        #: :meth:`run` calls so far: a family that only asks for runs
        #: another family planned adds no spec but still needs a replay.
        self.requests = 0

    def run(
        self,
        app_name: str,
        nprocs: int,
        config_name: str = "baseline",
        mode: Optional[str] = None,
        protocol: Optional[str] = None,
        combine: bool = False,
    ) -> AppResult:
        """One run's result.

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
        self.requests += 1
        if self.results is None:
            self.planned.setdefault(run_spec.fingerprint, run_spec)
            return app_result(run_spec, {"elapsed_us": 1.0})
        if run_spec.fingerprint not in self.results:
            raise LookupError(f"{run_spec.describe()} was not planned")
        result = self.results[run_spec.fingerprint]
        if isinstance(result, str):
            raise RuntimeError(f"{run_spec.describe()} failed:\n{result}")
        return result

    def execute(self, workers: int = 1) -> "ExperimentRunner":
        """Run each planned spec once, into a temporary run store; a
        runner that serves their results."""
        results: Dict[str, Union[AppResult, str]] = {}
        with TemporaryDirectory(prefix="repro-study-") as root:
            store = RunStore(root)
            planned = list(self.planned.values())
            for outcome in run_specs(planned, store, workers=workers):
                results[outcome.fingerprint] = outcome.error or app_result(
                    outcome.spec, store.load(outcome.fingerprint)["metrics"]
                )
        return ExperimentRunner(self.seed, results)

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

    A family that asks for no app run while planning (``micro``,
    ``reliability``) is final after that pass; the others replay once
    the union of their specs has run on ``workers`` processes.
    """
    planner = ExperimentRunner(seed)
    values = {}
    for name, family in families.items():
        before = planner.requests
        value = _value(family, planner)
        if planner.requests == before:
            values[name] = value
    if len(values) < len(families):
        runner = planner.execute(workers)
        for name, family in families.items():
            if name not in values:
                values[name] = _value(family, runner)
    return {name: values[name] for name in families}
