"""The fan-out runner: specs -> workers -> run store, with cache hits.

``run_specs`` takes a list of :class:`ExperimentSpec`, checks each
against the store, and executes only the misses (and invalid records,
which are re-run rather than served).  Execution happens either inline
(``workers <= 1``) or on a ``concurrent.futures`` process pool — every
worker runs the workload **in-process** via the existing study/bench
entry points and writes its own ``runs/<fingerprint>/`` directory, so
parallel workers never share mutable state and a 2-worker fan-out
produces byte-identical records to a serial run (tested).  A worker
that dies outright (SIGKILL, the OOM killer) fails the specs that had
not finished instead of wedging the run.

The record document (``RunRecord``) embeds a ``BENCH_*``-schema stats
entry built by :func:`repro.bench.core.make_entry`, which is what lets
``repro.explore compare`` feed two records straight into the
paired-bootstrap comparison machinery.
"""

from __future__ import annotations

import json
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .catalog import ExperimentSpec
from .store import RECORD_SCHEMA, RunStore, code_version
from .workloads import FleetResult, resolve_workload

__all__ = ["RunOutcome", "build_record", "execute_spec", "run_specs"]


@dataclass
class RunOutcome:
    """What happened to one spec during a fleet run."""

    spec: ExperimentSpec
    fingerprint: str
    #: "cached" | "ran" | "reran" (invalid record replaced) | "error"
    status: str
    error: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.status == "cached"


def build_record(
    spec: ExperimentSpec, result: FleetResult
) -> Tuple[Dict, Dict[str, str]]:
    """The (record document, sidecar contents) for one finished run.

    No wall-clock fields anywhere: the record is a pure function of the
    spec and the code, so re-runs reproduce it byte-for-byte.
    """
    from ..bench.core import make_entry
    from ..telemetry.export import to_chrome_trace

    fingerprint = spec.fingerprint
    record: Dict = {
        "schema": RECORD_SCHEMA,
        "fingerprint": fingerprint,
        "spec": spec.to_json(),
        "code_version": code_version(),
        "workload": spec.workload,
        "unit": result.unit,
        "virtual_end_us": result.virtual_end_us,
        "metrics": result.metrics,
    }
    if result.samples:
        record["bench"] = make_entry(
            result.unit,
            result.higher_is_better,
            result.samples,
            attribution=result.attribution,
            ops=result.ops,
        )
    sidecars: Dict[str, str] = {}
    artifacts: Dict[str, str] = {}
    if result.telemetry is not None:
        label = f"{spec.workload}@{fingerprint}"
        sidecars["trace.json"] = json.dumps(
            to_chrome_trace(result.telemetry, label=label)
        )
        artifacts["trace"] = "trace.json"
    monitor = result.monitor
    if monitor is not None:
        record["monitor"] = {
            "healthy": monitor.healthy,
            "trips": [
                {
                    "kind": trip.kind,
                    "time": trip.time,
                    "subject": trip.subject,
                    "detail": trip.detail,
                }
                for trip in monitor.trips
            ],
        }
        if not monitor.healthy:
            postmortem = monitor.postmortem()
            sidecars["postmortem.json"] = json.dumps(
                postmortem.to_json(), indent=2, sort_keys=True
            )
            artifacts["postmortem"] = "postmortem.json"
    if result.report is not None:
        sidecars["report.txt"] = result.report + "\n"
        artifacts["report"] = "report.txt"
    record["artifacts"] = artifacts
    return record, sidecars


def execute_spec(spec: ExperimentSpec, store: RunStore) -> str:
    """Run one spec and commit its record; returns the record path."""
    workload = resolve_workload(spec.workload)
    result = workload.run(spec)
    record, sidecars = build_record(spec, result)
    return store.put(record, sidecars)


def _pool_worker(spec_doc: dict, root: str, heartbeats) -> Optional[str]:
    """Run one spec in a pool process; returns its traceback, or None.

    Module-level so it pickles under both fork and spawn starts.
    ``heartbeats`` (a manager queue, or None) is the fleet's progress
    side-channel: ``("start", fingerprint)`` before the workload runs.
    Run records never contain wall-clock fields, so the heartbeat traffic
    cannot change a stored byte — it only feeds the master's ticker.
    """
    spec = ExperimentSpec.from_json(spec_doc)
    if heartbeats is not None:
        heartbeats.put(("start", spec.fingerprint))
    try:
        execute_spec(spec, RunStore(root))
    except Exception:  # noqa: BLE001 - reported per-spec by the caller
        return traceback.format_exc()
    return None


def _run_pool(
    pending: Sequence[Tuple[ExperimentSpec, str]],
    store: RunStore,
    workers: int,
    progress: Optional[Callable[[Tuple], None]],
    finished: Callable[[ExperimentSpec, str, Optional[str]], None],
) -> None:
    """Run ``pending`` on ``workers`` processes; ``finished`` gets each end.

    One submit-and-wait loop: between completions it forwards the
    workers' start heartbeats to ``progress``.  A worker that dies
    breaks the pool, and every spec that had not finished then ends
    with the ``BrokenProcessPool`` text as its error.  Records are
    committed atomically by the worker that ran the spec, so a lost
    spec leaves none behind.
    """
    # Imported here, so that ``import repro`` does not load the process
    # pool's modules (about 1 MB resident) into every simulation.
    import queue
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context()
    manager = context.Manager() if progress is not None else None
    heartbeats = manager.Queue() if manager is not None else None
    described = {spec.fingerprint: spec.describe() for spec, _ in pending}
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        running = {}
        for spec, status in pending:
            try:
                future = pool.submit(
                    _pool_worker, spec.to_json(), store.root, heartbeats
                )
            except BrokenProcessPool as exc:  # broke while submitting
                finished(spec, status, f"{type(exc).__name__}: {exc}")
            else:
                running[future] = (spec, status)
        while running:
            done, _ = wait(
                running,
                timeout=None if heartbeats is None else 0.2,
                return_when=FIRST_COMPLETED,
            )
            while heartbeats is not None:
                try:
                    _kind, fingerprint = heartbeats.get_nowait()
                except queue.Empty:
                    break
                progress(("start", fingerprint, described[fingerprint]))
            for future in done:
                spec, status = running.pop(future)
                try:
                    error = future.result()
                except BrokenProcessPool as exc:
                    error = f"{type(exc).__name__}: {exc}"
                finished(spec, status, error)
    finally:
        # Cancelled futures matter only when an exception (an interrupt)
        # leaves the loop early: queued specs must not run on.
        pool.shutdown(cancel_futures=True)
        if manager is not None:
            manager.shutdown()


def run_specs(
    specs: Sequence[ExperimentSpec],
    store: RunStore,
    workers: int = 1,
    force: bool = False,
    log: Optional[Callable[[str], None]] = None,
    progress: Optional[Callable[[Tuple], None]] = None,
) -> List[RunOutcome]:
    """Run a catalog's specs against the store; returns one outcome each.

    Duplicate fingerprints are collapsed (first occurrence wins); valid
    cached records are served without executing anything unless
    ``force``; invalid records are replaced.  Outcomes preserve the
    input order of the surviving specs.

    ``progress``, when given, receives live ``("start", fingerprint,
    description)`` and ``("done", fingerprint, status)`` events — for
    cache hits a lone ``done``/``"cached"``.  Pool workers relay their
    ``start`` events over a manager heartbeat queue that exists only when
    ``progress`` is set, so the default pool path is untouched.
    """

    def note(line: str) -> None:
        if log is not None:
            log(line)

    unique: List[ExperimentSpec] = []
    seen = set()
    for spec in specs:
        if spec.fingerprint not in seen:
            seen.add(spec.fingerprint)
            unique.append(spec)

    pending: List[Tuple[ExperimentSpec, str]] = []
    statuses: Dict[str, str] = {}
    for spec in unique:
        status = store.status(spec)
        if status == "hit" and not force:
            statuses[spec.fingerprint] = "cached"
            note(f"{spec.fingerprint}  cached  {spec.describe()}")
            if progress is not None:
                progress(("done", spec.fingerprint, "cached"))
        else:
            pending.append((spec, status))

    errors: Dict[str, str] = {}

    def finished(
        spec: ExperimentSpec, status: str, error: Optional[str]
    ) -> None:
        if error is not None:
            errors[spec.fingerprint] = error
        statuses[spec.fingerprint] = (
            "error" if error is not None
            else "reran" if status == "invalid" else "ran"
        )
        if progress is not None:
            progress(("done", spec.fingerprint, statuses[spec.fingerprint]))

    if workers > 1 and pending:
        _run_pool(pending, store, workers, progress, finished)
    else:
        for spec, status in pending:
            if progress is not None:
                progress(("start", spec.fingerprint, spec.describe()))
            try:
                execute_spec(spec, store)
                error = None
            except Exception:  # noqa: BLE001 - reported per-spec
                error = traceback.format_exc()
            finished(spec, status, error)
    verbs = {"error": "ERROR   ", "reran": "reran  ", "ran": "ran    "}
    for spec, _status in pending:
        verb = verbs[statuses[spec.fingerprint]]
        note(f"{spec.fingerprint}  {verb}{spec.describe()}")

    return [
        RunOutcome(
            spec=spec,
            fingerprint=spec.fingerprint,
            status=statuses[spec.fingerprint],
            error=errors.get(spec.fingerprint),
        )
        for spec in unique
    ]
