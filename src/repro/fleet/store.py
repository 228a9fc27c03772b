"""The persistent run-artifact store: ``runs/<fingerprint>/record.json``.

One directory per spec fingerprint, holding the canonical
``record.json`` (the :data:`RECORD_SCHEMA` document described in
DESIGN.md §15) plus its sidecars — the Chrome trace, the postmortem dump,
the rendered report.  The record is written **last** and atomically
(temp file + ``os.replace``), so its presence is the commit marker: a
crash mid-run leaves sidecars without a record, which :meth:`RunStore.status`
reports as a miss, and a truncated, hand-edited or stale record (one
whose :func:`code_version` differs from the running code's) fails
validation and is re-run rather than served.

Records carry no wall-clock fields and every run is deterministic, so a
re-run of an unchanged spec reproduces the record **byte-for-byte** —
the property the resumability tests pin.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

from .catalog import ExperimentSpec

__all__ = [
    "RECORD_SCHEMA",
    "StoreError",
    "RunStore",
    "dumps_record",
    "code_version",
]

#: Schema version of record.json documents.
RECORD_SCHEMA = 1

#: Keys every valid record must carry.
_REQUIRED = ("schema", "fingerprint", "spec", "code_version", "workload")


class StoreError(ValueError):
    """A record is missing, unreadable, or fails validation."""


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """``repro.__version__`` plus ``+`` and 12 hex digits hashing every
    ``.py`` file of the package (path and bytes), so an edit that leaves
    the version alone still makes older records stale."""
    from .. import __version__

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(n for n in filenames if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                source = fh.read()
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            digest.update(f"{relative}\0{len(source)}\0".encode() + source)
    return f"{__version__}+{digest.hexdigest()[:12]}"


def dumps_record(record: Dict) -> str:
    """Canonical serialization (sorted keys, trailing newline)."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


class RunStore:
    """Content-addressed storage for :class:`RunRecord` documents."""

    def __init__(self, root: str = "runs"):
        self.root = root

    # -- paths ------------------------------------------------------------

    def run_dir(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint)

    def record_path(self, fingerprint: str) -> str:
        return os.path.join(self.run_dir(fingerprint), "record.json")

    def artifact_path(self, record: Dict, kind: str) -> Optional[str]:
        """Absolute path of one of a record's sidecars (None: absent)."""
        relative = record.get("artifacts", {}).get(kind)
        if relative is None:
            return None
        return os.path.abspath(
            os.path.join(self.run_dir(record["fingerprint"]), relative)
        )

    # -- writing ----------------------------------------------------------

    def put(self, record: Dict, sidecars: Dict[str, str]) -> str:
        """Write sidecars then commit ``record.json`` atomically."""
        run_dir = self.run_dir(record["fingerprint"])
        os.makedirs(run_dir, exist_ok=True)
        for relative, content in sidecars.items():
            with open(
                os.path.join(run_dir, relative), "w", encoding="utf-8"
            ) as fh:
                fh.write(content)
        blob = dumps_record(record)
        fd, tmp = tempfile.mkstemp(
            dir=run_dir, prefix=".record.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self.record_path(record["fingerprint"]))
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                os.unlink(tmp)
        return self.record_path(record["fingerprint"])

    # -- reading ----------------------------------------------------------

    def load(self, fingerprint: str) -> Dict:
        """Load and validate one record; raises :class:`StoreError`."""
        path = self.record_path(fingerprint)
        if not os.path.exists(path):
            raise StoreError(f"no record for {fingerprint} at {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"{path}: unreadable record ({exc})") from exc
        self.validate(record, fingerprint)
        return record

    def validate(self, record: Dict, fingerprint: str) -> None:
        """Schema, code-version, fingerprint-consistency and sidecar checks."""
        if not isinstance(record, dict):
            raise StoreError("record is not a JSON object")
        for key in _REQUIRED:
            if key not in record:
                raise StoreError(f"record missing required key {key!r}")
        if record["schema"] != RECORD_SCHEMA:
            raise StoreError(
                f"unsupported record schema {record['schema']!r} "
                f"(expected {RECORD_SCHEMA})"
            )
        # A record from other code may hold different results: re-run it
        # rather than serve it.
        if record["code_version"] != code_version():
            raise StoreError(
                f"record from code version {record['code_version']!r}, "
                f"not {code_version()!r}: stale record"
            )
        if record["fingerprint"] != fingerprint:
            raise StoreError(
                f"record fingerprint {record['fingerprint']!r} does not "
                f"match directory {fingerprint!r}"
            )
        # The spec must hash back to the fingerprint it claims: a record
        # whose spec was edited (or that was copied between directories)
        # is invalid, not silently served.
        spec = ExperimentSpec.from_json(record["spec"])
        if spec.fingerprint != fingerprint:
            raise StoreError(
                f"spec in record hashes to {spec.fingerprint}, "
                f"not {fingerprint}: stale or tampered record"
            )
        for kind, relative in record.get("artifacts", {}).items():
            path = os.path.join(self.run_dir(fingerprint), relative)
            if not os.path.exists(path):
                raise StoreError(f"missing {kind} sidecar {relative!r}")

    def status(self, spec: ExperimentSpec) -> str:
        """``"hit"`` (valid record), ``"invalid"`` (present but bad) or
        ``"miss"``."""
        path = self.record_path(spec.fingerprint)
        if not os.path.exists(path):
            return "miss"
        try:
            self.load(spec.fingerprint)
        except StoreError:
            return "invalid"
        return "hit"

    def fingerprints(self) -> List[str]:
        """Every run directory that holds a ``record.json`` (sorted)."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if os.path.exists(self.record_path(name)):
                out.append(name)
        return out

    def records(self) -> Iterator[Tuple[str, Dict]]:
        """Yield ``(fingerprint, record)`` for every *valid* record."""
        for fingerprint in self.fingerprints():
            try:
                yield fingerprint, self.load(fingerprint)
            except StoreError:
                continue

    def invalid(self) -> List[Tuple[str, str]]:
        """``(fingerprint, reason)`` for every invalid stored record."""
        out = []
        for fingerprint in self.fingerprints():
            try:
                self.load(fingerprint)
            except StoreError as exc:
                out.append((fingerprint, str(exc)))
        return out
