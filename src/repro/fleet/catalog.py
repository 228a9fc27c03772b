"""Declarative experiment catalogs: specs, fingerprints and matrices.

An :class:`ExperimentSpec` names one run of one fleet workload — which
workload, which platform profile, which named fault plan, how many nodes,
which seed, plus workload-specific knobs — as a frozen dataclass whose
:attr:`~ExperimentSpec.fingerprint` is a stable content hash of exactly
those fields.  The fingerprint is the identity of the run everywhere
downstream: the run store keys artifact directories by it, the runner
uses it for cache hits, and the explorer resolves prefixes of it.  Since
every run is deterministic, (fingerprint, code version) fully determines
the record bytes.

A :class:`Catalog` is a named list of specs.  The usual way to build one
is a **matrix** document — the cross product of axis lists::

    {
      "name": "coll-sweep",
      "matrix": {
        "workload": ["coll"],
        "params": [{"mode": "nx"}, {"mode": "tree-nic"}],
        "nodes": [8, 16],
        "fault_plan": ["none"],
        "seed": [1998]
      }
    }

``load_catalog`` accepts a path to such a JSON document or the name of a
built-in matrix (``smoke``, ``demos``, ``largemesh``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "SPEC_SCHEMA",
    "ExperimentSpec",
    "make_spec",
    "Catalog",
    "expand_matrix",
    "load_catalog",
    "BUILTIN_MATRICES",
]

#: Versioned into every fingerprint: bump to invalidate all cached runs.
SPEC_SCHEMA = 1

#: The JSON type of each spec field but ``params``.
_FIELD_TYPES = (("workload", str), ("platform", str), ("fault_plan", str),
                ("nodes", int), ("seed", int))

#: JSON scalar types allowed as spec parameter values (content-hashable).
_SCALARS = (str, int, float, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of the experiment matrix (hashable, content-addressed)."""

    #: Fleet workload name: an entry of
    #: :data:`repro.fleet.workloads.WORKLOADS` (``app``, ``coll``, ...).
    workload: str
    #: Platform profile (``shrimp`` or ``myrinet``; see study.platforms).
    platform: str = "shrimp"
    #: Named fault plan (see :data:`repro.fleet.workloads.FAULT_PLANS`).
    fault_plan: str = "none"
    #: Mesh size for workloads that take one.
    nodes: int = 16
    #: Master seed for the run.
    seed: int = 1998
    #: Workload knobs as sorted (key, scalar) pairs — use :func:`make_spec`.
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        for name, kind in _FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(
                    f"spec field {name!r} must be a JSON {kind.__name__}, "
                    f"got {value!r}"
                )
        if self.nodes < 1:
            raise ValueError(
                f"spec field 'nodes' must be >= 1, got {self.nodes}"
            )
        for key, value in self.params:
            if not isinstance(key, str) or not isinstance(value, _SCALARS):
                raise ValueError(
                    f"spec params must map str -> JSON scalar, got "
                    f"{key!r}={value!r}"
                )
        if list(self.params) != sorted(self.params, key=lambda kv: kv[0]):
            raise ValueError("spec params must be sorted by key (use make_spec)")

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_json(self) -> Dict:
        """The canonical JSON form (what the fingerprint hashes)."""
        return {
            "schema": SPEC_SCHEMA,
            "workload": self.workload,
            "platform": self.platform,
            "fault_plan": self.fault_plan,
            "nodes": self.nodes,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "ExperimentSpec":
        if not isinstance(doc, dict) or "workload" not in doc:
            raise ValueError(
                "a spec must be a JSON object with a 'workload' field, "
                f"got {type(doc).__name__} {doc!r:.60}"
            )
        schema = doc.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(f"unsupported spec schema {schema!r}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(
                f"spec field 'params' must be a JSON object, got {params!r}"
            )
        return cls(
            workload=doc["workload"],
            platform=doc.get("platform", "shrimp"),
            fault_plan=doc.get("fault_plan", "none"),
            nodes=doc.get("nodes", 16),
            seed=doc.get("seed", 1998),
            params=tuple(sorted(params.items())),
        )

    @property
    def fingerprint(self) -> str:
        """Stable 64-bit content hash of the spec (16 hex chars).

        A pure function of :meth:`to_json` — field order, param order and
        float formatting are all canonicalized — so the same experiment
        always lands in the same ``runs/<fingerprint>/`` directory.
        """
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """One-line human summary (workload plus distinguishing knobs)."""
        knobs = [f"{k}={v}" for k, v in self.params]
        if self.platform != "shrimp":
            knobs.append(f"platform={self.platform}")
        if self.fault_plan != "none":
            knobs.append(f"fault={self.fault_plan}")
        knobs.append(f"nodes={self.nodes}")
        knobs.append(f"seed={self.seed}")
        return f"{self.workload} " + " ".join(knobs)


def make_spec(
    workload: str,
    platform: str = "shrimp",
    fault_plan: str = "none",
    nodes: int = 16,
    seed: int = 1998,
    **params,
) -> ExperimentSpec:
    """Build a spec with params canonically sorted by key."""
    return ExperimentSpec(
        workload=workload,
        platform=platform,
        fault_plan=fault_plan,
        nodes=nodes,
        seed=seed,
        params=tuple(sorted(params.items())),
    )


@dataclass
class Catalog:
    """A named, ordered, duplicate-free list of experiment specs."""

    name: str
    specs: List[ExperimentSpec] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        unique = []
        for spec in self.specs:
            if spec.fingerprint not in seen:
                seen.add(spec.fingerprint)
                unique.append(spec)
        self.specs = unique

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)


def _axis(matrix: Dict, key: str, default: list) -> list:
    value = matrix.get(key, default)
    if not isinstance(value, list):
        value = [value]
    if not value:
        raise ValueError(f"matrix axis {key!r} is empty")
    return value


def expand_matrix(doc: Dict) -> List[ExperimentSpec]:
    """Cross-product expansion of one matrix document.

    Raises ``ValueError`` naming the bad field of a malformed document.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"a catalog must be a JSON object, got {type(doc).__name__}"
        )
    matrix = doc.get("matrix")
    spec_docs = doc.get("specs", [])
    if not isinstance(matrix, (dict, type(None))):
        raise ValueError("catalog field 'matrix' must be a JSON object")
    if not isinstance(spec_docs, list):
        raise ValueError("catalog field 'specs' must be a JSON list")
    cells = []
    if matrix is not None:
        axes = {
            key: _axis(matrix, key, default)
            for key, default in (
                ("workload", []), ("platform", ["shrimp"]),
                ("fault_plan", ["none"]), ("nodes", [16]), ("seed", [1998]),
                ("params", [{}]),
            )
        }
        cells = [
            dict(zip(axes, cell)) for cell in itertools.product(*axes.values())
        ]
    specs = [ExperimentSpec.from_json(cell) for cell in cells + spec_docs]
    if not specs:
        raise ValueError("catalog document produced no specs")
    return specs


#: Built-in matrices, usable as ``--matrix <name>``.
BUILTIN_MATRICES: Dict[str, Dict] = {
    # The CI fleet-smoke matrix: host-dissemination vs NIC-resident
    # barriers at 8 and 16 nodes — 4 specs, and the 16-node pair is the
    # published cpu-share-collapse comparison.
    "smoke": {
        "name": "smoke",
        "matrix": {
            "workload": ["coll"],
            "params": [{"mode": "nx"}, {"mode": "tree-nic"}],
            "nodes": [8, 16],
        },
    },
    # The demo runs, read back with `explore drill|show`: DU and reliable
    # 2 KB pings (the span tree of one send), a traced suite application,
    # and the monitor-armed fault scenarios (trip reports, postmortems).
    "demos": {
        "name": "demos",
        "matrix": {"workload": ["monitor"], "params": [
            {"scenario": scenario}
            for scenario in ("outage", "overflow", "fanin", "serve-smoke")
        ]},
        "specs": [
            {"workload": "ping", "nodes": 2,
             "params": {"nbytes": 2048, "ops": 1, "reliable": reliable}}
            for reliable in (0, 1)
        ] + [{"workload": "app", "nodes": 4,
              "params": {"app": "Radix-VMMC", "mode": "du"}}],
    },
    # Large-mesh latency under the shard model, past the paper scale.
    # Virtual-time results only, so records regenerate byte-identically
    # on any host.
    "largemesh": {
        "name": "largemesh",
        "matrix": {
            "workload": ["shard"],
            "params": [{"pattern": "uniform"}, {"pattern": "transpose"}],
            "nodes": [64, 256],
        },
    },
}


def load_catalog(path_or_name: str) -> Catalog:
    """Load a catalog from a JSON file path or a built-in matrix name.

    Raises ``ValueError`` for a malformed document, an unknown workload
    or a param its workload does not read.
    """
    from .workloads import resolve_workload

    if os.path.isfile(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        name = os.path.splitext(os.path.basename(path_or_name))[0]
    elif path_or_name in BUILTIN_MATRICES:
        doc = BUILTIN_MATRICES[path_or_name]
        name = None
    else:
        raise ValueError(
            f"no catalog file {path_or_name!r} and no built-in matrix of "
            f"that name; built-ins: {sorted(BUILTIN_MATRICES)}"
        )
    specs = expand_matrix(doc)
    name = doc.get("name") or name
    if not isinstance(name, str):
        raise ValueError(f"catalog field 'name' must be a string, got {name!r}")
    for spec in specs:
        resolve_workload(spec.workload).check(spec)
    return Catalog(name=name, specs=specs)
