"""Shared fixtures for the evaluation benchmarks.

The session ``runner`` serves every app run the ``study all`` families
ask for: they are planned once, run once each on this process's CPUs,
and every table/figure module reads the same records — the whole
evaluation regenerates in a single pytest invocation::

    pytest benchmarks/ --benchmark-only -s
"""

import os

import pytest

from repro.study import ExperimentRunner

#: The paper evaluates on 16 nodes.
PAPER_NODES = 16


@pytest.fixture(scope="session")
def runner():
    from repro.study.__main__ import FAMILIES

    planner = ExperimentRunner()
    for _description, in_all, emitter in FAMILIES.values():
        if in_all:
            emitter(planner, PAPER_NODES)
    return planner.execute(workers=len(os.sched_getaffinity(0)))


@pytest.fixture(scope="session")
def nodes():
    return PAPER_NODES


def emit(text: str) -> None:
    """Print a reproduction artifact (run with -s to see it inline)."""
    print("\n" + text + "\n")
