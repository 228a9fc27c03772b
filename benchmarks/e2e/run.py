"""Host-time benchmark of the SHRIMP simulator (entry point).

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1998 [--seconds S] [--out DIR]
    python3 benchmarks/e2e/run.py --workload serve --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py reference

The first form runs every workload untraced and then traced, each in a
fresh child process, and prints every metric.  The second measures one
workload and prints its result as the last stdout line.  The third
regenerates ``reference.json``.  See README.md beside this file.

The simulator is imported from the ``src/`` directory of the checkout this
file sits in, never from anywhere else.  Without it, the benchmark exits
with a nonzero status and prints no result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    # String hashing feeds set/dict order; pin it so every invocation
    # simulates and allocates identically.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the simulator from {SRC}: {exc}")
    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != os.path.join(SRC, "repro"):
        sys.exit(f"imported repro from {found}, expected {SRC}")


if __name__ == "__main__":
    _bootstrap()
    import harness

    sys.exit(harness.main())
