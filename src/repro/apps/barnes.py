"""Barnes-Hut: the hierarchical N-body core shared by both Barnes apps.

The SPLASH-2 Barnes application simulates gravitational interaction among a
system of particles.  The computational domain is an octree of space
cells; leaves hold particles.  Each time step rebuilds the octree from the
current body positions and computes forces by partially traversing the
tree with the standard opening criterion (cell size / distance < theta).

The implementation is fully deterministic — identical traversal and
accumulation order everywhere — so the parallel versions must match the
sequential reference bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "Body",
    "Octree",
    "make_bodies",
    "build_octree",
    "compute_force",
    "advance",
    "sequential_steps",
    "check_reference",
    "CYCLES_PER_INTERACTION",
    "CYCLES_PER_BODY_BUILD",
]

#: CPU cycles per body-cell interaction (distance, test, accumulate).
CYCLES_PER_INTERACTION = 60.0
#: CPU cycles per body per tree level during the rebuild.
CYCLES_PER_BODY_BUILD = 40.0

_EPS2 = 1e-4  # gravitational softening
_G = 1.0
_MAX_DEPTH = 24


@dataclass
class Body:
    x: float
    y: float
    z: float
    mass: float
    vx: float = 0.0
    vy: float = 0.0
    vz: float = 0.0

    def position(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)


class Octree:
    """A flat preorder octree: cell ``i``'s subtree is cells ``[i, end[i])``.

    Each cell is one index into parallel lists: its total mass
    (``masses``), its centre of mass (``xs``/``ys``/``zs``), ``size2`` =
    ``(2.0 * half) ** 2`` for the opening test, its body if it is a leaf
    (``leaf``, None for an inner cell) and the index where its subtree
    ends (``end``).  Children follow their parent in octant order 0..7, so
    stepping to ``i + 1`` opens a cell and jumping to ``end[i]`` skips it.
    Cell 0 is the root; ``mass`` and ``mx``/``my``/``mz`` read its values.
    """

    __slots__ = ("masses", "xs", "ys", "zs", "size2", "leaf", "end")

    def __init__(self) -> None:
        self.masses: List[float] = []
        self.xs: List[float] = []
        self.ys: List[float] = []
        self.zs: List[float] = []
        self.size2: List[float] = []
        self.leaf: List[Optional[Body]] = []
        self.end: List[int] = []

    @property
    def mass(self) -> float:
        return self.masses[0]

    @property
    def mx(self) -> float:
        return self.xs[0]

    @property
    def my(self) -> float:
        return self.ys[0]

    @property
    def mz(self) -> float:
        return self.zs[0]


def make_bodies(count: int, rng) -> List[Body]:
    """A deterministic Plummer-like cluster of ``count`` bodies."""
    bodies = []
    for _ in range(count):
        radius = 1.0 / math.sqrt(rng.uniform(0.05, 1.0) ** (-2.0 / 3.0) - 0.5)
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        bodies.append(
            Body(
                x=radius * math.sin(theta) * math.cos(phi),
                y=radius * math.sin(theta) * math.sin(phi),
                z=radius * math.cos(theta),
                mass=1.0 / count,
                vx=rng.uniform(-0.05, 0.05),
                vy=rng.uniform(-0.05, 0.05),
                vz=rng.uniform(-0.05, 0.05),
            )
        )
    return bodies


def build_octree(bodies: List[Body]) -> Tuple[Octree, int]:
    """Build the octree; returns (tree, total insertion levels).

    The tree is the one that inserting the bodies one at a time, in list
    order, would build, laid out in preorder.  That tree does not depend
    on the order: a cell less than ``_MAX_DEPTH + 1`` levels deep splits
    into octants exactly when two or more bodies fall in it, and a cell at
    that depth keeps its bodies as one leaf (coincident bodies merge).  So
    it is built top-down by partitioning the bodies among the octants.  A
    merged leaf keeps its first body and holds the masses summed in list
    order.  The levels are what the insertions descend: each body's depth
    plus one, and one more for each inner cell, whose first body was
    pushed down a level when the second arrived.  The input bodies are not
    modified.
    """
    if not bodies:
        raise ValueError("no bodies")
    span = max(
        max(abs(b.x), abs(b.y), abs(b.z)) for b in bodies
    )
    tree = Octree()
    masses, xs, ys, zs = tree.masses, tree.xs, tree.ys, tree.zs
    size2, leaf, end = tree.size2, tree.leaf, tree.end
    levels = 0

    def emit(
        members: List[Body], cx: float, cy: float, cz: float, half: float,
        depth: int,
    ) -> int:
        """Append the subtree of the cell holding ``members``; returns its
        index."""
        nonlocal levels
        i = len(masses)
        size2.append((2.0 * half) ** 2)
        end.append(0)
        if len(members) == 1 or depth > _MAX_DEPTH:
            first = members[0]
            mass = first.mass
            for other in members[1:]:
                mass += other.mass
            leaf.append(first)
            masses.append(mass)
            xs.append(first.x)
            ys.append(first.y)
            zs.append(first.z)
            levels += len(members) * (depth + 1)
        else:
            leaf.append(None)
            masses.append(0.0)
            xs.append(0.0)
            ys.append(0.0)
            zs.append(0.0)
            levels += 1
            octants: List[List[Body]] = [[], [], [], [], [], [], [], []]
            for b in members:
                octants[
                    (b.x >= cx) | ((b.y >= cy) << 1) | ((b.z >= cz) << 2)
                ].append(b)
            quarter = half / 2.0
            mass = wx = wy = wz = 0.0
            for octant, group in enumerate(octants):
                if group:
                    j = emit(
                        group,
                        cx + (quarter if octant & 1 else -quarter),
                        cy + (quarter if octant & 2 else -quarter),
                        cz + (quarter if octant & 4 else -quarter),
                        quarter,
                        depth + 1,
                    )
                    m = masses[j]
                    mass += m
                    wx += xs[j] * m
                    wy += ys[j] * m
                    wz += zs[j] * m
            masses[i] = mass
            if mass > 0:
                xs[i] = wx / mass
                ys[i] = wy / mass
                zs[i] = wz / mass
        end[i] = len(masses)
        return i

    emit(bodies, 0.0, 0.0, 0.0, max(span * 1.01, 1.0), 0)
    return tree, levels


def compute_force(
    tree: Octree, body: Body, theta: float
) -> Tuple[float, float, float, int]:
    """Barnes-Hut force on ``body``; returns (fx, fy, fz, interactions).

    One forward pass over the preorder cells.  A leaf, or a cell far
    enough away that ``size2 < theta**2 * dist2``, interacts and its
    subtree is skipped; any other cell is opened.  Massless cells and the
    body's own leaf are skipped without interacting.
    """
    masses, xs, ys, zs = tree.masses, tree.xs, tree.ys, tree.zs
    size2, leaf, end = tree.size2, tree.leaf, tree.end
    sqrt = math.sqrt
    x, y, z = body.x, body.y, body.z
    theta2 = theta * theta
    fx = fy = fz = 0.0
    interactions = 0
    i = 0
    n = len(masses)
    while i < n:
        mass = masses[i]
        if mass == 0.0:
            i = end[i]
            continue
        dx = xs[i] - x
        dy = ys[i] - y
        dz = zs[i] - z
        dist2 = dx * dx + dy * dy + dz * dz
        resident = leaf[i]
        if resident is not None or size2[i] < theta2 * dist2:
            i = end[i]
            if resident is body:
                continue
            interactions += 1
            inv = 1.0 / sqrt((dist2 + _EPS2) ** 3)
            strength = _G * mass * inv
            fx += strength * dx
            fy += strength * dy
            fz += strength * dz
        else:
            i += 1
    return fx, fy, fz, interactions


def advance(body: Body, fx: float, fy: float, fz: float, dt: float) -> None:
    """Leapfrog-ish integration of one body in place."""
    body.vx += fx * dt
    body.vy += fy * dt
    body.vz += fz * dt
    body.x += body.vx * dt
    body.y += body.vy * dt
    body.z += body.vz * dt


def sequential_steps(
    bodies: List[Body], steps: int, theta: float, dt: float
) -> List[Body]:
    """Reference simulation (used for validation)."""
    sim = [Body(b.x, b.y, b.z, b.mass, b.vx, b.vy, b.vz) for b in bodies]
    for _ in range(steps):
        root, _levels = build_octree(sim)
        forces = [compute_force(root, b, theta)[:3] for b in sim]
        for body, (fx, fy, fz) in zip(sim, forces):
            advance(body, fx, fy, fz, dt)
    return sim


def check_reference(
    name: str,
    final: List[float],
    bodies: List[Body],
    steps: int,
    theta: float,
    dt: float,
) -> None:
    """Raise unless ``final`` — (x, y, z, vx, vy, vz) per body — equals
    :func:`sequential_steps` from ``bodies`` exactly."""
    expected: List[float] = []
    for b in sequential_steps(bodies, steps, theta, dt):
        expected.extend((b.x, b.y, b.z, b.vx, b.vy, b.vz))
    if final != expected:
        bad = sum(1 for a, b in zip(final, expected) if a != b)
        bad += abs(len(final) - len(expected))
        raise AssertionError(f"{name} diverged from reference ({bad} values)")
