"""Unit/property tests for the application algorithm cores."""

import dataclasses
import math
from typing import List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import DeterministicRandom
from repro.apps.barnes import (
    _EPS2,
    _G,
    _MAX_DEPTH,
    Body,
    advance,
    build_octree,
    check_reference,
    compute_force,
    make_bodies,
    sequential_steps,
)
from repro.apps.dfs import block_content, block_home, _LRUCache
from repro.apps.ocean import (
    make_grid,
    relax_row,
    row_partition,
    sequential_solve,
)
from repro.apps.radix import (
    digit_of,
    local_histogram,
    make_keys,
    passes_needed,
    radix_sort,
)
from repro.apps.render import make_volume, render_tile


# ----------------------------------------------------------------- radix --

def test_passes_needed():
    assert passes_needed(16, 16) == 1
    assert passes_needed(17, 16) == 2
    assert passes_needed(4096, 16) == 3


def test_digit_extraction():
    assert digit_of(0x3A7, 16, 0) == 0x7
    assert digit_of(0x3A7, 16, 1) == 0xA
    assert digit_of(0x3A7, 16, 2) == 0x3


def test_local_histogram_counts():
    keys = [0, 1, 1, 2, 15]
    hist = local_histogram(keys, 16, 0)
    assert hist[0] == 1 and hist[1] == 2 and hist[2] == 1 and hist[15] == 1
    assert sum(hist) == len(keys)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, 4095), max_size=300),
       radix=st.sampled_from([2, 4, 16, 64]))
def test_radix_sort_matches_sorted(keys, radix):
    assert radix_sort(keys, radix, 4096) == sorted(keys)


def test_make_keys_deterministic():
    a = make_keys(DeterministicRandom(5), 50, 100)
    b = make_keys(DeterministicRandom(5), 50, 100)
    assert a == b
    assert all(0 <= k < 100 for k in a)


# ----------------------------------------------------------------- ocean --

def test_grid_boundaries_fixed():
    grid = make_grid(10, DeterministicRandom(1))
    assert all(v == 1.0 for v in grid[0][1:-1])
    assert all(v == -1.0 for v in grid[9][1:-1])
    assert all(row[0] == 0.5 for row in grid[1:-1])
    assert all(row[-1] == -0.5 for row in grid[1:-1])


def test_relax_row_keeps_edges():
    row = [5.0, 1.0, 2.0, 5.0]
    out = relax_row([0.0] * 4, row, [0.0] * 4)
    assert out[0] == 5.0 and out[-1] == 5.0
    assert out[1] != row[1]


def test_relax_converges_toward_neighbor_average():
    above = [0.0, 4.0, 0.0]
    below = [0.0, 4.0, 0.0]
    row = [4.0, 0.0, 4.0]
    out = relax_row(above, row, below)
    assert 0.0 < out[1] <= 4.0


def test_sequential_solve_preserves_boundary_and_converges():
    grid = make_grid(12, DeterministicRandom(3))
    result = sequential_solve(grid, 50)
    assert result[0] == grid[0]
    # Interior must be bounded by boundary extremes.
    flat = [v for row in result[1:-1] for v in row[1:-1]]
    assert all(-1.0 <= v <= 1.0 for v in flat)


def test_row_partition_covers_interior_exactly():
    for n, p in ((34, 4), (34, 16), (66, 16), (10, 3)):
        rows = []
        for i in range(p):
            lo, hi = row_partition(n, p, i)
            rows.extend(range(lo, hi))
        assert rows == list(range(1, n - 1))


# ---------------------------------------------------------------- barnes --

def test_make_bodies_deterministic_and_massed():
    bodies = make_bodies(64, DeterministicRandom(9))
    again = make_bodies(64, DeterministicRandom(9))
    assert [(b.x, b.y) for b in bodies] == [(a.x, a.y) for a in again]
    assert sum(b.mass for b in bodies) == pytest.approx(1.0)


def test_octree_conserves_mass_and_com():
    bodies = make_bodies(100, DeterministicRandom(2))
    root, levels = build_octree(bodies)
    assert root.mass == pytest.approx(sum(b.mass for b in bodies))
    com_x = sum(b.x * b.mass for b in bodies) / root.mass
    assert root.mx == pytest.approx(com_x)
    assert levels >= 100


@settings(max_examples=25, deadline=None)
@given(count=st.integers(2, 60), seed=st.integers(0, 1000))
def test_octree_mass_conservation_property(count, seed):
    bodies = make_bodies(count, DeterministicRandom(seed))
    root, _ = build_octree(bodies)
    assert root.mass == pytest.approx(sum(b.mass for b in bodies))


def test_theta_zero_is_exact_pairwise():
    """With theta=0 the tree never opens approximations: forces equal the
    direct O(n^2) sum."""
    bodies = make_bodies(20, DeterministicRandom(4))
    root, _ = build_octree(bodies)
    for body in bodies:
        fx, fy, fz, _ = compute_force(root, body, theta=0.0)
        dfx = dfy = dfz = 0.0
        for other in bodies:
            if other is body:
                continue
            dx, dy, dz = other.x - body.x, other.y - body.y, other.z - body.z
            dist2 = dx * dx + dy * dy + dz * dz
            inv = 1.0 / math.sqrt((dist2 + 1e-4) ** 3)
            dfx += other.mass * inv * dx
            dfy += other.mass * inv * dy
            dfz += other.mass * inv * dz
        assert fx == pytest.approx(dfx, rel=1e-9)
        assert fy == pytest.approx(dfy, rel=1e-9)
        assert fz == pytest.approx(dfz, rel=1e-9)


def test_larger_theta_fewer_interactions():
    bodies = make_bodies(200, DeterministicRandom(8))
    root, _ = build_octree(bodies)
    exact = sum(compute_force(root, b, 0.0)[3] for b in bodies)
    approx = sum(compute_force(root, b, 1.0)[3] for b in bodies)
    assert approx < exact


def test_force_is_deterministic():
    bodies = make_bodies(50, DeterministicRandom(3))
    root, _ = build_octree(bodies)
    a = compute_force(root, bodies[7], 0.6)
    b = compute_force(root, bodies[7], 0.6)
    assert a == b


def test_advance_integrates():
    body = Body(0.0, 0.0, 0.0, 1.0)
    advance(body, 1.0, 0.0, 0.0, dt=0.5)
    assert body.vx == 0.5
    assert body.x == 0.25


def test_sequential_steps_deterministic():
    bodies = make_bodies(30, DeterministicRandom(6))
    a = sequential_steps(bodies, 2, 0.6, 0.05)
    b = sequential_steps(bodies, 2, 0.6, 0.05)
    assert [(x.x, x.vx) for x in a] == [(y.x, y.vx) for y in b]
    # The originals are untouched.
    assert bodies[0].vx != a[0].vx or bodies[0].x != a[0].x


def test_coincident_bodies_do_not_recurse_forever():
    bodies = [Body(0.5, 0.5, 0.5, 0.1) for _ in range(4)]
    root, _ = build_octree(bodies)
    assert root.mass == pytest.approx(0.4)


def _state(bodies):
    return [(b.x, b.y, b.z, b.mass, b.vx, b.vy, b.vz) for b in bodies]


def test_build_octree_leaves_coincident_inputs_unchanged():
    """Coincident bodies merge into one leaf's mass, not the caller's Body."""
    bodies = [Body(0.5, 0.5, 0.5, 0.1) for _ in range(3)]
    bodies.append(Body(-0.5, 0.0, 0.0, 0.2))
    before = _state(bodies)
    first, first_levels = build_octree(bodies)
    assert _state(bodies) == before
    again, again_levels = build_octree(bodies)
    assert again.mass == first.mass == pytest.approx(0.5)
    assert (again.mx, again.my, again.mz) == (first.mx, first.my, first.mz)
    assert again_levels == first_levels


def test_sequential_steps_keeps_masses_static():
    """The parallel apps rebuild bodies from static masses every step, so
    the reference must not grow a coincident body's mass either."""
    pair = [Body(0.25, 0.25, 0.25, 0.1), Body(0.25, 0.25, 0.25, 0.1)]
    before = _state(pair)
    final = sequential_steps(pair, 3, 0.6, 0.05)
    assert [b.mass for b in final] == [0.1, 0.1]
    assert _state(pair) == before



def test_check_reference_counts_diverged_values():
    bodies = make_bodies(8, DeterministicRandom(3))
    final = []
    for b in sequential_steps(bodies, 2, 0.6, 0.05):
        final.extend((b.x, b.y, b.z, b.vx, b.vy, b.vz))
    check_reference("Barnes-NX", final, bodies, 2, 0.6, 0.05)
    final[0] += 1.0
    final[7] += 1.0
    with pytest.raises(AssertionError, match=r"Barnes-NX .* \(2 values\)"):
        check_reference("Barnes-NX", final, bodies, 2, 0.6, 0.05)
    with pytest.raises(AssertionError, match=r"\(8 values\)"):
        check_reference("Barnes-NX", final[:-6], bodies, 2, 0.6, 0.05)

# The object-tree Barnes-Hut kernel the flat octree replaced, kept verbatim
# as the reference: a recursive build, then a stack walk that pushes
# children in reverse octant order.  It merges coincident bodies into the
# resident Body's mass, so it is only ever given copies.

@dataclasses.dataclass
class _RefNode:
    cx: float
    cy: float
    cz: float
    half: float
    body: Optional[Body] = None
    children: Optional[List[Optional["_RefNode"]]] = None
    mass: float = 0.0
    mx: float = 0.0
    my: float = 0.0
    mz: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def octant(self, body: Body) -> int:
        return (
            (1 if body.x >= self.cx else 0)
            | (2 if body.y >= self.cy else 0)
            | (4 if body.z >= self.cz else 0)
        )

    def child_cell(self, octant: int) -> "_RefNode":
        quarter = self.half / 2.0
        cx = self.cx + (quarter if octant & 1 else -quarter)
        cy = self.cy + (quarter if octant & 2 else -quarter)
        cz = self.cz + (quarter if octant & 4 else -quarter)
        return _RefNode(cx, cy, cz, quarter)


def _ref_insert(node, body, depth=0):
    if depth > _MAX_DEPTH:
        resident = node.body
        if resident is not None:
            resident.mass += body.mass
            return 1
    if node.is_leaf and node.body is None:
        node.body = body
        return 1
    if node.is_leaf:
        resident = node.body
        node.body = None
        node.children = [None] * 8
        levels = _ref_insert_into_child(node, resident, depth)
        return levels + _ref_insert_into_child(node, body, depth)
    return _ref_insert_into_child(node, body, depth)


def _ref_insert_into_child(node, body, depth):
    octant = node.octant(body)
    child = node.children[octant]
    if child is None:
        child = node.child_cell(octant)
        node.children[octant] = child
    return 1 + _ref_insert(child, body, depth + 1)


def _ref_summarize(node):
    if node.is_leaf:
        body = node.body
        if body is not None:
            node.mass = body.mass
            node.mx = body.x
            node.my = body.y
            node.mz = body.z
        return
    mass = wx = wy = wz = 0.0
    for child in node.children:
        if child is None:
            continue
        _ref_summarize(child)
        mass += child.mass
        wx += child.mx * child.mass
        wy += child.my * child.mass
        wz += child.mz * child.mass
    node.mass = mass
    if mass > 0:
        node.mx = wx / mass
        node.my = wy / mass
        node.mz = wz / mass


def _ref_build_octree(bodies):
    span = max(max(abs(b.x), abs(b.y), abs(b.z)) for b in bodies)
    root = _RefNode(0.0, 0.0, 0.0, max(span * 1.01, 1.0))
    levels = 0
    for body in bodies:
        levels += _ref_insert(root, body, 0)
    _ref_summarize(root)
    return root, levels


def _ref_compute_force(root, body, theta):
    fx = fy = fz = 0.0
    interactions = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.mass == 0.0:
            continue
        dx = node.mx - body.x
        dy = node.my - body.y
        dz = node.mz - body.z
        dist2 = dx * dx + dy * dy + dz * dz
        if node.is_leaf or (2.0 * node.half) ** 2 < theta * theta * dist2:
            if node.is_leaf and node.body is body:
                continue
            interactions += 1
            inv = 1.0 / math.sqrt((dist2 + _EPS2) ** 3)
            strength = _G * node.mass * inv
            fx += strength * dx
            fy += strength * dy
            fz += strength * dz
        else:
            for child in reversed(node.children):
                if child is not None:
                    stack.append(child)
    return fx, fy, fz, interactions


@st.composite
def _body_sets(draw):
    count = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 10_000))
    bodies = make_bodies(count, DeterministicRandom(seed))
    shape = draw(
        st.sampled_from(["plummer", "coincident", "axis", "diagonal", "lattice"])
    )
    if shape == "coincident":
        # Body i sits exactly on body i % k: k = 1 stacks every body.
        k = draw(st.integers(1, count))
        for i, b in enumerate(bodies):
            src = bodies[i % k]
            b.x, b.y, b.z = src.x, src.y, src.z
    elif shape == "axis":
        # On the x axis, so every y and z octant test is a tie.
        for b in bodies:
            b.y = b.z = 0.0
    elif shape == "diagonal":
        for b in bodies:
            b.y = b.z = b.x
    elif shape == "lattice":
        # Eighths in a root cell of half-size 1 with power-of-two masses:
        # centres of mass and cell sizes are exact, so distances tie with
        # cell sizes and the opening test's strict ``<`` decides.
        for b in bodies:
            b.x = math.floor(b.x * 4) / 8
            b.y = math.floor(b.y * 4) / 8
            b.z = math.floor(b.z * 4) / 8
            b.mass = 0.25
    return bodies


# A tie: the cell holding the first two bodies has size 1 and its centre of
# mass lies exactly 1 from the third, so theta = 1 must open it.
_TIE = [Body(0.25, 0.25, 0.25, 0.25), Body(0.75, 0.75, 0.75, 0.25),
        Body(-0.5, 0.5, 0.5, 0.25)]


@settings(max_examples=60, deadline=None)
@given(bodies=_body_sets(), theta=st.sampled_from([0.0, 0.3, 0.6, 1.0, 2.0]))
@example(bodies=_TIE, theta=1.0)
def test_flat_octree_matches_object_tree_reference(bodies, theta):
    """Same float operations in the same order: every result is equal."""
    ref_bodies = [dataclasses.replace(b) for b in bodies]
    ref_root, ref_levels = _ref_build_octree(ref_bodies)
    tree, levels = build_octree(bodies)
    assert levels == ref_levels
    assert (tree.mass, tree.mx, tree.my, tree.mz) == (
        ref_root.mass, ref_root.mx, ref_root.my, ref_root.mz
    )
    for body, ref_body in zip(bodies, ref_bodies):
        assert compute_force(tree, body, theta) == _ref_compute_force(
            ref_root, ref_body, theta
        )


# ------------------------------------------------------------------- dfs --

def test_block_content_deterministic_and_distinct():
    a = block_content(1, 2, 4096)
    assert a == block_content(1, 2, 4096)
    assert a != block_content(1, 3, 4096)
    assert len(a) == 4096


def test_block_home_round_robin():
    homes = {block_home(0, b, 4) for b in range(8)}
    assert homes == {0, 1, 2, 3}


def test_lru_cache_evicts_oldest():
    cache = _LRUCache(2)
    cache.put(("f", 0), b"a")
    cache.put(("f", 1), b"b")
    assert cache.get(("f", 0)) == b"a"  # refresh 0
    cache.put(("f", 2), b"c")           # evicts 1
    assert cache.get(("f", 1)) == b""
    assert cache.get(("f", 0)) == b"a"
    assert cache.hits == 2
    assert cache.misses == 1


# ---------------------------------------------------------------- render --

def test_volume_deterministic():
    assert make_volume(8, 1) == make_volume(8, 1)
    assert make_volume(8, 1) != make_volume(8, 2)


def test_render_tile_deterministic_and_positive():
    volume = make_volume(8, 3)
    tile = render_tile(volume, 8, 16, 8, 0)
    assert tile == render_tile(volume, 8, 16, 8, 0)
    assert len(tile) == 64
    assert all(v >= 0.0 for v in tile)


def test_tiles_cover_image_without_overlap():
    volume = make_volume(8, 3)
    image_size, tile_size = 16, 8
    seen = set()
    tiles_per_row = image_size // tile_size
    for tile_id in range(tiles_per_row**2):
        tx = (tile_id % tiles_per_row) * tile_size
        ty = (tile_id // tiles_per_row) * tile_size
        for py in range(ty, ty + tile_size):
            for px in range(tx, tx + tile_size):
                assert (px, py) not in seen
                seen.add((px, py))
    assert len(seen) == image_size**2
