"""Diagonal-walk reachability between lattice points.

A walk moves a point by one unit-cell diagonal per step (every coordinate
changes by +-1, staying inside the grid).  Connectivity is governed by the
parity index of :func:`core.index_of`: points are mutually reachable exactly
when their indexes agree, giving ``2**(p-1)`` orbits with sizes in closed
form.  :func:`find_walk` builds its walk from that law.  The oracles do not
assume it: :func:`find_walk_bfs` and :func:`bfs_component_ids` both run the
one breadth-first search of the kernels (:func:`kernels.bfs_from`), and the
test suite compares them with the law.
"""

from __future__ import annotations

import itertools

from arithbilliards import kernels
from arithbilliards.core import (
    DirectionMask,
    Frozen,
    GridSpec,
    OrbitIndex,
    Point,
    check_budget,
    decode_point,
    encode_point,
    index_of,
    lift,
    project,
    step_directed,
    validate_point,
)


class OrbitSummary(Frozen):
    __slots__ = ("index", "size", "sample")

    def __init__(self, index: OrbitIndex, size: int, sample: Point) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "sample", sample)


def same_orbit(p1: Point, p2: Point) -> bool:
    """True iff the two points can reach each other by diagonal walking."""
    if len(p1.coords) != len(p2.coords):
        raise ValueError(
            f"point arities differ: {len(p1.coords)} vs {len(p2.coords)}"
        )
    return index_of(p1) == index_of(p2)


def orbit_size(grid: GridSpec, index: OrbitIndex) -> int:
    """Closed-form size of the orbit with the given parity index.

    Splitting on the parity of the first coordinate: with ``e_i`` the count
    of even values and ``o_i`` the count of odd values in ``[0, m_i]``, the
    orbit holds the points whose coordinate parities all match the index with
    ``x_1`` even, plus those matching with ``x_1`` odd.
    """
    bits = index.bits
    if len(bits) != grid.p - 1:
        raise ValueError(f"index arity {len(bits)} does not match grid arity {grid.p}")
    total = 0
    for first_parity in (0, 1):
        prod = 1
        for m, delta in zip(grid.dims, (0,) + bits):
            want = (delta + first_parity) % 2
            # values in [0, m] with the wanted parity
            prod *= m // 2 + 1 if want == 0 else (m + 1) // 2
        total += prod
    return total


def orbit_partition(grid: GridSpec) -> list[OrbitSummary]:
    """One summary per parity index, in lexicographic index order.  More than
    the budget of them raise before any is built."""
    check_budget(2 ** (grid.p - 1), "orbits")
    out = []
    for bits in itertools.product((0, 1), repeat=grid.p - 1):
        idx = OrbitIndex(bits)
        sample = Point((0,) + bits)
        out.append(OrbitSummary(index=idx, size=orbit_size(grid, idx), sample=sample))
    return out


def orbit_sizes_bruteforce(grid: GridSpec) -> dict[tuple[int, ...], int]:
    """Count points per parity index by enumerating the whole grid.

    Every point's index is computed from its own coordinates and counted
    (:func:`kernels.parity_counts`): the index codes are tiled from one
    column per coordinate and counted with a ``Counter`` in blocks of
    bounded size, so memory does not grow with the grid.
    """
    check_budget(grid.n_points, "lattice points")
    p = grid.p
    return {tuple(code >> (p - 2 - i) & 1 for i in range(p - 1)): n
            for code, n in kernels.parity_counts(list(grid.dims)).items()}


def bfs_component_ids(grid: GridSpec) -> list[int]:
    """Component id per encoded lattice point under diagonal moves.

    The budget bounds the moves the search examines, one per point and
    allowed move: ``prod(2*m_i)``, at least the point count.
    """
    check_budget(grid.n_states, "BFS moves")
    return kernels.bfs_components(list(grid.dims))


def find_walk(grid: GridSpec, start: Point, goal: Point) -> list[DirectionMask] | None:
    """Lexicographically least shortest diagonal walk from ``start`` to ``goal``.

    Returns None when the parity indexes differ.  Otherwise the walk has
    ``k = max_i |x_i - y_i|`` steps.  At each step every coordinate moves +1
    when that stays inside the grid and leaves the goal coordinate within
    reach of the remaining steps, else -1; preferring +1 coordinate by
    coordinate gives the walk :func:`find_walk_bfs` returns.  The budget
    bounds the walk length ``k``.  The walk is replayed through
    :func:`core.step_directed` before returning.
    """
    validate_point(grid, start)
    validate_point(grid, goal)
    if index_of(start) != index_of(goal):
        return None
    k = max(abs(x - y) for x, y in zip(start.coords, goal.coords))
    check_budget(k, "walk steps")
    at = start.coords
    walk: list[DirectionMask] = []
    for left in range(k - 1, -1, -1):
        signs = tuple(
            0 if x < m and abs(x + 1 - y) <= left else 1
            for x, y, m in zip(at, goal.coords, grid.dims)
        )
        at = tuple(x + (1 if s == 0 else -1) for x, s in zip(at, signs))
        walk.append(DirectionMask(signs))
    _replay(grid, start, goal, walk)
    return walk


def find_walk_bfs(grid: GridSpec, start: Point, goal: Point) -> list[DirectionMask] | None:
    """Shortest diagonal walk from ``start`` to ``goal``, or None, by BFS.

    Runs the breadth-first search :func:`kernels.bfs_from` from ``start``,
    which explores the ``2**p`` move directions in lexicographic order, so
    the returned walk is deterministic, and reads the walk back from its
    parent links, each move's signs from the coordinate differences.  Kept as
    the oracle for :func:`find_walk`; the budget bounds the moves the search
    may examine, as in :func:`bfs_component_ids`, checked before anything is
    allocated.  The walk is replayed through :func:`core.step_directed` before
    returning.
    """
    validate_point(grid, start)
    validate_point(grid, goal)
    check_budget(grid.n_states, "BFS moves")
    parent = [-1] * grid.n_points
    origin = encode_point(grid, start)
    kernels.bfs_from(grid.dims, origin, parent)
    pid = encode_point(grid, goal)
    if parent[pid] < 0:
        return None
    trail = [pid]
    while pid != origin:
        pid = parent[pid]
        trail.append(pid)
    points = [decode_point(grid, pid).coords for pid in reversed(trail)]
    walk = [
        DirectionMask(tuple(0 if y > x else 1 for x, y in zip(here, there)))
        for here, there in zip(points, points[1:])
    ]
    _replay(grid, start, goal, walk)
    return walk


def _replay(grid: GridSpec, start: Point, goal: Point, walk: list[DirectionMask]) -> None:
    """Check ``walk`` against the phase dynamics; raise ArithmeticError if it
    leaves the grid or misses ``goal``."""
    state = lift(grid, start, DirectionMask.ascending(grid.p))
    at = start.coords
    for mask in walk:
        state = step_directed(grid, state, mask)
        nxt = project(grid, state).coords
        expected = tuple(c + (1 if s == 0 else -1) for c, s in zip(at, mask.signs))
        if nxt != expected:
            raise ArithmeticError(
                f"walk move {mask.to_string()} from {at} is rejected by the phase dynamics"
            )
        at = nxt
    if at != goal.coords:
        raise ArithmeticError(f"walk ends at {at}, not at the goal {goal.coords}")
