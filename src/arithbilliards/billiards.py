"""Trajectory simulation, path enumeration and counting, light reachability.

A trajectory is the orbit of a phase state under :func:`core.step`.  Every
orbit has length ``2*lcm(dims)``.  Undirected geometric paths come in two
kinds: an orbit that equals its own time reversal traces a path between two
grid vertices (open), while the remaining orbits pair up two-by-two into
closed loops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from arithbilliards import kernels
from arithbilliards.core import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    DirectionMask,
    GridSpec,
    PhaseState,
    Point,
    decode_state,
    encode_point,
    lift,
    phase_columns,
    project,
    solve_congruences,
    tent_columns,
    validate_mask,
    validate_point,
    validate_state,
)


class PathKind(str, Enum):
    CLOSED = "closed"
    OPEN = "open"


@dataclass(frozen=True)
class Path:
    """One undirected geometric path.

    ``representative`` is the lexicographically least phase state anywhere on
    the path (over both travel directions).  Open paths traverse each of
    their segments twice per period, so they have half as many distinct
    segments.
    """

    representative: PhaseState
    kind: PathKind
    step_length: int
    distinct_segments: int


@dataclass(frozen=True)
class Trajectory:
    points: tuple[Point, ...]
    states: tuple[PhaseState, ...]


@dataclass(frozen=True)
class ReachAnswer:
    reachable: bool
    witness_steps: int | None
    sign_choice: tuple[int, ...] | None


def step_length(grid: GridSpec) -> int:
    """Number of unit-diagonal steps in one full period: ``2*lcm(dims)``."""
    return 2 * grid.lcm


def geometric_length(grid: GridSpec) -> float:
    """Euclidean length of one closed-path period.

    Each step crosses a unit cell along its main diagonal, so the length is
    ``2*lcm(dims) * sqrt(p)``.
    """
    return step_length(grid) * math.sqrt(grid.p)


def simulate(grid: GridSpec, start: Point, mask: DirectionMask, n_steps: int,
             max_steps: int = DEFAULT_STATE_BUDGET) -> Trajectory:
    """Walk ``n_steps`` unit diagonals from ``start``, initially along ``mask``.

    The trajectory repeats every ``2*lcm(dims)`` steps, so only the first
    period (or less) of :class:`Point`/:class:`PhaseState` objects is built,
    from :func:`core.tent_columns` and :func:`core.phase_columns`; longer
    trajectories repeat references to those immutable objects.
    """
    validate_point(grid, start)
    validate_mask(grid, mask)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if n_steps > max_steps:
        raise BudgetExceededError(f"{n_steps} steps exceeds budget {max_steps}")
    period = step_length(grid)
    count = min(n_steps + 1, period)
    residues = lift(grid, start, mask).residues
    points = tuple(map(Point, zip(*tent_columns(grid, residues, count))))
    states = tuple(map(PhaseState, zip(*phase_columns(grid, residues, count))))
    if count < n_steps + 1:
        reps, rest = divmod(n_steps + 1, period)
        points = points * reps + points[:rest]
        states = states * reps + states[:rest]
    return Trajectory(points, states)


def first_closure(grid: GridSpec, state: PhaseState, limit: int) -> int | None:
    """Least ``k`` in ``[1, limit]`` at which the trajectory from ``state``
    re-reads both its start position and the position one step before it.

    This is the operational definition of one full loop; it always equals
    ``2*lcm(dims)`` (checked exhaustively by the acceptance suite), so this
    function doubles as the iteration oracle for :func:`step_length`.  The
    loop is :func:`kernels.least_closure`, shared with that acceptance sweep.
    """
    validate_state(grid, state)
    return kernels.least_closure(grid.two_m, state.residues, limit)


def classify_path(grid: GridSpec, state: PhaseState) -> PathKind:
    """OPEN iff the orbit of ``state`` is its own time reversal.

    The reversal of the orbit of ``u`` is the orbit of ``-u``; they coincide
    exactly when ``k = -2*u_i (mod 2*m_i)`` has a common solution, which is
    also exactly when the orbit passes through a grid vertex.
    """
    validate_state(grid, state)
    residues = [(-2 * u) % tm for u, tm in zip(state.residues, grid.two_m)]
    if solve_congruences(residues, grid.two_m) is not None:
        return PathKind.OPEN
    return PathKind.CLOSED


def _path(representative: PhaseState, is_open: bool, k: int) -> Path:
    kind = PathKind.OPEN if is_open else PathKind.CLOSED
    return Path(representative, kind, k, k // 2 if is_open else k)


def enumerate_paths(grid: GridSpec, max_states: int = DEFAULT_STATE_BUDGET) -> list[Path]:
    """All geometric paths of the grid, from the canonical states of the step orbits.

    The step orbits are the cosets of the diagonal ``(1, ..., 1)`` in
    ``prod Z_{2*m_i}``.  The least state of an orbit is ``(0, r_2, ..., r_p)``
    with ``0 <= r_i < g_i = gcd(lcm(2*m_1, ..., 2*m_{i-1}), 2*m_i)``, and every
    such tuple is the least state of exactly one orbit.  A path is an orbit
    ``c`` together with the orbit of ``-c``; it is reported once, from the
    smaller of the two least states, and is open when they coincide.

    Returns one :class:`Path` per geometric path in ascending order of
    representative, exactly as :func:`enumerate_paths_exhaustive` does.
    ``max_states`` bounds the number of orbits,
    ``prod(2*m_i) / (2*lcm(dims))``.
    """
    k = step_length(grid)
    n_orbits = grid.n_states // k
    if n_orbits > max_states:
        raise BudgetExceededError(f"grid has {n_orbits} step orbits, budget is {max_states}")
    # per coordinate after the first: its modulus, the lcm of the moduli
    # before it, their gcd g, and the inverse of lcm/g modulo 2*m_i/g
    moduli = []
    lcm = grid.two_m[0]
    for tm in grid.two_m[1:]:
        g = math.gcd(lcm, tm)
        moduli.append((tm, lcm, g, tm // g, pow(lcm // g, -1, tm // g)))
        lcm = lcm // g * tm
    paths = []
    for tail in itertools.product(*[range(g) for _, _, g, _, _ in moduli]):
        # least state on the orbit of -c, whose first coordinate is already 0:
        # shifting by a multiple of the lcm of the earlier moduli keeps the
        # earlier coordinates and brings coordinate i down to its value mod g
        shift = 0
        least = []
        for c, (tm, before, g, tg, inv) in zip(tail, moduli):
            v = (shift - c) % tm
            shift += before * (-(v // g) * inv % tg)
            least.append(v % g)
        reverse_tail = tuple(least)
        if tail <= reverse_tail:
            paths.append(_path(PhaseState((0,) + tail), tail == reverse_tail, k))
    return paths


def enumerate_paths_exhaustive(grid: GridSpec,
                               max_states: int = DEFAULT_STATE_BUDGET) -> list[Path]:
    """All geometric paths of the grid, by exhaustive orbit tracing.

    Partitions every phase state into step orbits, pairs each orbit with its
    reversal, and reports one :class:`Path` per geometric path in ascending
    order of representative.  Independent of the counting formulas and of
    :func:`enumerate_paths`, which it is used to cross-check.
    """
    n_states = grid.n_states
    if n_states > max_states:
        raise BudgetExceededError(
            f"grid has {n_states} phase states, budget is {max_states}"
        )
    k = step_length(grid)
    return [
        _path(decode_state(grid, rep_idx), bool(is_open), k)
        for rep_idx, is_open in kernels.trace_paths(list(grid.two_m))
    ]


def count_closed(grid: GridSpec) -> int:
    """Closed-path count by formula: ``2**(p-2) * (prod(dims)/lcm(dims) - 1)``.

    For ``p == 2`` this is ``gcd(m_1, m_2) - 1``.
    """
    quarter = 2 ** (grid.p - 2)
    return quarter * (math.prod(grid.dims) // grid.lcm) - quarter


def count_open(grid: GridSpec) -> int:
    """Open-path count: ``2**(p-1)`` (one per pair of grid vertices)."""
    return 2 ** (grid.p - 1)


def boundary_hits(grid: GridSpec, path: Path) -> int:
    """Boundary states visited in one full period of ``path``.

    A state is on the boundary when some coordinate sits at a wall
    (``u_i`` equal to 0 or ``m_i``).  For closed paths of a 2-D grid this
    equals ``2*(m_1 + m_2) / gcd(m_1, m_2)``.

    Coordinate ``i`` is at a wall at step ``k`` exactly when
    ``k = -u_i (mod m_i)``, so those steps are marked in one sieve over the
    period.  The period is bounded by ``DEFAULT_STATE_BUDGET``.
    """
    period = path.step_length
    if period > DEFAULT_STATE_BUDGET:
        raise BudgetExceededError(f"period {period} exceeds budget {DEFAULT_STATE_BUDGET}")
    hits = bytearray(period)
    for u, m in zip(path.representative.residues, grid.dims):
        first = (-u) % m
        hits[first::m] = b"\x01" * len(range(first, period, m))
    return hits.count(1)


def coordinate_sums(grid: GridSpec, start: PhaseState,
                    max_steps: int = DEFAULT_STATE_BUDGET) -> tuple[int, ...]:
    """Per-coordinate position sums over one full period from ``start``.

    Direct summation over ``k = 0 .. 2*lcm(dims)-1`` by
    :func:`kernels.period_sums`; equals ``m_i * lcm(dims)`` per coordinate
    regardless of the start state.
    """
    validate_state(grid, start)
    period = step_length(grid)
    if period > max_steps:
        raise BudgetExceededError(f"period {period} exceeds budget {max_steps}")
    return tuple(kernels.period_sums(grid.dims, start.residues))


def _sign_tuples(p: int):
    return itertools.product((0, 1), repeat=p)


def light_reachable(grid: GridSpec, source: Point, mask: DirectionMask,
                    target: Point) -> ReachAnswer:
    """Does the trajectory from ``source`` (lifted along ``mask``) ever pass
    through ``target``?  Decided by congruences, without iterating.

    The trajectory reaches ``target`` at step ``k`` iff ``u_i + k`` lands on
    one of the (at most two) phase lifts of each target coordinate, i.e. the
    system ``k = v_i - u_i (mod 2*m_i)`` is solvable for some choice of lift
    signs.  All ``2**p`` sign choices are tried in lexicographic order and
    the least witness wins (ties keep the lexicographically first signs).
    """
    validate_point(grid, source)
    validate_point(grid, target)
    validate_mask(grid, mask)
    two_m = grid.two_m
    u = lift(grid, source, mask).residues
    best: int | None = None
    best_signs: tuple[int, ...] | None = None
    for signs in _sign_tuples(grid.p):
        residues = [
            ((t if s == 0 else (tm - t) % tm) - ui) % tm
            for t, s, ui, tm in zip(target.coords, signs, u, two_m)
        ]
        k = solve_congruences(residues, two_m)
        if k is not None and (best is None or k < best):
            best = k
            best_signs = signs
    if best is None:
        return ReachAnswer(False, None, None)
    return ReachAnswer(True, best, best_signs)


def light_reachable_oracle(grid: GridSpec, source: Point, mask: DirectionMask,
                           target: Point,
                           max_steps: int = DEFAULT_STATE_BUDGET) -> ReachAnswer:
    """Same contract as :func:`light_reachable`, decided by walking the full
    ``2*lcm(dims)`` period.  Kept independent as a cross-check.

    The walk is :func:`kernels.first_visits`, the first-visit walk that
    :func:`kernels.reach_scan` also runs, taken in blocks of
    :data:`kernels.BLOCK` steps up to the first block that visits ``target``.
    """
    validate_point(grid, source)
    validate_point(grid, target)
    validate_mask(grid, mask)
    period = step_length(grid)
    if period > max_steps:
        raise BudgetExceededError(f"period {period} exceeds budget {max_steps}")
    p = grid.p
    u = lift(grid, source, mask).residues
    tgt = encode_point(grid, target)
    for k0 in range(0, period, kernels.BLOCK):
        code = kernels.first_visits(grid.dims, u, k0, min(kernels.BLOCK, period - k0)).get(tgt)
        if code is not None:
            k, signs = divmod(code, 1 << p)
            return ReachAnswer(True, k, tuple(signs >> (p - 1 - i) & 1 for i in range(p)))
    return ReachAnswer(False, None, None)
