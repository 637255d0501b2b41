"""Trajectory simulation, path enumeration and counting, light reachability.

A trajectory is the orbit of a phase state under :func:`core.step`.  Every
orbit has length ``2*lcm(dims)``.  Undirected geometric paths come in two
kinds: an orbit that equals its own time reversal traces a path between two
grid vertices (open), while the remaining orbits pair up two-by-two into
closed loops.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from itertools import cycle, islice, product, repeat
from operator import eq

from arithbilliards import kernels
from arithbilliards.core import (
    DirectionMask,
    Frozen,
    GridSpec,
    PhaseState,
    Point,
    _cycle,
    _lift_residues,
    _merge_stage,
    check_budget,
    crt_stages,
    decode_state,
    solve_congruences,
    validate_count,
    validate_mask,
    validate_point,
    validate_state,
)


class PathKind(str, Enum):
    CLOSED = "closed"
    OPEN = "open"


class Path(Frozen):
    """One undirected geometric path.

    ``representative`` is the lexicographically least phase state anywhere on
    the path (over both travel directions).  Open paths traverse each of
    their segments twice per period, so they have half as many distinct
    segments.
    """

    __slots__ = ("representative", "kind", "step_length", "distinct_segments")

    def __init__(self, representative: PhaseState, kind: PathKind, step_length: int,
                 distinct_segments: int) -> None:
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "step_length", step_length)
        object.__setattr__(self, "distinct_segments", distinct_segments)


class PeriodicSequence(Sequence):
    """A read-only sequence of ``length`` items, item ``k`` being
    ``kind((c[k % len(c)] for c in cycles))``: one repeating cycle per coordinate.

    Items are built on access.  Indexes may be negative; a slice returns a
    tuple.  It equals any tuple or sequence of this class with the same
    items, and hashes as that tuple does.  Its fields refuse assignment and
    it pickles as :class:`core.Frozen` values do, but it is not one: it
    compares and prints as a sequence.
    """

    __slots__ = ("kind", "cycles", "length")
    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__
    __reduce__ = Frozen.__reduce__

    def __init__(self, kind: type, cycles, length: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cycles", tuple(cycles))
        object.__setattr__(self, "length", length)

    def rows(self, ks: range | None = None):
        """The coordinate tuples of the items at the indexes ``ks`` (a ``range``
        within ``0 .. length-1``; all of them by default), without building items.

        Over any ``range`` a coordinate's entries repeat with a period that
        divides its cycle length ``L``, so the first ``L`` of them, cycled, are
        all of them.
        """
        if ks is None:
            ks = range(self.length)
        return zip(*[islice(cycle([c[k % len(c)] for k in ks[:len(c)]]), len(ks))
                     for c in self.cycles])

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.kind, self.rows(range(*key.indices(self.length)))))
        try:
            k = range(self.length)[key]  # TypeError for a non-index
        except IndexError:
            raise IndexError(f"step {key!r} outside 0..{self.length - 1}") from None
        return self.kind(tuple([c[k % len(c)] for c in self.cycles]))

    def __iter__(self):
        return map(self.kind, self.rows())

    def __eq__(self, other):
        if isinstance(other, (tuple, PeriodicSequence)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        head = ", ".join(map(repr, self[:3])) + (", ..." if self.length > 3 else "")
        return f"{type(self).__qualname__}([{head}], length={self.length})"


class Trajectory(Frozen):
    """The points and phase states of steps ``0 .. n``, as two sequences of
    equal length: the :class:`PeriodicSequence` pair :func:`simulate` returns,
    or tuples."""

    __slots__ = ("points", "states")

    def __init__(self, points: Sequence[Point], states: Sequence[PhaseState]) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "states", states)


class ReachAnswer(Frozen):
    """Whether a trajectory reaches a target, the least step ``k`` it does, and in
    ``sign_choice`` the target-lift signs (1 = ``-x_i mod 2*m_i``) met at step ``k``."""

    __slots__ = ("reachable", "witness_steps", "sign_choice")

    def __init__(self, reachable: bool, witness_steps: int | None,
                 sign_choice: tuple[int, ...] | None) -> None:
        object.__setattr__(self, "reachable", reachable)
        object.__setattr__(self, "witness_steps", witness_steps)
        object.__setattr__(self, "sign_choice", sign_choice)


def step_length(grid: GridSpec) -> int:
    """Number of unit-diagonal steps in one full period: ``2*lcm(dims)``."""
    return 2 * grid.lcm


def geometric_length(grid: GridSpec) -> float:
    """Euclidean length of one closed-path period.

    Each step crosses a unit cell along its main diagonal, so the length is
    ``2*lcm(dims) * sqrt(p)``.
    """
    return step_length(grid) * math.sqrt(grid.p)


def simulate(grid: GridSpec, start: Point, mask: DirectionMask, n_steps: int) -> Trajectory:
    """Walk ``n_steps`` unit diagonals from ``start``, initially along ``mask``.

    Coordinate ``i`` of step ``k`` is phase ``(u_i + k) mod 2*m_i`` and position
    ``m_i - |m_i - (u_i + k) mod 2*m_i|``, so the trajectory's points and states
    are :class:`PeriodicSequence` objects of ``n_steps + 1`` items over one cycle
    of at most ``2*m_i`` entries per coordinate: memory is
    ``sum(min(n_steps + 1, 2*m_i))``, not one object per step.  The steps are
    charged to the budget all the same.
    """
    validate_point(grid, start)
    validate_mask(grid, mask)
    validate_count("n_steps", n_steps)
    check_budget(n_steps, "steps")
    n = n_steps + 1
    phases = [_cycle(u, tm, n) for u, tm in zip(_lift_residues(grid, start, mask), grid.two_m)]
    positions = [tuple([m - abs(m - r) for r in c]) for c, m in zip(phases, grid.dims)]
    return Trajectory(PeriodicSequence(Point, positions, n), PeriodicSequence(PhaseState, phases, n))


def first_closure(grid: GridSpec, state: PhaseState, limit: int) -> int | None:
    """Least ``k`` in ``[1, limit]`` at which the trajectory from ``state``
    re-reads both its start position and the position one step before it.

    This is the operational definition of one full loop; it always equals
    ``2*lcm(dims)`` (checked exhaustively by the acceptance suite), so this
    function doubles as the iteration oracle for :func:`step_length`.  The
    loop is :func:`kernels.least_closure`, shared with that acceptance sweep.
    It walks at most ``min(limit, 2*lcm(dims))`` steps, charged beforehand.
    """
    validate_state(grid, state)
    validate_count("limit", limit)
    check_budget(min(limit, step_length(grid)), "period steps")
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


def validate_path(grid: GridSpec, path: Path) -> None:
    """Reject a :class:`Path` from another grid: its representative must be a
    state of ``grid`` and its step length ``2*lcm(dims)``."""
    validate_state(grid, path.representative)
    if path.step_length != step_length(grid):
        raise ValueError(f"path step length {path.step_length} does not match "
                         f"2*lcm{grid.dims!r} = {step_length(grid)}")


def _path(representative: PhaseState, is_open: bool, k: int) -> Path:
    kind = PathKind.OPEN if is_open else PathKind.CLOSED
    return Path(representative, kind, k, k // 2 if is_open else k)


def enumerate_paths(grid: GridSpec) -> list[Path]:
    """All geometric paths of the grid, from the canonical states of the step orbits.

    The step orbits are the cosets of the diagonal ``(1, ..., 1)`` in
    ``prod Z_{2*m_i}``.  The least state of an orbit is ``(0, c_2, ..., c_p)``
    with ``0 <= c_i < g_i = gcd(lcm(2*m_1, ..., 2*m_{i-1}), 2*m_i)``, and every
    such tuple is the least state of exactly one orbit.  A path is an orbit
    ``c`` together with the orbit of ``-c``; it is reported once, from the
    smaller of the two least states, and is open when they coincide.

    The comparison is decided at the first coordinate that differs.  Under a
    prefix equal to its reversal's, coordinate ``i`` of the reversal's least
    state is ``low = (shift - c) mod g_i``, ``shift`` being the step (a
    multiple of ``2*m_1``) that brings the reversal's earlier coordinates to
    their least values.  With ``s = shift mod g_i``, which is even as ``g_i``
    is, ``c < low`` on ``0 <= c < s/2`` and on ``s < c < (s + g_i)/2``: every
    extension is a closed path, emitted as a block.  ``c == low`` at
    ``c = s/2`` and at ``c = (s + g_i)/2``: the walk descends there, and its
    ``2**(p-1)`` leaves are the open paths.  Every other ``c`` is the larger
    of its pair and is skipped.

    Returns one :class:`Path` per geometric path in ascending order of
    representative, exactly as :func:`enumerate_paths_exhaustive` does.
    The budget bounds the number of orbits, ``prod(2*m_i) / (2*lcm(dims))``.
    """
    k = step_length(grid)
    check_budget(grid.n_states // k, "step orbits")
    # the coordinates after the first, each with the lcm of the moduli
    # before it, their gcd g, and the inverse of lcm/g modulo 2*m_i/g
    stages = crt_stages(grid.two_m)[1:]
    ranges = [range(g) for _, _, g, _, _ in stages]
    paths = []
    closed = (repeat(PathKind.CLOSED), repeat(k), repeat(k))

    def descend(prefix, shift, i):
        if i == len(stages):
            paths.append(_path(PhaseState(prefix), True, k))
            return
        _, tm, g, lcm_g, inv = stages[i]
        half = shift % g // 2
        for first, c in ((0, half), (2 * half + 1, half + g // 2)):
            block = product(range(first, c), *ranges[i + 1:])
            paths.extend(map(Path, map(PhaseState, map(prefix.__add__, block)), *closed))
            # shifting by a multiple of the lcm of the earlier moduli keeps
            # the earlier coordinates and brings coordinate i down to c
            v = (shift - c) % tm
            descend(prefix + (c,), shift + lcm_g * ((c - v) * inv % tm), i + 1)

    descend((0,), 0, 0)
    return paths


def enumerate_paths_exhaustive(grid: GridSpec) -> list[Path]:
    """All geometric paths of the grid, by exhaustive orbit tracing.

    Partitions every phase state into step orbits, pairs each orbit with its
    reversal, and reports one :class:`Path` per geometric path in ascending
    order of representative.  Independent of the counting formulas and of
    :func:`enumerate_paths`, which it is used to cross-check.
    """
    check_budget(grid.n_states, "phase states")
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
    period.  The budget bounds the period.
    """
    validate_path(grid, path)
    period = path.step_length
    check_budget(period, "period steps")
    hits = bytearray(period)
    for u, m in zip(path.representative.residues, grid.dims):
        first = (-u) % m
        hits[first::m] = b"\x01" * len(range(first, period, m))
    return hits.count(1)


def coordinate_sums(grid: GridSpec, start: PhaseState) -> tuple[int, ...]:
    """Per-coordinate position sums over one full period from ``start``.

    Direct summation over ``k = 0 .. 2*lcm(dims)-1`` by
    :func:`kernels.period_sums`; equals ``m_i * lcm(dims)`` per coordinate
    regardless of the start state.
    """
    validate_state(grid, start)
    check_budget(step_length(grid), "period steps")
    return tuple(kernels.period_sums(grid.dims, start.residues))


def _least_reach(grid: GridSpec, source: Point, target: Point, source_signs) -> ReachAnswer:
    """Least ``k = v_i - u_i (mod 2*m_i)`` over the source lifts ``u_i`` signed from
    ``source_signs[i]`` and the target lifts ``v_i``, merged as residue sets on
    :func:`core.crt_stages` (budgeted first); the last merge streams into ``min``.
    At a fixed ``k`` the coordinates choose their lifts apart, so the tie-break of
    :func:`light_reachable_any` is read off at the least ``k``: each coordinate's first
    offer, in (source sign, target sign) order, that ``k`` meets.  A coordinate with
    none is a wrong merge, raised as :class:`ArithmeticError`."""
    two_m = grid.two_m
    offers = [[((-t if s else t) - (-x if a else x)) % tm for a in lifts for s in (0, 1)]
              for x, t, tm, lifts in zip(source.coords, target.coords, two_m, source_signs)]
    stages = crt_stages(two_m)
    c = len(offers[0])  # offers per coordinate
    check_budget(sum(min(c ** i, lcm) * c for i, (lcm, *_) in enumerate(stages)),
                 "congruence merges")
    live = {0}
    for stage, offer in zip(stages, offers[:-1]):
        live = {k for r in live for v in offer if (k := _merge_stage(r, v, stage)) is not None}
    k = min((k for r in live for v in offers[-1]
             if (k := _merge_stage(r, v, stages[-1])) is not None), default=None)
    if k is None:
        return ReachAnswer(False, None, None)
    residues = [k % tm for tm in two_m]
    if any(r not in offer for r, offer in zip(residues, offers)):
        raise ArithmeticError(f"step {k} does not reach {target.coords!r}")
    return ReachAnswer(True, k, tuple(offer.index(r) & 1 for r, offer in zip(residues, offers)))


def light_reachable(grid: GridSpec, source: Point, mask: DirectionMask,
                    target: Point) -> ReachAnswer:
    """Does the trajectory from ``source`` (lifted along ``mask``) ever pass
    through ``target``?  Decided by congruences, without iterating.

    The trajectory reaches ``target`` at step ``k`` iff ``u_i + k`` lands on
    one of the (at most two) phase lifts of each target coordinate, i.e. the
    system ``k = v_i - u_i (mod 2*m_i)`` is solvable for some choice of lift
    signs.  The least witness wins, then the lexicographically first signs.
    """
    validate_point(grid, source)
    validate_point(grid, target)
    validate_mask(grid, mask)
    return _least_reach(grid, source, target, [(a,) for a in mask.signs])


def light_reachable_any(grid: GridSpec, source: Point, target: Point) -> ReachAnswer:
    """:func:`light_reachable` over every mask: the least witness wins, then the
    first mask in lexicographic order, then the first target-lift signs."""
    validate_point(grid, source)
    validate_point(grid, target)
    return _least_reach(grid, source, target, [(0, 1)] * grid.p)


def light_reachable_oracle(grid: GridSpec, source: Point, mask: DirectionMask,
                           target: Point) -> ReachAnswer:
    """Same contract as :func:`light_reachable`, decided by walking the full
    ``2*lcm(dims)`` period.  Kept independent as a cross-check.

    The walk is :func:`kernels.first_visit`: in blocks of
    :data:`kernels.BLOCK` steps it ANDs, per coordinate, the bit mask of the
    steps at which that coordinate sits at the target's (stopping at the
    first empty mask), takes the first step left, and reads the signs of
    that one step.  It stops after the first block that visits ``target``.
    The masks are looked up in a bounded table keyed by plain ints, so a
    sweep over the targets of one source builds each coordinate's masks once.
    The source is lifted once, unvalidated: it was validated above.
    """
    validate_point(grid, source)
    validate_point(grid, target)
    validate_mask(grid, mask)
    period = step_length(grid)
    check_budget(period, "period steps")
    u = _lift_residues(grid, source, mask)
    found = kernels.first_visit(grid.dims, u, target.coords, period)
    if found is None:
        return ReachAnswer(False, None, None)
    return ReachAnswer(True, *found)
