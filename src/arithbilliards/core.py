"""Integer grids, lattice points, and phase-circle states.

A billiard trajectory moving along unit-cell diagonals of an
``m_1 x ... x m_p`` grid is awkward to iterate on positions alone, because
the next position depends on the current direction of travel.  Instead,
each coordinate lives on a cycle of ``2*m_i`` phase positions; advancing the
phase by one and projecting through the tent map ``x = m - |m - u|``
reproduces the reflecting motion exactly.  Everything else in this package
is built on these phase circles.
"""

from __future__ import annotations

import math
from operator import attrgetter

INT64_MAX = 2**63 - 1

#: The one ceiling for exhaustive work (phase states, lattice points, steps,
#: congruence systems), enforced by :func:`check_budget`.
DEFAULT_STATE_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An exhaustive operation would exceed its state/step budget."""


def check_budget(needed: int, what: str) -> None:
    """Refuse work of ``needed`` units of ``what`` above the budget.

    The one budget gate of the package: every bounded operation calls it
    after validating its input and before allocating.  It reads
    :data:`DEFAULT_STATE_BUDGET` at call time, so patching that constant
    moves every bound at once.
    """
    if needed > DEFAULT_STATE_BUDGET:
        raise BudgetExceededError(f"{what}: {needed} needed, budget is {DEFAULT_STATE_BUDGET}")


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` sets each field once through ``object.__setattr__``.
    Instances compare equal when their classes and fields are equal, hash by
    their fields, repr as ``Name(field=value, ...)``, refuse assignment and
    pickle by calling the constructor again.  It stands in for
    ``@dataclass(frozen=True)``: importing ``dataclasses`` and building the
    classes cost a short CLI command more than its own work.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # one C-level getter per class: the field value, or a tuple of them
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class GridSpec(Frozen):
    """Dimensions ``(m_1, ..., m_p)`` of an integer grid, ``p >= 2``.

    Construction rejects grids whose phase-state count ``2**p * prod(m_i)``,
    at least the full period ``2*lcm(dims)``, would not fit in a signed
    64-bit integer.  That bound is the package's documented input limit; the
    arithmetic itself is exact Python integers and would not wrap.
    """

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        dims = tuple(dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError(
                f"a grid needs at least 2 dimensions, got {len(dims)}; "
                "one-dimensional grids are not supported"
            )
        for m in dims:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"grid dimensions must be positive integers, got {dims!r}")
        if math.prod(2 * m for m in dims) > INT64_MAX:
            raise OverflowError(f"phase-state count of grid {dims!r} does not fit in 64 bits")

    @property
    def p(self) -> int:
        return len(self.dims)

    @property
    def two_m(self) -> tuple[int, ...]:
        return tuple(2 * m for m in self.dims)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.dims)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.dims)

    @property
    def n_points(self) -> int:
        return math.prod(m + 1 for m in self.dims)

    @property
    def n_states(self) -> int:
        return math.prod(self.two_m)

    @property
    def total_segments(self) -> int:
        """Number of unit-cell diagonals: ``2**(p-1) * m_1 * ... * m_p``."""
        return 2 ** (self.p - 1) * math.prod(self.dims)


class Point(Frozen):
    """Lattice point with ``0 <= x_i <= m_i``."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        object.__setattr__(self, "coords", tuple(coords))


class PhaseState(Frozen):
    """Per-coordinate residues ``u_i`` modulo ``2*m_i``.

    The lattice position is recovered per coordinate by the tent map
    ``x_i = m_i - |m_i - u_i|``; residues above ``m_i`` encode descending
    (reflected) travel.
    """

    __slots__ = ("residues",)

    def __init__(self, residues: tuple[int, ...]) -> None:
        object.__setattr__(self, "residues", tuple(residues))


class DirectionMask(Frozen):
    """Per-coordinate travel directions: 0 = forward, 1 = backward."""

    __slots__ = ("signs",)

    def __init__(self, signs: tuple[int, ...]) -> None:
        signs = tuple(signs)
        object.__setattr__(self, "signs", signs)
        # C-level counts: every value 0 or 1, and every type exactly int (no bool or float)
        n = len(signs)
        if signs.count(0) + signs.count(1) != n or [*map(type, signs)].count(int) != n:
            raise ValueError(f"mask signs must be the ints 0 or 1, got {signs!r}")

    @classmethod
    def ascending(cls, p: int) -> "DirectionMask":
        return cls((0,) * p)

    @classmethod
    def descending(cls, p: int) -> "DirectionMask":
        return cls((1,) * p)

    @classmethod
    def parse(cls, text: str) -> "DirectionMask":
        """Parse a string of ``+``/``-`` characters, one per coordinate."""
        table = {"+": 0, "-": 1}
        try:
            return cls(tuple(table[ch] for ch in text))
        except KeyError:
            raise ValueError(f"mask must consist of '+'/'-' characters, got {text!r}") from None

    def to_string(self) -> str:
        return "".join("+" if s == 0 else "-" for s in self.signs)


class OrbitIndex(Frozen):
    """Parity vector ``((x_1+x_2) mod 2, ..., (x_1+x_p) mod 2)`` of a point."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]) -> None:
        bits = tuple(bits)
        object.__setattr__(self, "bits", bits)
        # the value test of DirectionMask, in two C-level counts
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError(f"index bits must be 0 or 1, got {bits!r}")


def validate_point(grid: GridSpec, point: Point) -> None:
    if len(point.coords) != grid.p:
        raise ValueError(f"point arity {len(point.coords)} does not match grid arity {grid.p}")
    for x, m in zip(point.coords, grid.dims):
        if type(x) is not int:
            raise ValueError(f"point coordinates must be integers, got {point.coords!r}")
        if not 0 <= x <= m:
            raise ValueError(f"point {point.coords!r} outside grid {grid.dims!r}")


def validate_state(grid: GridSpec, state: PhaseState) -> None:
    if len(state.residues) != grid.p:
        raise ValueError(f"state arity {len(state.residues)} does not match grid arity {grid.p}")
    for u, tm in zip(state.residues, grid.two_m):
        if type(u) is not int:
            raise ValueError(f"state residues must be integers, got {state.residues!r}")
        if not 0 <= u < tm:
            raise ValueError(f"state {state.residues!r} outside phase circles of {grid.dims!r}")


def validate_mask(grid: GridSpec, mask: DirectionMask) -> None:
    if len(mask.signs) != grid.p:
        raise ValueError(f"mask arity {len(mask.signs)} does not match grid arity {grid.p}")


def validate_count(name: str, n, least: int = 0) -> None:
    """Reject a count that is not an ``int`` (a ``bool`` included) or is below ``least``."""
    if type(n) is not int or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


def make_state(grid: GridSpec, residues) -> PhaseState:
    """Build a PhaseState, reducing each residue modulo its ``2*m_i`` circle.

    Accepts "unrolled" residues (e.g. a step counter that was never wrapped),
    but each must be an ``int`` (not a ``bool``), as :func:`validate_state` asks.
    """
    if len(residues) != grid.p:
        raise ValueError(f"residue arity {len(residues)} does not match grid arity {grid.p}")
    if any(type(u) is not int for u in residues):
        raise ValueError(f"state residues must be integers, got {tuple(residues)!r}")
    return PhaseState(tuple(u % tm for u, tm in zip(residues, grid.two_m)))


def project(grid: GridSpec, state: PhaseState) -> Point:
    """Tent-map projection of a phase state onto its lattice point."""
    validate_state(grid, state)
    return Point(tuple(m - abs(m - u) for m, u in zip(grid.dims, state.residues)))


def lift(grid: GridSpec, point: Point, mask: DirectionMask) -> PhaseState:
    """Choose the phase representative of ``point`` travelling along ``mask``.

    Forward (0) picks the ascending branch ``u_i = x_i``; backward (1) picks
    the descending branch ``u_i = (2*m_i - x_i) mod 2*m_i``.  Boundary
    coordinates (``x_i`` equal to 0 or ``m_i``) have a single representative,
    so both mask values agree there.  ``project(lift(point)) == point``.
    """
    validate_point(grid, point)
    validate_mask(grid, mask)
    return PhaseState(_lift_residues(grid, point, mask))


def _lift_residues(grid: GridSpec, point: Point, mask: DirectionMask) -> tuple[int, ...]:
    """The residues of :func:`lift`, for a point and mask already validated."""
    return tuple([x if s == 0 else (tm - x) % tm
                  for x, s, tm in zip(point.coords, mask.signs, grid.two_m)])


def step(grid: GridSpec, state: PhaseState) -> PhaseState:
    """Advance every phase circle by one (one unit-cell diagonal of travel)."""
    validate_state(grid, state)
    return PhaseState(tuple((u + 1) % tm for u, tm in zip(state.residues, grid.two_m)))


def step_back(grid: GridSpec, state: PhaseState) -> PhaseState:
    """Inverse of :func:`step`."""
    validate_state(grid, state)
    return PhaseState(tuple((u - 1) % tm for u, tm in zip(state.residues, grid.two_m)))


def step_directed(grid: GridSpec, state: PhaseState, mask: DirectionMask) -> PhaseState:
    """Advance each circle by +1 or -1 according to ``mask``."""
    validate_state(grid, state)
    validate_mask(grid, mask)
    return PhaseState(
        tuple(
            (u + (1 if s == 0 else -1)) % tm
            for u, s, tm in zip(state.residues, mask.signs, grid.two_m)
        )
    )


def _cycle(u: int, tm: int, n: int) -> range | tuple[int, ...]:
    """The first ``min(n, tm)`` residues ``u, u+1, ... (mod tm)``; a ``range`` unless they wrap."""
    u %= tm
    end = u + min(n, tm)
    if end <= tm:
        return range(u, end)
    return (*range(u, tm), *range(end - tm))


def _repeat(column, n: int):
    """``column`` (a list or a ``range``) repeated out to ``n`` entries."""
    if len(column) >= n:
        return column
    return ([*column] * -(-n // len(column)))[:n]


def reverse(grid: GridSpec, state: PhaseState) -> PhaseState:
    """Time-reverse a state: ``u_i -> -u_i``.  Keeps the position, flips travel.

    Conjugates :func:`step` into :func:`step_back`, and pairs each directed
    orbit with the one tracing the same geometric path the other way.
    """
    validate_state(grid, state)
    return PhaseState(tuple((tm - u) % tm for u, tm in zip(state.residues, grid.two_m)))


def crt_stages(moduli) -> list[tuple[int, int, int, int, int]]:
    """Constants for merging ``k = v_i (mod moduli[i])`` one modulus at a time.

    Entry ``i`` is ``(lcm, modulus, g, lcm // g, inv)``: ``lcm`` is the lcm of
    the moduli before ``i`` (1 for the first), ``g`` its gcd with
    ``modulus``, and ``inv`` the inverse of ``lcm // g`` modulo
    ``modulus // g``.  Then ``k = r (mod lcm)`` and ``k = v (mod modulus)``
    are compatible iff ``g`` divides ``v - r``, and their least common
    solution is ``r + (lcm // g) * ((v - r) * inv % modulus)`` for
    ``0 <= r < lcm`` (``g`` divides both ``(v - r) * inv`` and ``modulus``,
    so that remainder is ``g`` times the number of ``lcm`` steps, taken
    modulo ``modulus // g``).  No gcd or inverse is taken per merge.
    """
    stages = []
    lcm = 1
    for tm in moduli:
        g = math.gcd(lcm, tm)
        stages.append((lcm, tm, g, lcm // g, pow(lcm // g, -1, tm // g)))
        lcm = lcm // g * tm
    return stages


def _merge_stage(r: int, v: int, stage) -> int | None:
    """Least ``k >= 0`` with ``k = r (mod lcm)`` and ``k = v (mod modulus)``
    for one :func:`crt_stages` entry, ``0 <= r < lcm``; None if incompatible."""
    lcm, tm, g, lcm_g, inv = stage
    diff = v - r
    if diff % g:
        return None
    return r + lcm_g * (diff * inv % tm)


def solve_congruences(residues, moduli) -> int | None:
    """Least ``k >= 0`` satisfying all ``k = residues[i] (mod moduli[i])``.

    Generalized CRT: :func:`_merge_stage` folds the congruences in one at a
    time over :func:`crt_stages`, the running modulus being the lcm of the
    moduli merged so far.  Residues may be unreduced.
    """
    r = 0
    for v, stage in zip(residues, crt_stages(moduli)):
        r = _merge_stage(r, v, stage)
        if r is None:
            return None
    return r


def index_of(point: Point) -> OrbitIndex:
    """Parity index classifying diagonal-walk orbits."""
    coords = point.coords
    if len(coords) < 2:
        raise ValueError("index is defined for points of arity >= 2")
    first = coords[0]
    return OrbitIndex(tuple((first + x) % 2 for x in coords[1:]))


# Mixed-radix encodings shared with the kernels (first coordinate is the most
# significant digit, so integer order equals lexicographic order on tuples).

def encode_digits(digits, radices) -> int:
    """Mixed-radix index of ``digits`` (``0 <= digits[i] < radices[i]``)."""
    idx = 0
    for d, r in zip(digits, radices):
        idx = idx * r + d
    return idx


def decode_digits(index: int, radices) -> list[int]:
    """Inverse of :func:`encode_digits`."""
    out = [0] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        index, out[i] = divmod(index, radices[i])
    return out


def encode_state(grid: GridSpec, state: PhaseState) -> int:
    return encode_digits(state.residues, grid.two_m)


def decode_state(grid: GridSpec, index: int) -> PhaseState:
    return PhaseState(tuple(decode_digits(index, grid.two_m)))


def encode_point(grid: GridSpec, point: Point) -> int:
    return encode_digits(point.coords, [m + 1 for m in grid.dims])


def decode_point(grid: GridSpec, index: int) -> Point:
    return Point(tuple(decode_digits(index, [m + 1 for m in grid.dims])))
