"""Exhaustive oracle kernels, in pure Python.

The library answers from the paper's closed forms; these walks iterate the
phase dynamics instead and are what the test suite checks those forms
against.  Each walk exists once: :func:`least_closure` and
:func:`period_sums` are the bodies of :func:`billiards.first_closure` and
:func:`billiards.coordinate_sums`; :func:`first_visit` is the one-target
reachability walk of :func:`billiards.light_reachable_oracle`;
:func:`_orbit_blocks` is the orbit walk of :func:`trace_paths` (run for a
seed and its reversal) and of :func:`reach_scan` (run once, from the zero
state); :func:`bfs_from` is the diagonal-move BFS of :func:`bfs_components`
and :func:`walks.find_walk_bfs`; and :func:`parity_counts` is the point
count of :func:`walks.orbit_sizes_bruteforce`.

Column walks.  A trajectory is walked in blocks of at most :data:`BLOCK`
steps.  Within a block each coordinate is stepped once around its own phase
circle, over at most ``min(2*m_i, n)`` residues for an ``n``-step block
(:func:`core._cycle`), and that column is repeated out to the block
(:func:`core._repeat`).  The joint walk over the block is
then done by C-level operations instead of one Python step at a time: list
repetition, ``map``/``zip`` (sums of stride-scaled columns give encoded
states), and AND of integer bit masks for "every coordinate matches at step
k".  A column never holds more than one block, so a short walk on a grid
with a long side costs O(steps), not O(m_i).  The mask of one coordinate
(:func:`_residue_mask`) marks where its at most two matching residues fall
in the block, each a run of bits ``2*m_i`` apart.  The per-call walks
read their masks from two tables bounded at :data:`MASKS` entries
(``functools.lru_cache``) and keyed by plain ints, :func:`_closure_mask` by
(residue, ``2*m_i``, block) and :func:`_target_mask` by (target coordinate,
residue, ``m_i``, block); a mask is a pure function of its key, so a hit is
the mask the walk would build and every step is still examined, while a
sweep over one grid's states or targets builds at most ``sum(2*m_i)``
distinct masks per block.

The per-point tables are tiled the same way (:func:`_tile`): one column per
coordinate, combined by one ``map`` per column entry with the table of the
coordinates after it, so the table over all points is built by C-level
operations in mixed-radix order.  The BFS reads each point's moves from a
table keyed by its wall class (each coordinate at the low wall, inside or at
the high wall; at most ``3**p`` classes), built once per grid with each
entry's offsets in lexicographic sign order, instead of decoding the point
and combining its moves.  The parity count tiles each point's code in blocks
of at most :data:`PARITY_BLOCK` points and counts them with ``Counter``.

Independence rules.  Every step up to the limit is examined; the closure
and reachability walks stop only after the block holding their first hit.
Every point is examined: the BFS follows every allowed move of every point
it reaches, and the parity count computes and counts every point's code.
The walks use no CRT, no gcd/lcm law beyond the period ``2*lcm(dims)`` that
bounds them, and no parity-class or orbit law: the move table depends only
on which coordinates sit at a wall, and the parity codes are counted, not
sized.  From :mod:`arithbilliards.core` they take only the mixed-radix codec
(first coordinate most significant), the residue runs :func:`core._cycle` and
:func:`core._repeat` (not closed forms), and :func:`core.solve_congruences`,
which is the law side of :func:`reach_scan`: it folds the CRT merge
(``crt_stages``/``_merge_stage``) that ``light_reachable`` runs, so the
oracle checks the merge users call.  Never the closed-form helpers
(``tent_columns``, ``phase_columns``).

Shared inputs.  The exhaustive sweeps compute each distinct input once and
count it once per state or triple that shares it, which keeps them
exhaustive:

- :func:`least_closure_violations` and :func:`coordinate_sum_violations`
  tabulate, per coordinate and residue, the first block's closure mask
  (:func:`_closure_mask`) or the period sum (:func:`_period_sum`).  A table
  entry is a pure function of one coordinate's own residue, built by the
  same helper the per-state function calls; it uses no CRT, no gcd/lcm law
  and no orbit or shift structure.  Each state then combines its own ``p``
  entries: the closure masks are ANDed over every state at once by
  :func:`_tile`, and a state still open after that block walks on alone.
- :func:`reach_scan` tabulates one answer per residue-difference vector
  ``d`` on each side.  From a source lift ``u``, the state ``u + d`` is
  first met at the least ``k`` with ``k = d_i (mod 2*m_i)`` for every
  ``i``, which depends on ``d`` alone: the law side solves that system once
  per ``d``, and the walk meets ``d`` from the zero state.  Both sides read
  a triple's answer off their table alike, as the least ``(k, signs)`` over
  the target's lifts ``v`` at ``d = v - u``, so a triple whose vectors all
  have equal entries gets equal answers, and equal tables decide every
  triple.  Where the tables differ, each (source lift, target) pair reached
  through a differing vector is answered from both and counted once per
  (source, mask) pair lifting to ``u``.

All functions take plain dimension lists and return plain ints, lists or
dicts.  Callers are responsible for validation and budget checks; these
scans assume their inputs fit in memory.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter, deque
from functools import lru_cache, reduce
from operator import add, and_, ne, not_, xor

from arithbilliards.core import _cycle, _repeat, decode_digits, encode_digits, solve_congruences

BACKEND = "python"
BLOCK = 1024  # steps per block of a column walk
PARITY_BLOCK = 1 << 14  # points per block of parity codes
MASKS = 256  # entries per table of per-coordinate masks


def trace_paths(two_m) -> list[tuple[int, int]]:
    """Partition all phase states into step orbits paired with their reversals.

    Each geometric path is either one self-reversed orbit (an open path) or a
    pair of mutually reversed orbits (a closed path).  Returns one
    ``(representative_index, is_open)`` tuple per geometric path, ascending;
    the representative is the smallest encoded state on the path.

    The least unvisited state seeds the next path.  The visited states form
    whole orbits closed under reversal, so after the seed's orbit is marked
    its reversal is visited exactly when the path is open.
    """
    two_m = list(two_m)
    strides = [math.prod(two_m[i + 1:]) for i in range(len(two_m))]
    period = math.lcm(*two_m)
    visited = bytearray(math.prod(two_m))
    out: list[tuple[int, int]] = []
    seed = visited.find(0)
    while seed >= 0:
        base = decode_digits(seed, two_m)
        for codes in _orbit_blocks(two_m, strides, base, period):
            for idx in codes:
                visited[idx] = 1
        neg = [(tm - u) % tm for u, tm in zip(base, two_m)]
        self_paired = visited[encode_digits(neg, two_m)]
        if not self_paired:
            for codes in _orbit_blocks(two_m, strides, neg, period):
                for idx in codes:
                    visited[idx] = 1
        out.append((seed, self_paired))
        seed = visited.find(0, seed + 1)
    return out


def _orbit_blocks(two_m, strides, residues, period: int):
    """The encoded states ``residues + k`` for every step ``k`` of one
    period, one block at a time: each coordinate's column of residues,
    scaled by its stride, summed into the block's state indexes."""
    for k0 in range(0, period, BLOCK):
        n = min(BLOCK, period - k0)
        codes = None
        for u, tm, stride in zip(residues, two_m, strides):
            col = _repeat([r * stride for r in _cycle(u + k0, tm, n)], n)
            codes = col if codes is None else map(add, codes, col)
        yield codes


def _tile(columns, op, table):
    """``op`` folded over one entry of each of ``columns``, for every choice
    of entries in mixed-radix order (first column most significant), in a
    container of the type of the one-entry ``table`` it starts from.  Built
    from the last column out: each entry of a column meets the whole table
    of the columns after it in one ``map``."""
    for col in reversed(columns):
        out = table[:0]
        out.extend(itertools.chain.from_iterable(map(op, table, itertools.repeat(v)) for v in col))
        table = out
    return table


def _residue_mask(residues, u: int, tm: int, k0: int, n: int) -> int:
    """Bit mask over the steps ``k0 .. k0+n-1`` (first step most significant)
    at which a coordinate started at residue ``u`` sits at one of
    ``residues``.  Each one recurs every ``tm`` steps, so its bits are one
    repunit in base ``2**tm``, shifted to its first step in the block."""
    mask = 0
    for r in residues:
        j = (r - u - k0) % tm  # first step of the block at residue r
        if j < n:
            count = (n - 1 - j) // tm + 1
            # a coordinate whose circle outruns the block matches there once
            repunit = ((1 << count * tm) - 1) // ((1 << tm) - 1) if count > 1 else 1
            mask |= repunit << (n - 1 - j - (count - 1) * tm)
    return mask


@lru_cache(maxsize=MASKS)
def _closure_mask(u: int, tm: int, k0: int, n: int) -> int:
    """Bit mask over the steps ``k0 .. k0+n-1`` (first step most significant)
    at which a coordinate started at residue ``u`` re-reads both its start
    position and the position one step before the start.

    Two residues give the same position iff they are equal or mirrored
    (``u`` and ``2*m - u``), so at most two residues match
    (:func:`_residue_mask`).
    """
    back = (u - 1) % tm
    # residues reading the start position, and residues one step after
    # one reading the position before the start
    starts = {u, (tm - u) % tm}
    afters = {(back + 1) % tm, (tm - back + 1) % tm}
    return _residue_mask(starts & afters, u, tm, k0, n)


@lru_cache(maxsize=MASKS)
def _target_mask(t: int, u: int, m: int, k0: int, n: int) -> int:
    """Bit mask over the steps ``k0 .. k0+n-1`` (first step most significant)
    at which a coordinate of side ``m`` started at residue ``u`` sits at
    position ``t``, on either branch (residue ``t`` or ``2*m - t``,
    :func:`_residue_mask`)."""
    return _residue_mask({t, (2 * m - t) % (2 * m)}, u, 2 * m, k0, n)


def _closure_from(two_m, residues, first: int, limit: int) -> int | None:
    """:func:`least_closure` over the steps ``first .. limit`` only, a block
    at a time; a block's AND stops at its first empty mask."""
    for k0 in range(first, limit + 1, BLOCK):
        n = min(BLOCK, limit + 1 - k0)
        hits = -1
        for u, tm in zip(residues, two_m):
            hits &= _closure_mask(u, tm, k0, n)
            if not hits:
                break
        else:
            return k0 + n - hits.bit_length()
    return None


def least_closure(two_m, residues, limit: int) -> int | None:
    """Least ``k`` in ``[1, limit]`` at which the trajectory from ``residues``
    re-reads both its start position and the position one step before the
    start (position equality, not state equality); None if there is none.

    Per block, each coordinate contributes the bit mask of the steps at which
    it matches (:func:`_closure_mask`), and the AND of the masks marks the
    steps at which all of them do.
    """
    return _closure_from(two_m, residues, 1, limit)


def least_closure_violations(dims) -> int:
    """Count states whose :func:`least_closure` differs from 2*lcm(dims).

    Expected result is 0: the least full-closure step is always one period.
    The first block's :func:`_closure_mask` of every (coordinate, residue)
    is ANDed over every state by :func:`_tile`; a state closes in that block
    iff its AND is nonzero, at the step its highest bit marks.  Only the
    states still open after it walk on, each in the block loop of
    :func:`least_closure`.
    """
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    n = min(BLOCK, period)
    hits = _tile([[_closure_mask(u, tm, 1, n) for u in range(tm)] for tm in two_m], and_, [-1])
    still_open = hits.count(0)
    # a closure at step `period` of a first block that ends there is bit 0 alone
    violations = len(hits) - still_open - (hits.count(1) if n == period else 0)
    if still_open:
        states = itertools.compress(itertools.product(*map(range, two_m)), map(not_, hits))
        violations += sum(_closure_from(two_m, u, 1 + n, period) != period for u in states)
    return violations


def first_visit(dims, residues, target, limit: int) -> tuple[int, tuple[int, ...]] | None:
    """First visit to the point with coordinates ``target`` in the steps
    ``0 .. limit-1`` of the walk from the phase state ``residues``, as
    ``(k, signs)``, where ``signs[i]`` is 1 when coordinate ``i`` is on its
    descending branch there (residue above ``m_i``); None if there is none.

    Per block, each coordinate contributes the bit mask of the steps at which
    it sits at its target coordinate (:func:`_target_mask`), and the AND of
    the masks, stopped at the first empty one, marks the steps at which the
    walk is at ``target``.  Only the first such step has its signs read.
    """
    for k0 in range(0, limit, BLOCK):
        n = min(BLOCK, limit - k0)
        hits = -1
        for t, u, m in zip(target, residues, dims):
            hits &= _target_mask(t, u, m, k0, n)
            if not hits:
                break
        else:
            k = k0 + n - hits.bit_length()
            return k, tuple([int((u + k) % (2 * m) > m) for u, m in zip(residues, dims)])
    return None


def reach_scan(dims) -> tuple[int, int]:
    """Exhaustive reachability cross-check over one grid.

    For every (source point, direction mask, target point) triple, decides
    reachability twice: by merging per-coordinate congruences, and by walking
    the full 2*lcm period and recording first visits.  Answers must agree on
    reachability, least witness, and the sign choice of the target lift.

    Each side is one table of first steps, one entry per residue-difference
    vector in encoding order (None where there is none): the law side calls
    :func:`core.solve_congruences` once per vector, and the walk writes the
    steps of one period from the zero state, the least last.  A triple reads
    its answer off either table alike (:func:`_least`; see the module's
    "Shared inputs").  Only the (source lift, target) pairs reached through a
    vector on which the tables differ are answered, each counted once per
    (source, mask) pair lifting to the source lift: ``2**w`` of them, where
    ``w`` of its coordinates lie on a wall (residue 0 or ``m_i``).

    Returns ``(n_checked, n_mismatch)``.
    """
    dims = list(dims)
    p = len(dims)
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    strides = [math.prod(two_m[i + 1:]) for i in range(p)]
    n_points = math.prod(m + 1 for m in dims)

    # one CRT solve per vector, in encoding order
    law = list(map(solve_congruences, itertools.product(*map(range, two_m)), itertools.repeat(two_m)))
    # the vectors the walk from the zero state meets, step by step
    met = list(itertools.chain.from_iterable(_orbit_blocks(two_m, strides, [0] * p, period)))
    walk = [None] * len(law)
    deque(map(walk.__setitem__, reversed(met), reversed(range(period))), maxlen=0)

    # every triple: per coordinate, the 2*m_i - 2 inside residues lift one
    # (source, mask) pair each and the two wall residues two each
    checked = n_points * math.prod(tm + 2 for tm in two_m)
    if law == walk:
        return checked, 0
    differ = [decode_digits(e, two_m) for e, (a, b) in enumerate(zip(law, walk)) if a != b]
    mismatch = 0
    for u in itertools.product(*map(range, two_m)):
        targets = {tuple([m - abs(m - (x + y) % tm) for x, y, m, tm in zip(u, d, dims, two_m)])
                   for d in differ}
        lifts = [_target_lifts(dims, two_m, u, t) for t in targets]
        wrong = sum(_least(law, vs) != _least(walk, vs) for vs in lifts)
        mismatch += wrong << sum(x % m == 0 for x, m in zip(u, dims))
    return checked, mismatch


def _target_lifts(dims, two_m, u, target) -> list[tuple[int, tuple[int, ...]]]:
    """``(d, signs)`` for each lift ``v`` of ``target``, as the source lift
    ``u`` meets it: ``d`` encodes the residue difference ``v - u`` and
    ``signs[i]`` is 1 where ``v_i`` is above ``m_i``."""
    return [(encode_digits([(a - b) % tm for a, b, tm in zip(v, u, two_m)], two_m),
             tuple([int(a > m) for a, m in zip(v, dims)]))
            for v in itertools.product(*[{t, (tm - t) % tm} for t, tm in zip(target, two_m)])]


def _least(table, lifts) -> tuple[int, tuple[int, ...]] | None:
    """Least ``(k, signs)`` over ``lifts`` (:func:`_target_lifts`) at which a
    :func:`reach_scan` table has a step ``k``; None if it has none."""
    return min(((table[d], signs) for d, signs in lifts if table[d] is not None), default=None)


def _period_sum(u: int, m: int, period: int) -> int:
    """Sum of the positions ``m - |m - r|`` one coordinate visits over
    ``period`` steps from residue ``u``."""
    total = 0
    for k0 in range(0, period, BLOCK):
        n = min(BLOCK, period - k0)
        total += sum(_repeat([m - abs(m - r) for r in _cycle(u + k0, 2 * m, n)], n))
    return total


def period_sums(dims, residues) -> list[int]:
    """Per-coordinate sums of the positions visited over one full period
    ``2*lcm(dims)`` from the phase state ``residues``."""
    period = math.lcm(*[2 * m for m in dims])
    return [_period_sum(u, m, period) for u, m in zip(residues, dims)]


def coordinate_sum_violations(dims) -> int:
    """Count start states whose :func:`period_sums` differ from
    ``m_i * lcm(dims)``.  Expected 0.

    Coordinate ``i``'s sum depends only on its own residue, so it is taken
    once per residue (:func:`_period_sum`); every state is then checked on
    its own ``p`` sums.
    """
    dims = list(dims)
    period = math.lcm(*[2 * m for m in dims])
    expect = tuple(m * period // 2 for m in dims)
    sums = [[_period_sum(u, m, period) for u in range(2 * m)] for m in dims]
    return sum(map(ne, itertools.product(*sums), itertools.repeat(expect)))


def _move_table(dims) -> tuple[array, list[tuple[int, ...]]]:
    """Per-point wall-class codes and the move offsets of each wall class.

    Each coordinate of a point is at the low wall, inside (only when
    ``m_i > 1``) or at the high wall.  A point's code numbers its tuple of
    classes in mixed radix (first coordinate most significant); the codes are
    kept in a compact ``array`` tiled from one column of classes per
    coordinate.  The table holds, per code, the index offsets of the moves
    allowed there in lexicographic sign order (+1 before -1, first coordinate
    first); it is tiled the same way, so it has at most ``3**p`` entries and
    at most one per point, and holds at most one offset per move the search
    examines (``prod(2*m_i)``, which callers charge to the budget).
    """
    p = len(dims)
    strides = [math.prod(m + 1 for m in dims[i + 1:]) for i in range(p)]
    # per coordinate, the offsets allowed at each of its classes
    allowed = [[(s,), (-s,)] if m == 1 else [(s,), (s, -s), (-s,)] for m, s in zip(dims, strides)]
    weights = [math.prod(map(len, allowed[i + 1:])) for i in range(p)]
    size = weights[0] * len(allowed[0])
    typecode = "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "Q"
    codes = _tile([[0] + [w] * (m - 1) + [(len(a) - 1) * w]
                   for m, w, a in zip(dims, weights, allowed)], add, array(typecode, [0]))
    shared: dict[int, int] = {}  # one int object per distinct offset
    table = [(0,)]
    for opts in reversed(allowed):
        table = [tuple([shared.setdefault(o, o) for o in [a + b for a in opt for b in tail]])
                 for opt in opts for tail in table]
    return codes, table


def bfs_from(dims, seed: int, parent: list[int], moves=None) -> list[int]:
    """Breadth-first search over lattice points under unit-cell diagonal moves.

    Moves change every coordinate by +-1 and must stay inside the grid; they
    are explored in lexicographic sign order (+1 before -1, first coordinate
    first), read for each point from its wall class in :func:`_move_table`
    (``moves``, built here when not given).  ``parent`` holds one entry per
    encoded point, negative for points not yet reached.  The search starts at
    ``seed`` (``parent[seed]`` is set to ``seed``), sets ``parent[nid] = pid``
    when it first reaches ``nid`` from ``pid``, and returns the points it
    reached in visit order.
    """
    codes, table = moves or _move_table(dims)
    parent[seed] = seed
    order = [seed]
    for pid in order:
        for offset in table[codes[pid]]:
            nid = pid + offset
            if parent[nid] < 0:
                parent[nid] = pid
                order.append(nid)
    return order


def bfs_components(dims) -> list[int]:
    """Connected components of lattice points under unit-cell diagonal moves.

    Returns a component id per encoded point, ids assigned in first-seen
    (ascending seed) order, each component found by one :func:`bfs_from` on
    one :func:`_move_table` for the grid.
    """
    moves = _move_table(dims)
    n_points = len(moves[0])
    parent = [-1] * n_points
    comp = [-1] * n_points
    cid = 0
    for seed in range(n_points):
        if parent[seed] < 0:
            for pid in bfs_from(dims, seed, parent, moves):
                comp[pid] = cid
            cid += 1
    return comp


def parity_counts(dims) -> Counter:
    """Count the lattice points of each parity code, point by point.

    Bit ``p-1-i`` of a point's code is ``(x_0 + x_i) mod 2`` for ``i >= 1``.
    The codes are tiled from one column per coordinate (each value's share of
    the code; an odd first coordinate flips every bit) and counted in blocks
    of at most :data:`PARITY_BLOCK` points: the trailing coordinates that fit
    are tiled once, the next coordinate is taken a run of values at a time,
    and the leading ones one tuple of values at a time.
    """
    p = len(dims)
    flip = (1 << (p - 1)) - 1
    cols = [[flip * (x & 1) for x in range(dims[0] + 1)]]
    cols += [[(x & 1) << (p - 1 - i) for x in range(m + 1)] for i, m in enumerate(dims[1:], 1)]
    t = p
    while t and math.prod(map(len, cols[t - 1:])) <= PARITY_BLOCK:
        t -= 1
    tail = _tile(cols[t:], xor, [0])
    col, heads = (cols[t - 1], cols[:t - 1]) if t else ([0], [])
    run = max(1, PARITY_BLOCK // len(tail))
    counts = Counter()
    for head in itertools.product(*heads):
        base = reduce(xor, head, 0)
        for j in range(0, len(col), run):
            counts.update(itertools.chain.from_iterable(
                map(xor, tail, itertools.repeat(base ^ v)) for v in col[j:j + run]))
    return counts
