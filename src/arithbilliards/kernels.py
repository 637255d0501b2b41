"""Exhaustive oracle kernels, in pure Python.

The library answers from the paper's closed forms; these walks iterate the
phase dynamics instead and are what the test suite checks those forms
against.  Each walk exists once: :func:`least_closure` and
:func:`period_sums` are the bodies of :func:`billiards.first_closure` and
:func:`billiards.coordinate_sums`, :func:`first_visits` is the reachability
walk of :func:`reach_scan` and :func:`billiards.light_reachable_oracle`,
:func:`_mark_orbit` is the orbit walk of :func:`trace_paths` (run for a
seed and its reversal), and :func:`bfs_from` is the diagonal-move BFS of
:func:`bfs_components` and :func:`walks.find_walk_bfs`.

Column walks.  A trajectory is walked in blocks of at most :data:`BLOCK`
steps.  Within a block each coordinate is stepped once around its own phase
circle, over at most ``min(2*m_i, n)`` residues for an ``n``-step block, and
that column is repeated out to the block.  The joint walk over the block is
then done by C-level operations instead of one Python step at a time: list
and string repetition, ``map``/``zip`` (sums of stride-scaled columns give
encoded states), a dict built in reverse for first visits, and AND of
integer bit masks for "every coordinate matches at step k".  A column never
holds more than one block, so a short walk on a grid with a long side costs
O(steps), not O(m_i).

Independence rules.  Every step up to the limit is examined; the closure
and reachability walks stop only after the block holding their first hit.
The walks use no CRT, no gcd/lcm law beyond the period ``2*lcm(dims)`` that
bounds them, and no parity-class law.  From :mod:`arithbilliards.core` they
take only the mixed-radix codec (first coordinate most significant) and
:func:`core.solve_congruences`, which is the law side of :func:`reach_scan`;
never the closed-form helpers (``tent_columns``, ``phase_columns``).

Shared inputs.  The exhaustive sweeps compute each distinct input once and
count it once per state or triple that shares it, which keeps them
exhaustive:

- :func:`least_closure_violations` and :func:`coordinate_sum_violations`
  tabulate, per coordinate and residue, the block's closure mask
  (:func:`_closure_mask`) or the period sum (:func:`_period_sum`).  A table
  entry is a pure function of one coordinate's own residue, built by the
  same helper the per-state function calls; it uses no CRT, no gcd/lcm law
  and no orbit or shift structure.  Each state then combines its own ``p``
  entries.
- :func:`reach_scan` lifts every (source, mask) pair to its phase state and
  decides each distinct lift once, against every target, by both methods.
  Triples with equal source lifts give both sides identical inputs, so each
  gets the verdict it would get alone.  Its other per-grid tables are the
  CRT solutions by residue difference (the law side) and the lifts of each
  target.

All functions take plain dimension lists and return plain ints, lists or
dicts.  Callers are responsible for validation and budget checks; these
scans assume their inputs fit in memory.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import reduce
from operator import add, and_, getitem, itemgetter, ne

from arithbilliards.core import decode_digits, encode_digits, solve_congruences

BACKEND = "python"
BLOCK = 1024  # steps per block of a column walk


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
        _mark_orbit(two_m, strides, base, period, visited)
        neg = [(tm - u) % tm for u, tm in zip(base, two_m)]
        self_paired = visited[encode_digits(neg, two_m)]
        if not self_paired:
            _mark_orbit(two_m, strides, neg, period, visited)
        out.append((seed, self_paired))
        seed = visited.find(0, seed + 1)
    return out


def _mark_orbit(two_m, strides, residues, period: int, visited: bytearray) -> None:
    """Set ``visited`` at the encoded states ``residues + k`` for every step
    ``k`` of one period, a block at a time: each coordinate's column of
    residues, scaled by its stride, summed into the block's state indexes."""
    for k0 in range(0, period, BLOCK):
        n = min(BLOCK, period - k0)
        codes = None
        for u, tm, stride in zip(residues, two_m, strides):
            col = _repeat([r * stride for r in _turn(u, tm, k0, n)], n)
            codes = col if codes is None else map(add, codes, col)
        for idx in codes:
            visited[idx] = 1


def _turn(u: int, tm: int, k0: int, n: int):
    """Residues ``(u + k) mod tm`` of the steps ``k = k0 .. k0 + min(n, tm) - 1``:
    at most one turn of the phase circle."""
    r = (u + k0) % tm
    end = r + min(n, tm)
    if end <= tm:
        return range(r, end)
    return [*range(r, tm), *range(end - tm)]


def _repeat(column, n: int):
    """``column``, one turn or a whole block long, repeated out to ``n`` entries."""
    if len(column) >= n:
        return column
    return (column * -(-n // len(column)))[:n]


def _closure_mask(u: int, tm: int, k0: int, n: int) -> int:
    """Bit mask over the steps ``k0 .. k0+n-1`` (first step most significant)
    at which a coordinate started at residue ``u`` re-reads both its start
    position and the position one step before the start.

    Two residues give the same position iff they are equal or mirrored
    (``u`` and ``2*m - u``).
    """
    back = (u - 1) % tm
    # residues reading the start position, and residues one step after
    # one reading the position before the start
    starts = {u, (tm - u) % tm}
    afters = {(back + 1) % tm, (tm - back + 1) % tm}
    bits = "".join(["1" if r in starts and r in afters else "0"
                    for r in _turn(u, tm, k0, n)])
    return int(_repeat(bits, n), 2)


def _least_closures(two_m, states, limit: int) -> dict:
    """Map each of the distinct ``states`` to its :func:`least_closure`.

    Per block, each coordinate's :func:`_closure_mask` is built once per
    residue that a still-open state holds there, and each still-open state
    ANDs its own ``p`` masks; a state closes in the first block where that
    AND is nonzero.
    """
    closures = dict.fromkeys(states)
    for k0 in range(1, limit + 1, BLOCK):
        if not states:
            break
        n = min(BLOCK, limit + 1 - k0)
        masks = [{u: _closure_mask(u, tm, k0, n) for u in set(column)}
                 for tm, column in zip(two_m, zip(*states))]
        still_open = []
        for state in states:
            hits = reduce(and_, map(getitem, masks, state))
            if hits:
                closures[state] = k0 + n - hits.bit_length()
            else:
                still_open.append(state)
        states = still_open
    return closures


def least_closure(two_m, residues, limit: int) -> int | None:
    """Least ``k`` in ``[1, limit]`` at which the trajectory from ``residues``
    re-reads both its start position and the position one step before the
    start (position equality, not state equality); None if there is none.

    Per block, each coordinate contributes the bit mask of the steps at which
    it matches (:func:`_closure_mask`), and the AND of the masks marks the
    steps at which all of them do.
    """
    residues = tuple(residues)
    return _least_closures(two_m, [residues], limit)[residues]


def least_closure_violations(dims) -> int:
    """Count states whose :func:`least_closure` differs from 2*lcm(dims).

    Expected result is 0: the least full-closure step is always one period.
    Every state is walked in the same block loop as :func:`least_closure`.
    """
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    states = list(itertools.product(*[range(tm) for tm in two_m]))
    return sum(k != period for k in _least_closures(two_m, states, period).values())


def first_visits(dims, residues, start: int, n: int) -> dict[int, int]:
    """First visits of the walk over steps ``start .. start+n-1`` from the
    phase state ``residues``.

    Maps the index of every point visited to ``k * 2**p + signs``, where
    ``k`` is the least such step and bit ``p-1-i`` of ``signs`` is set when
    coordinate ``i`` is on its descending branch there (residue not equal to
    position).  Positions come from the tent projection
    ``m_i - |m_i - r_i|`` of each residue.
    """
    p = len(dims)
    points = signs = None
    stride = 1
    for i in range(p - 1, -1, -1):
        m = dims[i]
        turn = _turn(residues[i], 2 * m, start, n)
        xs = [m - abs(m - r) for r in turn]
        bit = 1 << (p - 1 - i)
        point_col = _repeat([x * stride for x in xs], n)
        sign_col = _repeat([0 if x == r else bit for x, r in zip(xs, turn)], n)
        points = point_col if points is None else map(add, points, point_col)
        signs = sign_col if signs is None else map(add, signs, sign_col)
        stride *= m + 1
    points = list(points)
    codes = list(map(add, range(start << p, (start + n) << p, 1 << p), signs))
    # built in reverse, so the earliest step of each point is written last
    return dict(zip(reversed(points), reversed(codes)))


def reach_scan(dims) -> tuple[int, int]:
    """Exhaustive reachability cross-check over one grid.

    For every (source point, direction mask, target point) triple, decides
    reachability twice: by merging per-coordinate congruences, and by walking
    the full 2*lcm period and recording first visits (:func:`first_visits`).
    Answers must agree on reachability, least witness, and the sign choice of
    the target lift.  Triples whose (source, mask) pairs lift to the same
    phase state are decided once and counted once each.

    Both sides write an answer as ``k * 2**p + signs``, and "unreachable" as
    one value above every answer either side can give.  The law side takes,
    per target, the least of these over all of the target's lifts (the phase
    states projecting onto it, each with its sign bits; ties keep the
    lexicographically first signs), each from the CRT solution for the
    residue difference between that lift and the source lift.

    Returns ``(n_checked, n_mismatch)``.
    """
    dims = list(dims)
    p = len(dims)
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    n_signs = 1 << p

    # Least solution per residue-difference vector, solved once by CRT merge.
    crt = [solve_congruences(decode_digits(d, two_m), two_m) for d in range(math.prod(two_m))]
    unreachable = max([period] + [k + 1 for k in crt if k is not None]) << p
    # Every axis doubled, so the difference (v_i - u_i) mod 2*m_i of a target
    # lift v and a source lift u is read at v_i + 2*m_i - u_i, and one slice
    # of this table shifts all lifts by -u at once.
    pad_strides = [math.prod(2 * tm for tm in two_m[i + 1:]) for i in range(p)]
    pad = [
        unreachable if k is None else k << p
        for k in (crt[encode_digits([j % tm for j, tm in zip(js, two_m)], two_m)]
                  for js in itertools.product(*[range(2 * tm) for tm in two_m]))
    ]
    # The lifts of each target: the distinct phase states projecting onto it,
    # each with the least sign bits giving it (a coordinate at 0 or m_i has
    # one residue for both signs).  A target with c coordinates off the walls
    # has 2**c lifts; targets are grouped by c so that each group's answers
    # are taken in runs of one length.
    groups = [[] for _ in range(p + 1)]
    points = list(itertools.product(*[range(m + 1) for m in dims]))
    for pid, tgt in enumerate(points):
        lifted: dict[int, int] = {}
        for sig in range(n_signs):
            lifted.setdefault(sum(
                (t if not sig >> (p - 1 - i) & 1 else (tm - t) % tm) * stride
                for i, (t, tm, stride) in enumerate(zip(tgt, two_m, pad_strides))
            ), sig)
        groups[len(lifted).bit_length() - 1].append((pid, lifted))
    targets = [pid for group in groups for pid, _ in group]
    runs = [(1 << c, len(group)) for c, group in enumerate(groups) if group]
    lift_index = [v for group in groups for _, lifted in group for v in lifted]
    lifts = itemgetter(*lift_index)
    lift_signs = [sig for group in groups for _, lifted in group for sig in lifted.values()]
    span = max(lift_index) + 1

    # Every (source, mask) pair lifted to its phase state; a source coordinate
    # on a wall lifts alike under both signs, so pairs share lifts and each
    # distinct lift is decided once and counted once per pair giving it.
    shared = Counter(
        tuple(x if not (maskbits >> (p - 1 - i)) & 1 else (tm - x) % tm
              for i, (x, tm) in enumerate(zip(src, two_m)))
        for src in points for maskbits in range(n_signs)
    )
    checked = 0
    mismatch = 0
    for u, times in shared.items():
        offset = sum((tm - ui) * stride for ui, tm, stride in zip(u, two_m, pad_strides))
        answers = map(add, lifts(pad[offset:offset + span]), lift_signs)
        law = []
        for size, count in runs:
            run = itertools.islice(answers, size * count)
            law += run if size == 1 else map(min, *[run] * size)
        seen = first_visits(dims, u, 0, period)
        oracle = map(seen.get, targets, itertools.repeat(unreachable))
        verdicts = list(map(ne, law, oracle))
        mismatch += times * sum(verdicts)
        checked += times * len(verdicts)
    return checked, mismatch


def _period_sum(u: int, m: int, period: int) -> int:
    """Sum of the positions ``m - |m - r|`` one coordinate visits over
    ``period`` steps from residue ``u``."""
    total = 0
    for k0 in range(0, period, BLOCK):
        n = min(BLOCK, period - k0)
        total += sum(_repeat([m - abs(m - r) for r in _turn(u, 2 * m, k0, n)], n))
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


def bfs_from(dims, seed: int, parent: list[int]) -> list[int]:
    """Breadth-first search over lattice points under unit-cell diagonal moves.

    Moves change every coordinate by +-1 and must stay inside the grid; they
    are explored in lexicographic sign order (+1 before -1, first coordinate
    first).  ``parent`` holds one entry per encoded point, negative for
    points not yet reached.  The search starts at ``seed`` (``parent[seed]``
    is set to ``seed``), sets ``parent[nid] = pid`` when it first reaches
    ``nid`` from ``pid``, and returns the points it reached in visit order.
    """
    radices = [m + 1 for m in dims]
    strides = [math.prod(radices[i + 1:]) for i in range(len(dims))]
    # per coordinate, the index offsets of the moves allowed at each value
    moves = [[(s,)] + [(s, -s)] * (m - 1) + [(-s,)] for m, s in zip(dims, strides)]
    parent[seed] = seed
    order = [seed]
    for pid in order:
        allowed = map(getitem, moves, decode_digits(pid, radices))
        for offset in map(sum, itertools.product(*allowed)):
            nid = pid + offset
            if parent[nid] < 0:
                parent[nid] = pid
                order.append(nid)
    return order


def bfs_components(dims) -> list[int]:
    """Connected components of lattice points under unit-cell diagonal moves.

    Returns a component id per encoded point, ids assigned in first-seen
    (ascending seed) order, each component found by one :func:`bfs_from`.
    """
    n_points = math.prod(m + 1 for m in dims)
    parent = [-1] * n_points
    comp = [-1] * n_points
    cid = 0
    for seed in range(n_points):
        if parent[seed] < 0:
            for pid in bfs_from(dims, seed, parent):
                comp[pid] = cid
            cid += 1
    return comp
