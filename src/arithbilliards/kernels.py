"""Exhaustive oracle kernels, in pure Python.

The library answers from the paper's closed forms; these walks iterate the
phase dynamics instead and are what the test suite checks those forms
against.  :func:`least_closure` and :func:`period_sums` are also the bodies
of :func:`billiards.first_closure` and :func:`billiards.coordinate_sums`,
:func:`first_visits` is the reachability walk of both :func:`reach_scan`
and :func:`billiards.light_reachable_oracle`, and :func:`reach_scan` solves
its congruences with :func:`core.solve_congruences`, so each oracle exists
once.

Column walks.  A trajectory is walked in blocks of at most :data:`BLOCK`
steps.  Within a block each coordinate is stepped once around its own phase
circle, over at most ``min(2*m_i, n)`` residues for an ``n``-step block, and
that column is repeated out to the block.  The joint walk over the block is
then done by C-level operations instead of one Python step at a time: list
and string repetition, ``map``/``zip``, a dict built in reverse for first
visits, and AND of integer bit masks for "every coordinate matches at step
k".  A column never holds more than one block, so a short walk on a grid
with a long side costs O(steps), not O(m_i).

Independence rules.  Every step up to the limit is examined; the closure
and reachability walks stop only after the block holding their first hit.
The walks use no CRT, no gcd/lcm law beyond the period ``2*lcm(dims)`` that
bounds them, and none of the closed-form helpers of
:mod:`arithbilliards.core` (``tent_columns``, ``phase_columns``).
:func:`reach_scan` decides every (source, mask, target) triple by both of
its methods and memoises nothing across triples; its only per-grid tables
are the CRT solutions by residue difference (the law side) and the lifts of
each target.

All functions take plain dimension lists and return plain ints, lists or
dicts.  State and point indexes use the mixed-radix encodings of
:mod:`arithbilliards.core` (first coordinate most significant).  Callers are
responsible for validation and budget checks; these scans assume their
inputs fit in memory.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from operator import add, itemgetter, ne

from arithbilliards.core import solve_congruences

BACKEND = "python"
BLOCK = 1024  # steps per block of a column walk


def _encode(digits, radices) -> int:
    idx = 0
    for d, r in zip(digits, radices):
        idx = idx * r + d
    return idx


def _decode(index: int, radices) -> list[int]:
    out = [0] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        index, out[i] = divmod(index, radices[i])
    return out


def trace_paths(two_m) -> list[tuple[int, int]]:
    """Partition all phase states into step orbits paired with their reversals.

    Each geometric path is either one self-reversed orbit (an open path) or a
    pair of mutually reversed orbits (a closed path).  Returns one
    ``(representative_index, is_open)`` tuple per geometric path, ascending;
    the representative is the smallest encoded state on the path.
    """
    two_m = list(two_m)
    p = len(two_m)
    n_states = math.prod(two_m)
    period = math.lcm(*two_m)
    visited = bytearray(n_states)
    out: list[tuple[int, int]] = []
    for seed in range(n_states):
        if visited[seed]:
            continue
        base = _decode(seed, two_m)
        neg = [(tm - u) % tm for u, tm in zip(base, two_m)]
        neg_idx = _encode(neg, two_m)
        self_paired = False
        cur = list(base)
        idx = seed
        for _ in range(period):
            visited[idx] = 1
            if idx == neg_idx:
                self_paired = True
            idx = 0
            for i in range(p):
                c = cur[i] + 1
                if c == two_m[i]:
                    c = 0
                cur[i] = c
                idx = idx * two_m[i] + c
        if not self_paired:
            cur = neg
            idx = neg_idx
            for _ in range(period):
                visited[idx] = 1
                idx = 0
                for i in range(p):
                    c = cur[i] + 1
                    if c == two_m[i]:
                        c = 0
                    cur[i] = c
                    idx = idx * two_m[i] + c
        out.append((seed, int(self_paired)))
    return out


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


def least_closure(two_m, residues, limit: int) -> int | None:
    """Least ``k`` in ``[1, limit]`` at which the trajectory from ``residues``
    re-reads both its start position and the position one step before the
    start (position equality, not state equality); None if there is none.

    Two residues give the same position iff they are equal or mirrored
    (``u`` and ``2*m - u``).  Per block, each coordinate contributes a bit
    mask of the steps at which it matches (first step most significant), and
    the AND of the masks marks the steps at which all of them do.
    """
    coords = []
    for u, tm in zip(residues, two_m):
        back = (u - 1) % tm
        # residues reading the start position, and residues one step after
        # one reading the position before the start
        coords.append((u, tm, {u, (tm - u) % tm}, {(back + 1) % tm, (tm - back + 1) % tm}))
    for k0 in range(1, limit + 1, BLOCK):
        n = min(BLOCK, limit + 1 - k0)
        hits = -1
        for u, tm, starts, afters in coords:
            bits = "".join(["1" if r in starts and r in afters else "0"
                            for r in _turn(u, tm, k0, n)])
            hits &= int(_repeat(bits, n), 2)
            if not hits:
                break
        if hits:
            return k0 + n - hits.bit_length()
    return None


def least_closure_violations(dims) -> int:
    """Count states whose :func:`least_closure` differs from 2*lcm(dims).

    Expected result is 0: the least full-closure step is always one period.
    """
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    bad = 0
    for base in itertools.product(*[range(tm) for tm in two_m]):
        if least_closure(two_m, base, period) != period:
            bad += 1
    return bad


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
    the target lift.

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
    crt = [solve_congruences(_decode(d, two_m), two_m) for d in range(math.prod(two_m))]
    unreachable = max([period] + [k + 1 for k in crt if k is not None]) << p
    # Every axis doubled, so the difference (v_i - u_i) mod 2*m_i of a target
    # lift v and a source lift u is read at v_i + 2*m_i - u_i, and one slice
    # of this table shifts all lifts by -u at once.
    pad_strides = [math.prod(2 * tm for tm in two_m[i + 1:]) for i in range(p)]
    pad = [
        unreachable if k is None else k << p
        for k in (crt[_encode([j % tm for j, tm in zip(js, two_m)], two_m)]
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

    checked = 0
    mismatch = 0
    for src in points:
        for maskbits in range(n_signs):
            u = [
                x if not (maskbits >> (p - 1 - i)) & 1 else (two_m[i] - x) % two_m[i]
                for i, x in enumerate(src)
            ]
            offset = sum((tm - ui) * stride for ui, tm, stride in zip(u, two_m, pad_strides))
            answers = map(add, lifts(pad[offset:offset + span]), lift_signs)
            law = []
            for size, count in runs:
                run = itertools.islice(answers, size * count)
                law += run if size == 1 else map(min, *[run] * size)
            seen = first_visits(dims, u, 0, period)
            oracle = map(seen.get, targets, itertools.repeat(unreachable))
            verdicts = list(map(ne, law, oracle))
            mismatch += sum(verdicts)
            checked += len(verdicts)
    return checked, mismatch


def period_sums(dims, residues) -> list[int]:
    """Per-coordinate sums of the positions visited over one full period
    ``2*lcm(dims)`` from the phase state ``residues``."""
    period = math.lcm(*[2 * m for m in dims])
    sums = []
    for u, m in zip(residues, dims):
        total = 0
        for k0 in range(0, period, BLOCK):
            n = min(BLOCK, period - k0)
            total += sum(_repeat([m - abs(m - r) for r in _turn(u, 2 * m, k0, n)], n))
        sums.append(total)
    return sums


def coordinate_sum_violations(dims) -> int:
    """Count start states whose :func:`period_sums` differ from
    ``m_i * lcm(dims)``.  Expected 0."""
    dims = list(dims)
    two_m = [2 * m for m in dims]
    half_period = math.lcm(*two_m) // 2
    expect = [m * half_period for m in dims]
    bad = 0
    for base in itertools.product(*[range(tm) for tm in two_m]):
        if period_sums(dims, base) != expect:
            bad += 1
    return bad


def bfs_components(dims) -> list[int]:
    """Connected components of lattice points under unit-cell diagonal moves.

    Moves change every coordinate by +-1 and must stay inside the grid.
    Returns a component id per encoded point, ids assigned in first-seen
    (ascending seed) order; neighbor exploration is in lexicographic sign
    order, so the output is fully deterministic.
    """
    dims = list(dims)
    p = len(dims)
    m_plus = [m + 1 for m in dims]
    n_points = math.prod(m_plus)
    deltas = list(itertools.product((1, -1), repeat=p))
    comp = [-1] * n_points
    cid = 0
    for seed in range(n_points):
        if comp[seed] >= 0:
            continue
        comp[seed] = cid
        queue = deque([seed])
        while queue:
            pid = queue.popleft()
            coords = _decode(pid, m_plus)
            for delta in deltas:
                nid = 0
                for i in range(p):
                    c = coords[i] + delta[i]
                    if c < 0 or c > dims[i]:
                        nid = -1
                        break
                    nid = nid * m_plus[i] + c
                if nid >= 0 and comp[nid] < 0:
                    comp[nid] = cid
                    queue.append(nid)
        cid += 1
    return comp
