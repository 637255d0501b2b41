"""Exhaustive oracle kernels, in pure Python.

The library answers from the paper's closed forms; these walks iterate the
phase dynamics instead and are what the test suite checks those forms
against.  Each walk exists once: :func:`least_closure` and
:func:`period_sums` are the bodies of :func:`billiards.first_closure` and
:func:`billiards.coordinate_sums`; :func:`first_visit` is the one-target
reachability walk of :func:`billiards.light_reachable_oracle`, and
:func:`reach_scan` walks every source lift of a block at once, against
every target; :func:`_mark_orbit` is the orbit walk of :func:`trace_paths`
(run for a seed and its reversal); :func:`bfs_from` is the diagonal-move
BFS of :func:`bfs_components` and :func:`walks.find_walk_bfs`; and
:func:`parity_counts` is the point count of
:func:`walks.orbit_sizes_bruteforce`.

Column walks.  A trajectory is walked in blocks of at most :data:`BLOCK`
steps.  Within a block each coordinate is stepped once around its own phase
circle, over at most ``min(2*m_i, n)`` residues for an ``n``-step block, and
that column is repeated out to the block.  The joint walk over the block is
then done by C-level operations instead of one Python step at a time: list
repetition, ``map``/``zip`` (sums of stride-scaled columns give encoded
states), and AND of integer bit masks for "every coordinate matches at step
k".  A column never holds more than one block, so a short walk on a grid
with a long side costs O(steps), not O(m_i).  The mask of one coordinate
(:func:`_residue_mask`) marks where its at most two matching residues fall
in the block, each a run of bits ``2*m_i`` apart.  :func:`reach_scan` walks
a block of sources at once, each step's column per coordinate read from a
per-grid table by residue (:func:`_residue_columns`).

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
(first coordinate most significant) and :func:`core.solve_congruences`,
which is the law side of :func:`reach_scan`; never the closed-form helpers
(``tent_columns``, ``phase_columns``).

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
  gets the verdict it would get alone.  Lifts are decided a block at a
  time, each reading the same table entries it would read alone.  Its other
  per-grid tables are the CRT solutions by residue difference (the law
  side), tiled out to every doubled-axis difference, and the lifts of each
  target.

All functions take plain dimension lists and return plain ints, lists or
dicts.  Callers are responsible for validation and budget checks; these
scans assume their inputs fit in memory.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter, deque
from functools import reduce
from operator import add, and_, getitem, itemgetter, ne, xor

from arithbilliards.core import decode_digits, encode_digits, solve_congruences

BACKEND = "python"
BLOCK = 1024  # steps per block of a column walk
PARITY_BLOCK = 1 << 14  # points per block of parity codes
REACH_BLOCK = 1 << 13  # (source lift, target lift) pairs per block of reach_scan


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
    for k0 in range(1, limit + 1, BLOCK):
        n = min(BLOCK, limit + 1 - k0)
        hits = reduce(and_, [_closure_mask(u, tm, k0, n) for u, tm in zip(residues, two_m)])
        if hits:
            return k0 + n - hits.bit_length()
    return None


def least_closure_violations(dims) -> int:
    """Count states whose :func:`least_closure` differs from 2*lcm(dims).

    Expected result is 0: the least full-closure step is always one period.
    Every state is walked in the same block loop as :func:`least_closure`.
    """
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    states = list(itertools.product(*[range(tm) for tm in two_m]))
    return sum(k != period for k in _least_closures(two_m, states, period).values())


def first_visit(dims, residues, target, limit: int) -> int | None:
    """First visit to the point with coordinates ``target`` in the steps
    ``0 .. limit-1`` of the walk from the phase state ``residues``, as
    ``k * 2**p + signs``, where bit ``p-1-i`` of ``signs`` is set when
    coordinate ``i`` is on its descending branch there (residue above
    ``m_i``); None if there is none.

    Per block, each coordinate contributes the bit mask of the steps at which
    it sits at its target coordinate, on either branch (residue ``t_i`` or
    ``2*m_i - t_i``, :func:`_residue_mask`), and the AND of the masks marks
    the steps at which the walk is at ``target``.  Only the first such step
    has its sign bits read.
    """
    at_target = [{t, (2 * m - t) % (2 * m)} for t, m in zip(target, dims)]
    for k0 in range(0, limit, BLOCK):
        n = min(BLOCK, limit - k0)
        hits = reduce(and_, [_residue_mask(r, u, 2 * m, k0, n)
                             for r, u, m in zip(at_target, residues, dims)])
        if hits:
            code = k = k0 + n - hits.bit_length()
            for u, m in zip(residues, dims):
                code = 2 * code + ((u + k) % (2 * m) > m)
            return code
    return None


def _block_shape(two_m, cap: int) -> list[int]:
    """How many consecutive residues of each coordinate one block of
    :func:`reach_scan` sources spans: every residue of the last coordinates
    while at most ``cap`` sources fit, then a run of the next coordinate
    (the largest divisor of its ``2*m_i`` that still fits, so that its runs
    tile the circle), and one residue of each coordinate before."""
    lens = [1] * len(two_m)
    size = 1
    for i in reversed(range(len(two_m))):
        tm = two_m[i]
        lens[i] = max(d for d in range(1, tm + 1) if tm % d == 0 and size * d <= cap)
        if lens[i] < tm:
            break
        size *= tm
    return lens


def _residue_columns(dims, lens, n_points: int):
    """Per coordinate and residue ``r``, the key and sign columns of
    :func:`reach_scan`'s walk over a block of sources.

    A block takes ``lens[i]`` consecutive residues ``s_i + q_i`` of each
    coordinate, in mixed-radix order (source ``j = sum(q_i * inner_i)``).
    At step ``k``, with ``r = s_i + k``, the key column holds for each source
    coordinate ``i``'s share of the visit key ``j * n_points + point``:
    ``(m_i - |m_i - (r + q_i)|) * point_stride_i + q_i * inner_i * n_points``.
    The sign column holds its sign bit, set on the descending branch.
    """
    p = len(dims)
    keys, signs = [], []
    for i, (m, n) in enumerate(zip(dims, lens)):
        stride = math.prod(x + 1 for x in dims[i + 1:])
        inner, outer = math.prod(lens[i + 1:]), math.prod(lens[:i])
        bit = 1 << (p - 1 - i)
        key_cols, sign_cols = [], []
        for r in range(2 * m):
            turn = _turn(r, 2 * m, 0, n)
            key = [(m - abs(m - x)) * stride + q * inner * n_points for q, x in enumerate(turn)]
            key_cols.append(_spread(key, inner, outer))
            sign_cols.append(_spread([bit if x > m else 0 for x in turn], inner, outer))
        keys.append(key_cols)
        signs.append(sign_cols)
    return keys, signs


def _spread(column, inner: int, outer: int) -> list[int]:
    """One coordinate's ``column`` over a block of sources in mixed-radix
    order: each entry repeated ``inner`` times, the whole ``outer`` times.
    All C-level; :func:`_tile` would run Python once per entry of every
    coordinate's column."""
    return list(itertools.chain.from_iterable(
        map(itertools.repeat, column, itertools.repeat(inner)))) * outer


def reach_scan(dims) -> tuple[int, int]:
    """Exhaustive reachability cross-check over one grid.

    For every (source point, direction mask, target point) triple, decides
    reachability twice: by merging per-coordinate congruences, and by walking
    the full 2*lcm period and recording first visits.  Answers must agree on
    reachability, least witness, and the sign choice of the target lift.
    Triples whose (source, mask) pairs lift to the same phase state are
    decided once and counted once each.

    Both sides write an answer as ``k * 2**p + signs``, and "unreachable" as
    one value above every answer either side can give.  The law side takes,
    per target, the least of these over all of the target's lifts (the phase
    states projecting onto it, each with its sign bits; ties keep the
    lexicographically first signs), each from the CRT solution for the
    residue difference between that lift and the source lift.

    Source lifts are decided in blocks (:func:`_block_shape`) of at most
    ``max(1, REACH_BLOCK // prod(2*m_i))``, so a block of more than one
    reads at most :data:`REACH_BLOCK` law answers (one per source and target
    lift).  Per block, the walk streams every step, in descending order,
    into one first-visit table indexed by visit key ``j * n_points +
    point``, from per-coordinate columns (:func:`_residue_columns`); the law
    side reads one slice of the CRT table at every (source, target lift)
    with one ``itemgetter``; and one comparison weights each verdict by the
    (source, mask) pairs sharing its lift.

    Returns ``(n_checked, n_mismatch)``.
    """
    dims = list(dims)
    p = len(dims)
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    n_states = math.prod(two_m)
    strides = [math.prod(two_m[i + 1:]) for i in range(p)]

    # Least solution per residue-difference vector, solved once by CRT merge.
    crt = [solve_congruences(d, two_m) for d in itertools.product(*map(range, two_m))]
    unreachable = max([period] + [k + 1 for k in crt if k is not None]) << p
    # Every axis doubled, so the difference (v_i - u_i) mod 2*m_i of a target
    # lift v and a source lift u is read at v_i + 2*m_i - u_i, and one slice
    # of this table shifts all lifts by -u at once.
    pad_strides = [math.prod(2 * tm for tm in two_m[i + 1:]) for i in range(p)]
    keys = [unreachable if k is None else k << p for k in crt]
    pad = list(map(keys.__getitem__, _tile(
        [[j % tm * stride for j in range(2 * tm)] for tm, stride in zip(two_m, strides)],
        add, [0])))
    # The lifts of each target: the distinct phase states projecting onto it,
    # in sign order, each with its sign bits (a coordinate at 0 or m_i has
    # one residue for both signs and takes sign 0).  A target with c
    # coordinates off the walls has 2**c lifts; targets are grouped by c so
    # that each group's answers are taken in runs of one length.
    group_pids, group_index, group_signs = ([[] for _ in range(p + 1)] for _ in range(3))
    points = list(itertools.product(*[range(m + 1) for m in dims]))
    for pid, tgt in enumerate(points):
        index, signs = [0], [0]
        for i, (t, m, stride) in enumerate(zip(tgt, dims, pad_strides)):
            if 0 < t < m:
                index = [v + w for v in index for w in (t * stride, (2 * m - t) * stride)]
                signs = [s + b for s in signs for b in (0, 1 << (p - 1 - i))]
            else:
                index = [v + t * stride for v in index]
        c = len(index).bit_length() - 1
        group_pids[c].append(pid)
        group_index[c] += index
        group_signs[c] += signs
    n_points = len(points)

    # Every (source, mask) pair lifted to its phase state: a source coordinate
    # on a wall lifts alike under both signs, so pairs share lifts, and each
    # distinct lift is decided once and counted once per pair giving it.
    shared = Counter(_tile(
        [[(x if not a else (tm - x) % tm) * stride for x in range(m + 1) for a in (0, 1)]
         for m, tm, stride in zip(dims, two_m, strides)], add, [0]))

    lens = _block_shape(two_m, max(1, REACH_BLOCK // n_states))
    size = math.prod(lens)
    key_cols, sign_cols = _residue_columns(dims, lens, n_points)
    # Source j of a block starting at lift s is s + q: its state index is
    # s's plus rel_state[j], and its slice of the CRT table starts rel_pad[j]
    # before s's.  The law answers of a block are read group by group, source
    # by source, target by target and lift by lift, so the least per target
    # is taken over one run per group; the walk's table is read in that order.
    rel_state = _tile([[q * stride for q in range(n)] for n, stride in zip(lens, strides)],
                      add, [0])
    rel_pad = _tile([[q * stride for q in range(n)] for n, stride in zip(lens, pad_strides)],
                    add, [0])
    shifts = [rel_pad[-1] - rel for rel in rel_pad]
    offsets = range(0, size * n_points, n_points)
    reads, lift_signs, visit_order, runs = [], [], [], []
    for c, (pids, index, signs) in enumerate(zip(group_pids, group_index, group_signs)):
        reads += map(add, index * size, _spread(shifts, len(index), 1))
        lift_signs += signs * size
        visit_order += map(add, pids * size, _spread(offsets, len(pids), 1))
        runs.append((1 << c, len(pids)))
    read_law = itemgetter(*reads)
    read_oracle = itemgetter(*visit_order)
    span = max(reads) + 1
    # step k's share of each answer, k descending, once per source of a block
    steps = range((period - 1) << p, -1, -1 << p)

    checked = 0
    mismatch = 0
    for starts in itertools.product(*[range(0, tm, n) for tm, n in zip(two_m, lens)]):
        visit_keys = visit_signs = None
        for cols_k, cols_s, s, tm in zip(key_cols, sign_cols, starts, two_m):
            # the columns of the steps period-1 .. 0: residues s+k descending, cycled
            order = [(s + k) % tm for k in range(tm - 1, -1, -1)] * (period // tm)
            col_k = itertools.chain.from_iterable(map(cols_k.__getitem__, order))
            col_s = itertools.chain.from_iterable(map(cols_s.__getitem__, order))
            visit_keys = col_k if visit_keys is None else map(add, visit_keys, col_k)
            visit_signs = col_s if visit_signs is None else map(add, visit_signs, col_s)
        codes = map(add, visit_signs, itertools.chain.from_iterable(
            map(itertools.repeat, steps, itertools.repeat(size))))
        # the earliest step of each (source, point) is written last
        visits = [unreachable] * (size * n_points)
        deque(map(visits.__setitem__, visit_keys, codes), maxlen=0)
        oracle = list(read_oracle(visits))

        first = sum((tm - s - n + 1) * stride
                    for s, n, tm, stride in zip(starts, lens, two_m, pad_strides))
        answers = map(add, read_law(pad[first:first + span]), lift_signs)
        law = []
        for run_size, count in runs:
            run = itertools.islice(answers, run_size * count * size)
            law += run if run_size == 1 else map(min, *[run] * run_size)

        base = sum(s * stride for s, stride in zip(starts, strides))
        times = list(map(shared.__getitem__, map(add, rel_state, itertools.repeat(base))))
        if law != oracle:
            # in law order: group by group, source by source, target by target
            weights = [t for _, count in runs for t in times for _ in range(count)]
            mismatch += sum(itertools.compress(weights, map(ne, law, oracle)))
        checked += n_points * sum(times)
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
