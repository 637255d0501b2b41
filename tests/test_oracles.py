"""The exhaustive oracles themselves: sensitivity to a planted fault, agreement
with minimal step-by-step and point-by-point reference loops, and memory on
long grids."""

import itertools
import math

import pytest

from arithbilliards import core, kernels
from arithbilliards.billiards import (
    ReachAnswer,
    first_closure,
    light_reachable,
    light_reachable_oracle,
)
from arithbilliards.core import DirectionMask, GridSpec, PhaseState, Point, lift
from arithbilliards.walks import bfs_component_ids, find_walk_bfs, orbit_sizes_bruteforce
from support import ASC2, all_masks, all_points, all_states, grids, peak_bytes


def reference_closure(two_m, residues, limit):
    """Step one phase at a time until both the start position and the
    position one step before the start are read again."""

    def position(r, tm):
        return tm // 2 - abs(tm // 2 - r)

    start = [position(u, tm) for u, tm in zip(residues, two_m)]
    before = [position((u - 1) % tm, tm) for u, tm in zip(residues, two_m)]
    for k in range(1, limit + 1):
        now = [position((u + k) % tm, tm) for u, tm in zip(residues, two_m)]
        prev = [position((u + k - 1) % tm, tm) for u, tm in zip(residues, two_m)]
        if now == start and prev == before:
            return k
    return None


def reference_sums(dims, residues):
    period = math.lcm(*[2 * m for m in dims])
    sums = [0] * len(dims)
    for k in range(period):
        for i, (u, m) in enumerate(zip(residues, dims)):
            sums[i] += m - abs(m - (u + k) % (2 * m))
    return sums


def reference_bfs(dims, seed, parent):
    """Breadth-first search that decodes each visited point and combines its
    allowed +-1 moves per coordinate in lexicographic sign order."""
    radices = [m + 1 for m in dims]
    strides = [math.prod(radices[i + 1:]) for i in range(len(dims))]
    parent[seed] = seed
    order = [seed]
    for pid in order:
        allowed = [[s for s, ok in ((stride, x < m), (-stride, x > 0)) if ok]
                   for x, m, stride in zip(core.decode_digits(pid, radices), dims, strides)]
        for offsets in itertools.product(*allowed):
            nid = pid + sum(offsets)
            if parent[nid] < 0:
                parent[nid] = pid
                order.append(nid)
    return order


def reference_components(dims):
    n_points = math.prod(m + 1 for m in dims)
    parent = [-1] * n_points
    comp = [-1] * n_points
    cid = 0
    for seed in range(n_points):
        if parent[seed] < 0:
            for pid in reference_bfs(dims, seed, parent):
                comp[pid] = cid
            cid += 1
    return comp


def reference_walk(grid, parent, origin, goal):
    """The walk to ``goal`` read back from the parent links of a search from
    ``origin``, or None."""
    pid = core.encode_point(grid, goal)
    if parent[pid] < 0:
        return None
    trail = [pid]
    while pid != origin:
        pid = parent[pid]
        trail.append(pid)
    points = [core.decode_point(grid, q).coords for q in reversed(trail)]
    return [DirectionMask(tuple(0 if y > x else 1 for x, y in zip(here, there)))
            for here, there in zip(points, points[1:])]


def reference_parity_counts(grid):
    """Points per parity index, one index tuple per point."""
    counts = {}
    for point in all_points(grid):
        coords = point.coords
        bits = tuple((coords[0] + x) % 2 for x in coords[1:])
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def reference_first_visits(grid, residues):
    """Step the phase state one step at a time over one period; map each
    point visited to the answer of its first visit."""
    seen = {}
    for k in range(2 * grid.lcm):
        now = [(u + k) % tm for u, tm in zip(residues, grid.two_m)]
        point = tuple(m - abs(m - r) for r, m in zip(now, grid.dims))
        if point not in seen:
            seen[point] = ReachAnswer(True, k, tuple(int(r > m) for r, m in zip(now, grid.dims)))
    return seen


# Planted CRT faults: each turns the true answer ``r`` of a residue-difference
# vector into a wrong one on some vectors.  "late" is one step late, "spurious"
# solves some vectors that have no solution, "dropped" loses some solutions.
FAULTS = {
    "late": lambda r, residues: r + 1 if r is not None and r % 7 == 3 else r,
    "spurious": lambda r, residues: (sum(residues) % 3
                                     if r is None and sum(residues) % 5 == 1 else r),
    "dropped": lambda r, residues: None if r is not None and r % 5 == 2 else r,
}

# (dims, expected (checked, mismatch)) per fault, as the step-at-a-time scan
# counted them.  A spurious answer of 0, 1 or 2 ties with true ones, so its
# counts hold only if tied answers are merged by min.
SPURIOUS = [((6, 4), (4900, 2019)), ((3, 3, 3), (32768, 17320)),
            ((1, 5, 2), (10368, 3296)), ((2, 5), (1296, 272))]
DROPPED = [((6, 4), (4900, 412)), ((3, 3, 3), (32768, 504)),
           ((1, 5, 2), (10368, 480)), ((2, 5), (1296, 120))]
SPURIOUS_AND_DROPPED = ([("spurious", *case) for case in SPURIOUS]
                        + [("dropped", *case) for case in DROPPED])


def scan_with_fault(monkeypatch, fault, dims):
    """:func:`kernels.reach_scan` with a CRT solver that has the planted fault
    ``FAULTS[fault]``; the scan must call it once per residue-difference
    vector."""
    solve = kernels.solve_congruences
    calls = []

    def faulty(residues, moduli):
        calls.append(residues)
        return FAULTS[fault](solve(residues, moduli), residues)

    monkeypatch.setattr(kernels, "solve_congruences", faulty)
    result = kernels.reach_scan(list(dims))
    assert len(calls) == math.prod(2 * m for m in dims)
    return result


class TestPlantedFault:
    """A CRT solver that is off by one on some residues must be caught, and
    counted exactly as the step-at-a-time scan counted it."""

    @pytest.mark.parametrize("dims,expected", [
        ((6, 4), (4900, 264)),
        ((3, 3, 3), (32768, 504)),
        ((2, 5), (1296, 100)),
        # a side of 1 puts every source coordinate there on a wall, so the
        # masks of a source share lifts; with all sides 1 every lift is shared
        # by all 2**p masks, and each triple is still counted once
        ((1, 6), (784, 56)),
        ((1, 5, 2), (10368, 400)),
        ((1, 1, 1), (8**2 * 2**3, 0)),
    ])
    def test_reach_scan_counts_mismatches(self, monkeypatch, dims, expected):
        assert scan_with_fault(monkeypatch, "late", dims) == expected

    @pytest.mark.parametrize("fault,dims,expected", SPURIOUS_AND_DROPPED)
    def test_spurious_and_dropped_answers(self, monkeypatch, fault, dims, expected):
        assert scan_with_fault(monkeypatch, fault, dims) == expected

    @pytest.mark.parametrize("dims,expected", [((6, 4), (4900, 4060)), ((3, 3, 3), (32768, 5888))])
    def test_late_stage_merge_is_caught(self, monkeypatch, dims, expected):
        # the law side solves through core._merge_stage, the merge that
        # light_reachable runs, so a fault there is counted too
        merge = core._merge_stage

        def one_late(r, v, stage):
            k = merge(r, v, stage)
            return None if k is None else k + 1

        monkeypatch.setattr(core, "_merge_stage", one_late)
        assert kernels.reach_scan(list(dims)) == expected


class TestReachScanBlocks:
    """reach_scan holds one table per side, so its memory is bounded by the
    grid's phase states, not by the triples it checks."""

    def test_memory_stays_blocked(self):
        # two tables of 1,728 entries each peak at about 30 KB
        result, peak = peak_bytes(lambda: kernels.reach_scan([6, 6, 6]))
        assert result == (7**6 * 2**3, 0)
        assert peak < 1 << 17


def reference_reach_scan(dims, solve):
    """``(checked, mismatch)`` of :func:`kernels.reach_scan`, one triple at a
    time: the law's answer is the least ``(solve answer, signs)`` over the
    target's lifts, the walk's the first visit of one period walked step by
    step (:func:`reference_first_visits`)."""
    g = GridSpec(dims)
    points = all_points(g)
    checked = mismatch = 0
    for src in points:
        for mask in all_masks(g.p):
            u = lift(g, src, mask).residues
            seen = reference_first_visits(g, u)
            for tgt in points:
                answers = []
                for v in set(itertools.product(*[(x, (tm - x) % tm)
                                                 for x, tm in zip(tgt.coords, g.two_m)])):
                    k = solve(tuple((a - b) % tm for a, b, tm in zip(v, u, g.two_m)), g.two_m)
                    if k is not None:
                        answers.append((k, tuple(int(a > m) for a, m in zip(v, g.dims))))
                walked = seen.get(tgt.coords)
                checked += 1
                mismatch += min(answers, default=None) != (
                    None if walked is None else (walked.witness_steps, walked.sign_choice))
    return checked, mismatch


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("dims", [*grids(2, 3), *grids(3, 2), (6, 4)])
def test_reach_scan_matches_reference(monkeypatch, fault, dims):
    solve = core.solve_congruences
    if fault is None:
        assert kernels.reach_scan(list(dims)) == reference_reach_scan(dims, solve)
    else:
        def faulty(residues, moduli):
            return FAULTS[fault](solve(residues, moduli), residues)

        assert scan_with_fault(monkeypatch, fault, dims) == reference_reach_scan(dims, faulty)


class TestMaskTables:
    """The per-coordinate masks of the per-call oracles are kept in two
    bounded tables keyed by plain ints, so a sweep over one grid's states or
    targets builds each coordinate's masks once."""

    def test_tables_are_bounded(self):
        for table in (kernels._closure_mask, kernels._target_mask):
            assert table.cache_info().maxsize <= 256

    def test_state_sweep_builds_one_mask_per_residue(self):
        g = GridSpec((4, 3, 2))
        period = math.lcm(*g.two_m)
        kernels._closure_mask.cache_clear()
        assert all(first_closure(g, s, period) == period for s in all_states(g))
        assert kernels._closure_mask.cache_info().misses == sum(g.two_m)

    def test_target_sweep_builds_one_mask_per_position(self):
        g = GridSpec((4, 3, 2))
        kernels._target_mask.cache_clear()
        for tgt in all_points(g):
            light_reachable_oracle(g, Point((1, 2, 0)), DirectionMask((0, 1, 1)), tgt)
        assert kernels._target_mask.cache_info().misses <= sum(m + 1 for m in g.dims)


class TestPlantedFaultInTables:
    """A fault in the per-coordinate helper that a sweep tabulates once per
    residue, and that its per-state function calls directly, is counted by
    the sweep exactly as per-state calls count it.  (256, 3) walks two
    blocks, and the fault closes some states in the first."""

    GRIDS = [(3, 2), (4, 3), (2, 2, 3), (3, 1, 2), (256, 3)]

    @pytest.mark.parametrize("dims", GRIDS)
    def test_least_closure_violations(self, monkeypatch, dims):
        closure_mask = kernels._closure_mask

        def faulty(u, tm, k0, n):
            # a false match at the first step of every block, on residues 1 mod 3
            mask = closure_mask(u, tm, k0, n)
            return mask | 1 << (n - 1) if u % 3 == 1 else mask

        monkeypatch.setattr(kernels, "_closure_mask", faulty)
        two_m = [2 * m for m in dims]
        period = math.lcm(*two_m)
        expected = sum(kernels.least_closure(two_m, s.residues, period) != period
                       for s in all_states(GridSpec(dims)))
        assert 0 < expected < math.prod(two_m)
        assert kernels.least_closure_violations(list(dims)) == expected

    @pytest.mark.parametrize("dims", GRIDS)
    def test_coordinate_sum_violations(self, monkeypatch, dims):
        period_sum = kernels._period_sum

        def faulty(u, m, period):
            return period_sum(u, m, period) + (u % 4 == 3)

        monkeypatch.setattr(kernels, "_period_sum", faulty)
        expect = [m * math.lcm(*dims) for m in dims]
        expected = sum(kernels.period_sums(list(dims), s.residues) != expect
                       for s in all_states(GridSpec(dims)))
        assert 0 < expected < math.prod(2 * m for m in dims)
        assert kernels.coordinate_sum_violations(list(dims)) == expected


@pytest.mark.parametrize("dims", [(3, 2), (4, 3), (3, 2, 2), (2, 5)])
def test_least_closure_matches_reference(dims):
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    for residues in (s.residues for s in all_states(GridSpec(dims))):
        for limit in (0, 1, period - 1, period, 2 * period + 3):
            assert (kernels.least_closure(two_m, residues, limit)
                    == reference_closure(two_m, residues, limit)), (residues, limit)


@pytest.mark.parametrize("dims", [(3, 2), (4, 3), (3, 2, 2), (2, 5)])
def test_period_sums_match_reference(dims):
    for residues in (s.residues for s in all_states(GridSpec(dims))):
        assert kernels.period_sums(list(dims), residues) == reference_sums(dims, residues)


@pytest.mark.parametrize("dims,residues", [
    ((600, 7), (0, 0)), ((600, 7), (1199, 13)), ((600, 7), (600, 7)),
    ((512, 3), (0, 0)), ((512, 3), (5, 3)),
])
def test_walks_spanning_several_blocks(dims, residues):
    # a period of (600, 7) is 8400 steps; one of (512, 3) is 3072, so its
    # closure falls on the last step of a block
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    assert period > 2 * kernels.BLOCK
    for limit in (0, 1, period - 1, period, 2 * period + 3):
        assert (kernels.least_closure(two_m, residues, limit)
                == reference_closure(two_m, residues, limit)), limit
    assert kernels.period_sums(list(dims), residues) == reference_sums(dims, residues)


def test_reachability_oracle_across_blocks():
    g = GridSpec((512, 3))
    targets = [Point((x, y)) for x in (0, 1, 2, 510, 511, 512) for y in range(4)]
    for src in (Point((0, 0)), Point((3, 1))):
        for mask in all_masks(2):
            for tgt in targets:
                assert (light_reachable_oracle(g, src, mask, tgt)
                        == light_reachable(g, src, mask, tgt)), (src, mask.signs, tgt)


# sides of 1 (every coordinate on a wall), inside coordinates, and p up to 4
SMALL_GRIDS = [(1, 1), (1, 4), (3, 2), (6, 4), (2, 1, 3), (1, 1, 1), (2, 2, 2),
               (1, 1, 1, 1), (2, 1, 2, 2), (3, 2, 1, 2)]
# periods of 3072 and 8400 steps: walks longer than one block
LONG_GRIDS = [(512, 3), (600, 7)]


class TestAgainstReferences:
    """The column-built oracles equal the point-by-point and step-by-step
    loops they replace."""

    @pytest.mark.parametrize("dims", SMALL_GRIDS + LONG_GRIDS)
    def test_component_ids(self, dims):
        assert bfs_component_ids(GridSpec(dims)) == reference_components(dims)

    @pytest.mark.parametrize("dims", SMALL_GRIDS + LONG_GRIDS)
    def test_find_walk_bfs(self, dims):
        g = GridSpec(dims)
        points = all_points(g)
        # every goal from a spread of starts; on the long grids, a few goals
        # at the far end of each coordinate
        goals = points if g.n_points <= 200 else [
            Point(c) for c in [(0, 1), (1, 0), (dims[0], dims[1]), (dims[0] - 1, 2), (5, 3)]]
        for start in points[::max(1, len(points) // 6)]:
            parent = [-1] * g.n_points
            origin = core.encode_point(g, start)
            reference_bfs(dims, origin, parent)
            for goal in goals:
                assert (find_walk_bfs(g, start, goal)
                        == reference_walk(g, parent, origin, goal)), (start, goal)

    @pytest.mark.parametrize("block", [1, 3, 7, 40, kernels.PARITY_BLOCK])
    def test_parity_counts(self, monkeypatch, block):
        # small blocks take every path of the tiling: whole grids in one
        # block, runs of the next coordinate, and leading tuples
        monkeypatch.setattr(kernels, "PARITY_BLOCK", block)
        for dims in SMALL_GRIDS + [(4, 9), (5, 1, 6), (13, 2), (2, 3, 2, 3)]:
            g = GridSpec(dims)
            assert orbit_sizes_bruteforce(g) == reference_parity_counts(g), dims

    @pytest.mark.parametrize("dims", SMALL_GRIDS)
    def test_reach_oracle(self, dims):
        g = GridSpec(dims)
        points = all_points(g)
        for src in points[::max(1, len(points) // 5)]:
            for mask in all_masks(g.p):
                seen = reference_first_visits(g, lift(g, src, mask).residues)
                for tgt in points:
                    assert (light_reachable_oracle(g, src, mask, tgt)
                            == seen.get(tgt.coords, ReachAnswer(False, None, None))), (src, mask.signs, tgt)

    @pytest.mark.parametrize("dims", LONG_GRIDS)
    def test_reach_oracle_across_blocks(self, dims):
        g = GridSpec(dims)
        points = [point.coords for point in all_points(g)]
        # (5, 3) from (0, 0) on (512, 3) is first reached at step 1029, in
        # the second block
        targets = points[::97] + [(5, 3), (dims[0], dims[1]), (dims[0] - 1, 0)]
        for src in (Point((0, 0)), Point((1, 1)), Point((dims[0] - 2, 2))):
            for mask in all_masks(2):
                seen = reference_first_visits(g, lift(g, src, mask).residues)
                assert any(a.witness_steps >= kernels.BLOCK for a in seen.values())
                for tgt in targets:
                    assert (light_reachable_oracle(g, src, mask, Point(tgt))
                            == seen.get(tgt, ReachAnswer(False, None, None))), (src, mask.signs, tgt)
        assert light_reachable_oracle(
            GridSpec((512, 3)), Point((0, 0)), DirectionMask((0, 0)), Point((5, 3))
        ).witness_steps == 1029


class TestLongGrids:
    """A short walk on a grid with one long side costs its steps, not m_i."""

    def test_first_closure_short_limit(self):
        g = GridSpec((10**9, 2))
        result, peak = peak_bytes(lambda: first_closure(g, PhaseState((5, 1)), 1))
        assert result is None
        assert peak < 1 << 20

    def test_reachability_oracle_stops_at_the_hit(self, monkeypatch):
        # (5000, 0) is first reached at step 5000, several blocks into a period
        # of 2e9 steps
        g = GridSpec((10**9, 2))
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 2 * 10**9)
        result, peak = peak_bytes(lambda: light_reachable_oracle(
            g, Point((0, 0)), ASC2, Point((5000, 0))))
        assert result == ReachAnswer(True, 5000, (0, 0))
        assert peak < 1 << 20

    def test_orbit_sizes_stream(self):
        # the parity codes are counted in blocks, never held for the whole grid
        g = GridSpec((1, 1000, 300))
        result, peak = peak_bytes(lambda: orbit_sizes_bruteforce(g))
        assert sum(result.values()) == g.n_points
        assert peak < 1 << 20

    @pytest.mark.parametrize("dims", [(300, 300), (1, 1000, 300)])
    def test_bfs_component_ids_per_point(self, dims):
        # the parent and component lists and the visit order hold about
        # 50 B per point; the move table adds a byte of class code per point
        g = GridSpec(dims)
        result, peak = peak_bytes(lambda: bfs_component_ids(g))
        assert len(set(result)) == 2 ** (g.p - 1)
        assert peak <= 64 * g.n_points
