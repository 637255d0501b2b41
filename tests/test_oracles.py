"""The exhaustive oracles themselves: sensitivity to a planted fault, agreement
with minimal step-by-step reference loops, and memory on long grids."""

import itertools
import math
import tracemalloc

import pytest

from arithbilliards import core, kernels
from arithbilliards.billiards import (
    ReachAnswer,
    first_closure,
    light_reachable,
    light_reachable_oracle,
)
from arithbilliards.core import DirectionMask, GridSpec, PhaseState, Point


def all_states(two_m):
    return itertools.product(*[range(tm) for tm in two_m])


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
        solve = kernels.solve_congruences

        def faulty(residues, moduli):
            r = solve(residues, moduli)
            return r + 1 if r is not None and r % 7 == 3 else r

        monkeypatch.setattr(kernels, "solve_congruences", faulty)
        assert kernels.reach_scan(list(dims)) == expected


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
        expected = sum(kernels.least_closure(two_m, u, period) != period
                       for u in all_states(two_m))
        assert 0 < expected < math.prod(two_m)
        assert kernels.least_closure_violations(list(dims)) == expected

    @pytest.mark.parametrize("dims", GRIDS)
    def test_coordinate_sum_violations(self, monkeypatch, dims):
        period_sum = kernels._period_sum

        def faulty(u, m, period):
            return period_sum(u, m, period) + (u % 4 == 3)

        monkeypatch.setattr(kernels, "_period_sum", faulty)
        expect = [m * math.lcm(*dims) for m in dims]
        expected = sum(kernels.period_sums(list(dims), u) != expect
                       for u in all_states([2 * m for m in dims]))
        assert 0 < expected < math.prod(2 * m for m in dims)
        assert kernels.coordinate_sum_violations(list(dims)) == expected


@pytest.mark.parametrize("dims", [(3, 2), (4, 3), (3, 2, 2), (2, 5)])
def test_least_closure_matches_reference(dims):
    two_m = [2 * m for m in dims]
    period = math.lcm(*two_m)
    for residues in all_states(two_m):
        for limit in (0, 1, period - 1, period, 2 * period + 3):
            assert (kernels.least_closure(two_m, residues, limit)
                    == reference_closure(two_m, residues, limit)), (residues, limit)


@pytest.mark.parametrize("dims", [(3, 2), (4, 3), (3, 2, 2), (2, 5)])
def test_period_sums_match_reference(dims):
    for residues in all_states([2 * m for m in dims]):
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
        for signs in itertools.product((0, 1), repeat=2):
            mask = DirectionMask(signs)
            for tgt in targets:
                assert (light_reachable_oracle(g, src, mask, tgt)
                        == light_reachable(g, src, mask, tgt)), (src, signs, tgt)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


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
        ascending = DirectionMask.ascending(2)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 2 * 10**9)
        result, peak = peak_bytes(lambda: light_reachable_oracle(
            g, Point((0, 0)), ascending, Point((5000, 0))))
        assert result == ReachAnswer(True, 5000, (0, 0))
        assert peak < 1 << 20
