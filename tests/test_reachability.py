"""Congruence-based reachability versus the full-period iteration oracle."""

import itertools
import math
import random

import pytest

from arithbilliards import billiards, core
from arithbilliards.billiards import (
    ReachAnswer,
    light_reachable,
    light_reachable_any,
    light_reachable_any_oracle,
    light_reachable_oracle,
    simulate,
    solve_congruences,
    step_length,
)
from arithbilliards.core import (
    BudgetExceededError,
    DirectionMask,
    GridSpec,
    Point,
    lift,
)
from support import ASC2, all_masks, all_points, grids, peak_bytes


def sign_loop(grid, source, mask, target):
    """Reference for :func:`light_reachable`: one CRT system per choice of
    target-lift signs, all ``2**p`` in lexicographic order, least witness first."""
    u = lift(grid, source, mask).residues
    best = ReachAnswer(False, None, None)
    for signs in itertools.product((0, 1), repeat=grid.p):
        residues = [((t if s == 0 else (tm - t) % tm) - ui) % tm
                    for t, s, ui, tm in zip(target.coords, signs, u, grid.two_m)]
        k = solve_congruences(residues, grid.two_m)
        if k is not None and (best.witness_steps is None or k < best.witness_steps):
            best = ReachAnswer(True, k, signs)
    return best


def first_least(answers):
    """The first answer, in mask order, with the least witness."""
    return min(answers, key=lambda a: (not a.reachable, a.witness_steps or 0))


class TestKnownCases:
    def test_boundary_ray_passes_target(self):
        # 6x4: the ray rising from (0,3) reaches (3,4) on its ninth diagonal
        g = GridSpec((6, 4))
        ans = light_reachable(g, Point((0, 3)), ASC2, Point((3, 4)))
        assert ans.reachable
        assert ans.witness_steps == 9
        traj = simulate(g, Point((0, 3)), ASC2, 9)
        assert traj.points[9].coords == (3, 4)
        assert all(p.coords != (3, 4) for p in traj.points[:9])

    def test_unreachable_pair_both_masks(self):
        g = GridSpec((6, 4))
        for mask in all_masks(2):
            ans = light_reachable(g, Point((0, 2)), mask, Point((3, 4)))
            assert not ans.reachable
            assert ans.witness_steps is None and ans.sign_choice is None

    def test_self_is_reachable_at_zero(self):
        g = GridSpec((6, 4))
        for mask in all_masks(2):
            ans = light_reachable(g, Point((2, 3)), mask, Point((2, 3)))
            assert ans.reachable and ans.witness_steps == 0

    def test_full_period_return(self):
        # a trajectory always revisits its start after one full period
        g = GridSpec((6, 4))
        k = step_length(g)
        traj = simulate(g, Point((0, 3)), ASC2, k)
        assert traj.points[k] == traj.points[0]
        assert traj.states[k] == traj.states[0]

    def test_position_can_return_before_the_loop_closes(self):
        g = GridSpec((4, 3))
        ans = light_reachable(g, Point((2, 2)), ASC2, Point((2, 2)))
        assert ans.witness_steps == 0
        traj = simulate(g, Point((2, 2)), ASC2, step_length(g))
        returns = [k for k, p in enumerate(traj.points) if k and p.coords == (2, 2)]
        assert returns[0] == 8


class TestOracleEquivalence:
    @pytest.mark.parametrize("dims", [(1, 1), (4, 3), (2, 2), (6, 4), (2, 1, 3)])
    def test_exhaustive_agreement(self, dims):
        g = GridSpec(dims)
        points = all_points(g)
        for src in points:
            for mask in all_masks(g.p):
                for dst in points:
                    fast = light_reachable(g, src, mask, dst)
                    slow = light_reachable_oracle(g, src, mask, dst)
                    assert fast == slow, (dims, src, mask, dst)

    def test_witness_bounded_by_period(self):
        g = GridSpec((6, 4))
        k = step_length(g)
        for src in all_points(g):
            ans = light_reachable(g, src, ASC2, Point((0, 0)))
            if ans.reachable:
                assert 0 <= ans.witness_steps < k

    def test_oracle_budget(self):
        g = GridSpec((10**6 + 3, 10**6 + 1))
        with pytest.raises(BudgetExceededError):
            light_reachable_oracle(g, Point((0, 0)), ASC2, Point((1, 1)))
        # the congruence route has no such limit
        assert light_reachable(g, Point((0, 0)), ASC2, Point((1, 1))).reachable

    def test_merge_budget(self, monkeypatch):
        # (1,)*5 corner to corner: c = 2 offers per coordinate under a mask and
        # c = 4 under any direction; the first coordinate charges c merges and,
        # the running lcm being 2 after it, each of the other four 2 * c
        g, src, dst = GridSpec((1,) * 5), Point((0,) * 5), Point((1,) * 5)
        asc = DirectionMask.ascending(5)
        expected = light_reachable(g, src, asc, dst), light_reachable_any(g, src, dst)
        mask_merges, any_merges = 2 + 4 * 4, 4 + 8 * 4
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", mask_merges)
        assert light_reachable(g, src, asc, dst) == expected[0]
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", any_merges)
        assert light_reachable_any(g, src, dst) == expected[1]

        def never(*args):
            raise AssertionError("a congruence was merged past the budget check")

        monkeypatch.setattr(billiards, "_merge_stage", never)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", any_merges - 1)
        with pytest.raises(BudgetExceededError):
            light_reachable_any(g, src, dst)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", mask_merges - 1)
        with pytest.raises(BudgetExceededError):
            light_reachable(g, src, asc, dst)

    def test_long_all_ones_grid(self):
        g, src, dst = GridSpec((1,) * 62), Point((0,) * 62), Point((1,) * 62)
        expected = ReachAnswer(True, 1, (0,) * 62)
        assert light_reachable(g, src, DirectionMask.ascending(62), dst) == expected
        assert light_reachable_any(g, src, dst) == expected


class TestAnyDirectionOracle:
    @pytest.mark.parametrize("dims", [*grids(2, 4), *grids(3, 2)])
    def test_every_pair(self, dims):
        g = GridSpec(dims)
        points = all_points(g)
        for src in points:
            for dst in points:
                assert light_reachable_any_oracle(g, src, dst) == light_reachable_any(g, src, dst), (
                    dims, src, dst)

    @pytest.mark.parametrize("dims", [(6, 4), (2, 1, 3)])
    def test_budget(self, monkeypatch, dims):
        # 2**p walks of the period 2*lcm, charged once before the first walk
        g = GridSpec(dims)
        src, dst = Point((0,) * g.p), Point(g.dims)
        charge = 2 ** g.p * step_length(g)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", charge)
        assert light_reachable_any_oracle(g, src, dst) == light_reachable_any(g, src, dst)

        def never(*args):
            raise AssertionError("the oracle walked past the budget check")

        monkeypatch.setattr(billiards, "light_reachable_oracle", never)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", charge - 1)
        with pytest.raises(BudgetExceededError, match="period steps"):
            light_reachable_any_oracle(g, src, dst)

    def test_validates_before_charging(self, monkeypatch):
        # a bad point is bad input even when its walks would be refused
        g = GridSpec((6, 4))
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 0)
        for src, dst in [(Point((7, 0)), Point((0, 0))), (Point((0, 0)), Point((0, 5, 0)))]:
            with pytest.raises(ValueError):
                light_reachable_any_oracle(g, src, dst)


class TestResidueMerge:
    """The merge holds residues only; the signs are read off at the least step."""

    def test_coprime_sides_memory(self):
        # eight odd prime sides under any direction: up to 4**7 live residues
        # before the last coordinate, which streams into min (1.15 MB here;
        # 1.92 MB when each residue also kept its least mask-and-signs key)
        g = GridSpec((3, 5, 7, 11, 13, 17, 19, 23))
        result, peak = peak_bytes(lambda: light_reachable_any(g, Point((1,) * 8), Point((2,) * 8)))
        assert result == ReachAnswer(True, 1, (0,) * 8)
        assert peak < 1.5e6

    def test_wrong_merge_is_caught(self, monkeypatch):
        # on 6x4, (0,1) is off the trajectory from (0,0); a merge one step late
        # offers step 2, where neither coordinate reads its target, and the
        # sign read-off refuses it instead of returning signs for it
        g, src, dst = GridSpec((6, 4)), Point((0, 0)), Point((0, 1))
        assert light_reachable(g, src, ASC2, dst) == ReachAnswer(False, None, None)
        merge = billiards._merge_stage

        def one_late(r, v, stage):
            k = merge(r, v, stage)
            return None if k is None else k + 1

        monkeypatch.setattr(billiards, "_merge_stage", one_late)
        with pytest.raises(ArithmeticError, match="step 2 does not reach"):
            light_reachable(g, src, ASC2, dst)


class TestSignLoopReference:
    @pytest.mark.parametrize("dims", [
        *grids(2, 4),
        *grids(3, 2),
    ])
    def test_every_triple(self, dims):
        g = GridSpec(dims)
        points = all_points(g)
        masks = all_masks(g.p)
        for src in points:
            for dst in points:
                reference = [sign_loop(g, src, mask, dst) for mask in masks]
                for mask, expected in zip(masks, reference):
                    assert light_reachable(g, src, mask, dst) == expected, (dims, src, mask, dst)
                assert light_reachable_any(g, src, dst) == first_least(reference), (dims, src, dst)

    def test_seeded_sample(self):
        rng = random.Random(20231)
        for _ in range(100):
            g = GridSpec(tuple(rng.randint(1, 12) for _ in range(rng.randint(4, 8))))
            src, dst = (Point(tuple(rng.randint(0, m) for m in g.dims)) for _ in range(2))
            mask = DirectionMask(tuple(rng.randint(0, 1) for _ in range(g.p)))
            assert light_reachable(g, src, mask, dst) == sign_loop(g, src, mask, dst)
            if g.p == 4:
                reference = [sign_loop(g, src, m, dst) for m in all_masks(g.p)]
                assert light_reachable_any(g, src, dst) == first_least(reference)


class TestDivisibilityForm:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 5), (4, 6), (5, 5), (6, 4)])
    def test_matches_two_gcd_divisibility(self, dims):
        # for 2-D grids and the ascending start, reachability is equivalent to
        # 2*gcd(m1,m2) dividing (x2-x1) +- y2 +- y1 for some choice of signs
        import math

        g = GridSpec(dims)
        d2 = 2 * math.gcd(*dims)
        for src in all_points(g):
            x1, x2 = src.coords
            for dst in all_points(g):
                y1, y2 = dst.coords
                divisible = any(
                    ((x2 - x1) + sj * y2 + sk * y1) % d2 == 0
                    for sj in (1, -1)
                    for sk in (1, -1)
                )
                assert light_reachable(g, src, ASC2, dst).reachable == divisible


class TestSolveCongruences:
    def test_basic(self):
        assert solve_congruences([1, 2], [4, 5]) == 17
        assert solve_congruences([0, 0, 0], [2, 3, 5]) == 0

    def test_incompatible(self):
        assert solve_congruences([0, 1], [4, 2]) is None

    def test_non_coprime_compatible(self):
        assert solve_congruences([2, 6], [8, 12]) == 18

    def test_least_solution(self):
        k = solve_congruences([9, 1], [12, 8])
        assert k == 9

    @pytest.mark.parametrize("p,max_m", [(2, 12), (3, 6)])
    def test_every_residue_vector(self, p, max_m):
        # against a table of the least k per residue vector, filled by
        # iterating k over one lcm; residues shifted by -1 and +2 moduli too
        for moduli in grids(p, max_m):
            least = {}
            for k in range(math.lcm(*moduli)):
                least.setdefault(tuple(k % m for m in moduli), k)
            for residues in itertools.product(*map(range, moduli)):
                for shift in (0, -1, 2):
                    shifted = [r + shift * m for r, m in zip(residues, moduli)]
                    assert solve_congruences(shifted, moduli) == least.get(residues), (
                        moduli, shifted)
