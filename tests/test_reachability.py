"""Congruence-based reachability versus the full-period iteration oracle."""

import itertools

import pytest

from arithbilliards import billiards, core
from arithbilliards.billiards import (
    light_reachable,
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
)

ASC2 = DirectionMask.ascending(2)


def all_points(grid):
    return [
        Point(coords)
        for coords in itertools.product(*[range(m + 1) for m in grid.dims])
    ]


def all_masks(p):
    return [DirectionMask(signs) for signs in itertools.product((0, 1), repeat=p)]


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

    def test_sign_choices_budget(self, monkeypatch):
        # the 2**p lift-sign systems are charged before the first solve
        def corners(p):
            return GridSpec((1,) * p), Point((0,) * p), Point((1,) * p)

        g, src, dst = corners(4)
        unpatched = light_reachable(g, src, DirectionMask.ascending(4), dst)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 16)
        assert light_reachable(g, src, DirectionMask.ascending(4), dst) == unpatched

        def never(residues, moduli):
            raise AssertionError("a congruence system was solved past the budget check")

        monkeypatch.setattr(billiards, "solve_congruences", never)
        g, src, dst = corners(5)
        with pytest.raises(BudgetExceededError):
            light_reachable(g, src, DirectionMask.ascending(5), dst)


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
