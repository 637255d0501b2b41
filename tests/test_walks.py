"""Diagonal-walk orbits: index classification, sizes, and constructive walks."""

import itertools
import subprocess
import sys
import textwrap

import pytest

from arithbilliards import core, walks
from arithbilliards.core import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    DirectionMask,
    GridSpec,
    OrbitIndex,
    Point,
    index_of,
    lift,
    project,
    step_directed,
)
from arithbilliards.walks import (
    bfs_component_ids,
    find_walk,
    find_walk_bfs,
    orbit_partition,
    orbit_size,
    orbit_sizes_bruteforce,
    same_orbit,
)
from support import ASC2, all_points, grids, package_env, peak_bytes


class TestSameOrbit:
    def test_6x4_examples(self):
        assert same_orbit(Point((0, 2)), Point((4, 0)))
        assert not same_orbit(Point((0, 2)), Point((6, 1)))

    def test_unit_cube_corners(self):
        assert same_orbit(Point((0, 0, 0)), Point((1, 1, 1)))
        assert not same_orbit(Point((0, 0, 0)), Point((1, 0, 0)))

    def test_reflexive(self):
        assert same_orbit(Point((3, 1)), Point((3, 1)))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            same_orbit(Point((1, 2)), Point((1, 2, 3)))


class TestOrbitSize:
    def test_6x4(self):
        g = GridSpec((6, 4))
        assert orbit_size(g, OrbitIndex((0,))) == 18
        assert orbit_size(g, OrbitIndex((1,))) == 17

    def test_even_even_grids_have_one_extra_even_point(self):
        for m, n in grids(2, 12):
            g = GridSpec((m, n))
            even = orbit_size(g, OrbitIndex((0,)))
            odd = orbit_size(g, OrbitIndex((1,)))
            if m % 2 == 0 and n % 2 == 0:
                assert even == odd + 1
            else:
                assert even == odd

    def test_unit_cube(self):
        g = GridSpec((1, 1, 1))
        for bits in itertools.product((0, 1), repeat=2):
            assert orbit_size(g, OrbitIndex(bits)) == 2

    @pytest.mark.parametrize("dims", [(2, 1, 3), (4, 3, 2), (1, 2, 1, 2), (3, 3)])
    def test_matches_bruteforce(self, dims):
        g = GridSpec(dims)
        brute = orbit_sizes_bruteforce(g)
        for bits in itertools.product((0, 1), repeat=g.p - 1):
            assert orbit_size(g, OrbitIndex(bits)) == brute.get(bits, 0)

    def test_index_arity_checked(self):
        with pytest.raises(ValueError):
            orbit_size(GridSpec((2, 2)), OrbitIndex((0, 1)))

    @pytest.mark.parametrize("bits", [(5,), (-1,), (2,), (0, 2), (1, None)])
    def test_index_bits_checked(self, bits):
        # no orbit has such an index, so orbit_size must never count one
        with pytest.raises(ValueError, match="0 or 1"):
            OrbitIndex(bits)


class TestOrbitPartition:
    def test_6x4(self):
        sizes = [s.size for s in orbit_partition(GridSpec((6, 4)))]
        assert sizes == [18, 17]

    def test_unit_square(self):
        sizes = [s.size for s in orbit_partition(GridSpec((1, 1)))]
        assert sizes == [2, 2]

    def test_4x3x2(self):
        summaries = orbit_partition(GridSpec((4, 3, 2)))
        assert [s.size for s in summaries] == [16, 14, 16, 14]
        assert sum(s.size for s in summaries) == 60

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (2, 2, 2), (1, 2, 3, 4)])
    def test_partition_properties(self, dims):
        g = GridSpec(dims)
        summaries = orbit_partition(g)
        assert len(summaries) == 2 ** (g.p - 1)
        assert sum(s.size for s in summaries) == g.n_points
        for s in summaries:
            assert index_of(s.sample) == s.index
            assert s.size >= 1

    def test_orbit_count_budget(self, monkeypatch):
        # 2**24 orbits exceed the budget; the check runs before any is built
        # (a summary built past it fails at once instead of running on)
        def never(grid, index):
            raise AssertionError("orbit_partition built a summary past its budget check")

        monkeypatch.setattr(walks, "orbit_size", never)
        g = GridSpec((1,) * 25)
        assert 2 ** (g.p - 1) > DEFAULT_STATE_BUDGET
        _, peak = peak_bytes(lambda: orbit_partition(g), raises=BudgetExceededError)
        assert peak < 64 * 1024


class TestBfsPartition:
    @pytest.mark.parametrize("dims", [(6, 4), (1, 1, 1), (3, 2, 4), (2, 2, 2, 2)])
    def test_components_equal_index_classes(self, dims):
        g = GridSpec(dims)
        comp = bfs_component_ids(g)
        points = all_points(g)
        comp_of_index = {}
        for pid, point in enumerate(points):
            bits = index_of(point).bits
            comp_of_index.setdefault(bits, comp[pid])
            assert comp_of_index[bits] == comp[pid]
        assert len(set(comp)) == 2 ** (g.p - 1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            bfs_component_ids(GridSpec((4000, 4000)))

    def test_budget_counts_moves(self):
        # 3**12 points but 4**12 moves: the search and its move table are
        # bounded by the moves, refused before anything is built
        g = GridSpec((2,) * 12)
        assert g.n_points <= DEFAULT_STATE_BUDGET < g.n_states
        with pytest.raises(BudgetExceededError, match="BFS moves"):
            bfs_component_ids(g)
        with pytest.raises(BudgetExceededError, match="BFS moves"):
            find_walk_bfs(g, Point((0,) * 12), Point((1,) * 12))


class TestFindWalk:
    def test_6x4_example_walk(self):
        g = GridSpec((6, 4))
        walk = find_walk(g, Point((0, 2)), Point((4, 0)))
        assert walk is not None
        assert len(walk) == 4

    def test_walk_replays_through_phase_dynamics(self):
        g = GridSpec((6, 4))
        start, goal = Point((0, 2)), Point((4, 0))
        walk = find_walk(g, start, goal)
        state = lift(g, start, ASC2)
        for mask in walk:
            state = step_directed(g, state, mask)
        assert project(g, state) == goal

    def test_identity_walk_is_empty(self):
        g = GridSpec((5, 3))
        assert find_walk(g, Point((2, 1)), Point((2, 1))) == []

    def test_unit_cube(self):
        g = GridSpec((1, 1, 1))
        walk = find_walk(g, Point((0, 0, 0)), Point((1, 1, 1)))
        assert walk == [DirectionMask((0, 0, 0))]
        assert find_walk(g, Point((0, 0, 0)), Point((1, 0, 0))) is None

    def test_deterministic(self):
        g = GridSpec((7, 5))
        a = find_walk(g, Point((0, 0)), Point((5, 3)))
        b = find_walk(g, Point((0, 0)), Point((5, 3)))
        assert a == b

    def test_absence_matches_same_orbit(self):
        g = GridSpec((3, 2))
        for src in all_points(g):
            for dst in all_points(g):
                walk = find_walk(g, src, dst)
                assert (walk is not None) == same_orbit(src, dst)

    @pytest.mark.parametrize("finder", [find_walk, find_walk_bfs])
    @pytest.mark.parametrize("value", [0.5, True])
    def test_rejects_non_integer_points(self, finder, value):
        g = GridSpec((6, 4))
        with pytest.raises(ValueError, match="integers"):
            finder(g, Point((value, 0)), Point((3, 3)))
        with pytest.raises(ValueError, match="integers"):
            finder(g, Point((0, 0)), Point((value, 2)))

    def test_budget(self):
        # the BFS oracle is bounded by the moves it examines, at least the
        # grid's point count, checked before its parent list of 4001**2
        # entries is allocated
        _, peak = peak_bytes(
            lambda: find_walk_bfs(GridSpec((4000, 4000)), Point((0, 0)), Point((1, 1))),
            raises=BudgetExceededError)
        assert peak < 64 * 1024

    def test_budget_bounds_walk_length(self, monkeypatch):
        g = GridSpec((4000, 4000))
        assert find_walk(g, Point((0, 0)), Point((1, 1))) == [DirectionMask((0, 0))]
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 30)
        assert len(find_walk(g, Point((0, 0)), Point((30, 2)))) == 30
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 29)
        with pytest.raises(BudgetExceededError):
            find_walk(g, Point((0, 0)), Point((30, 2)))

    def test_replay_check_survives_optimize_flag(self):
        # the replay must reject a wrong move even under python -O, which
        # strips assert statements
        script = textwrap.dedent("""
            import sys
            from arithbilliards import core, walks
            from arithbilliards.core import DirectionMask, GridSpec, Point

            def wrong_move(grid, state, mask):
                flipped = DirectionMask(tuple(1 - s for s in mask.signs))
                return core.step_directed(grid, state, flipped)

            walks.step_directed = wrong_move
            print("optimize", sys.flags.optimize)
            for find in (walks.find_walk, walks.find_walk_bfs):
                try:
                    find(GridSpec((6, 4)), Point((0, 2)), Point((4, 0)))
                except ArithmeticError:
                    print(find.__name__, "raised")
                else:
                    print(find.__name__, "accepted")
        """)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=package_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split("\n")[:3] == [
            "optimize 1", "find_walk raised", "find_walk_bfs raised",
        ]


class TestIndexPreservation:
    @pytest.mark.parametrize("dims", [(3, 2), (2, 2, 2), (1, 3, 2)])
    def test_every_inbounds_move_preserves_index(self, dims):
        g = GridSpec(dims)
        for point in all_points(g):
            for signs in itertools.product((0, 1), repeat=g.p):
                target = tuple(
                    x + (1 if s == 0 else -1) for x, s in zip(point.coords, signs)
                )
                if any(not 0 <= x <= m for x, m in zip(target, g.dims)):
                    continue
                assert index_of(Point(target)) == index_of(point)
