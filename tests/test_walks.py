"""Diagonal-walk orbits: index classification, sizes, and constructive walks."""

import itertools
import random
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

    def test_orbit_count_charged_at_the_budget_edge(self, monkeypatch):
        # (2, 3, 4) has 2**2 = 4 orbits: a budget of 4 answers, 3 refuses
        g = GridSpec((2, 3, 4))
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 4)
        assert [s.size for s in orbit_partition(g)] == [16, 14, 16, 14]
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 3)
        with pytest.raises(BudgetExceededError, match="orbits: 4 needed"):
            orbit_partition(g)


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
        # the BFS oracle's replay must reject a wrong move, and find_walk's
        # certificate a wrong run, even under python -O, which strips assert
        # statements
        script = textwrap.dedent("""
            import sys
            from arithbilliards import core, walks
            from arithbilliards.core import DirectionMask, GridSpec, Point

            def wrong_move(grid, state, mask):
                flipped = DirectionMask(tuple(1 - s for s in mask.signs))
                return core.step_directed(grid, state, flipped)

            def wrong_runs(x, y, m, k):
                up, bounce, down = runs(x, y, m, k)
                return up - 1, bounce + 2, down - 1

            walks.step_directed = wrong_move
            runs, walks._runs = walks._runs, wrong_runs
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

    @pytest.mark.parametrize("m,runs", [
        (5, (3, -2, 3)),  # a negative run
        (5, (1, 2, 1)),   # bounces below the wall
        (5, (0, 4, 0)),   # bounces below the wall, never rising
        (5, (3, 2, 3)),   # too long
        (5, (3, 0, 1)),   # misses the goal
        (3, (2, 0, 2)),   # rises past the wall
        (4, (2, 1, 1)),   # an odd bounce that misses the goal
    ])
    def test_certificate_rejects_a_wrong_run(self, monkeypatch, m, runs):
        # (0, 2) -> (4, 2) on (6, m) takes 4 steps.  A planted run replaces
        # the second coordinate's, (2, 0, 2) for m >= 4 and (1, 2, 1) for
        # m = 3; each of the first six breaks one clause of the certificate
        real = walks._runs
        monkeypatch.setattr(walks, "_runs",
                            lambda x, y, side, k: runs if x == y else real(x, y, side, k))
        with pytest.raises(ArithmeticError, match=f"do not walk 2 to 2 in 4 steps on side {m}"):
            find_walk(GridSpec((6, m)), Point((0, 2)), Point((4, 2)))

    def test_walk_takes_no_phase_step(self, monkeypatch):
        # the walk is read off its runs, not stepped: with the phase dynamics
        # patched to raise, it is still the BFS oracle's walk
        g, corner = GridSpec((6, 4)), GridSpec((117, 57))
        pairs = [(g, a, b) for a in all_points(g) for b in all_points(g)]
        pairs.append((corner, Point((0, 0)), Point((117, 57))))
        expected = [find_walk_bfs(*pair) for pair in pairs]

        def never(*args):
            raise AssertionError("find_walk ran the phase dynamics")

        for name in ("step_directed", "project", "lift"):
            monkeypatch.setattr(walks, name, never)
        assert [find_walk(*pair) for pair in pairs] == expected
        assert len(expected[-1]) == 117

    def test_reversal_and_permutation_past_the_oracle(self):
        # seeded same-orbit pairs on grids mostly past the BFS budget: the walk
        # back is the walk reversed with every sign flipped, and permuting
        # the coordinates permutes every mask's signs; a few walks are
        # replayed through the phase dynamics to the goal
        rng = random.Random(32)
        for trial in range(60):
            p = rng.randint(2, 5)
            dims = tuple(rng.randint(1, 3000) for _ in range(p))
            start = [rng.randint(0, m) for m in dims]
            goal = [rng.randint(0, m) for m in dims]
            for i in range(1, p):  # match goal_i - start_i's parity to goal_0 - start_0's
                if (goal[i] - start[i] - goal[0] + start[0]) % 2:
                    goal[i] += 1 if goal[i] < dims[i] else -1
            g, start, goal = GridSpec(dims), Point(tuple(start)), Point(tuple(goal))
            walk = find_walk(g, start, goal)
            flipped = [DirectionMask(tuple(1 - s for s in mask.signs)) for mask in reversed(walk)]
            assert find_walk(g, goal, start) == flipped
            order = rng.sample(range(p), p)
            permuted = find_walk(GridSpec(tuple(dims[i] for i in order)),
                                 Point(tuple(start.coords[i] for i in order)),
                                 Point(tuple(goal.coords[i] for i in order)))
            assert permuted == [DirectionMask(tuple(mask.signs[i] for i in order))
                                for mask in walk]
            if trial % 15 == 0:
                state = lift(g, start, DirectionMask.ascending(p))
                for mask in walk:
                    state = step_directed(g, state, mask)
                assert project(g, state) == goal

    @pytest.mark.parametrize("p", [2, 4])
    def test_walk_memory_per_step(self, p):
        # 2 * 10**4 steps; every coordinate but the first rises 4000 steps,
        # bounces 14000 and descends 2000.  One list slot per step, at most
        # 16 bytes each: steps with the same signs share one mask, and no
        # column of k signs is held beside them
        k = 2 * 10**4
        g = GridSpec((k,) + (5000,) * (p - 1))
        start, goal = Point((0,) + (1000,) * (p - 1)), Point((k,) + (3000,) * (p - 1))
        walk, peak = peak_bytes(lambda: find_walk(g, start, goal))
        assert len(walk) == k
        assert peak <= 16 * k


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
