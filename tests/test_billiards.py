"""Trajectories, path enumeration/counting, boundary and coordinate sums."""

import math
import pickle

import pytest

from arithbilliards import core, kernels
from arithbilliards.billiards import (
    PathKind,
    PeriodicSequence,
    Trajectory,
    boundary_hits,
    classify_path,
    coordinate_sums,
    count_closed,
    count_open,
    enumerate_paths,
    enumerate_paths_exhaustive,
    first_closure,
    geometric_length,
    light_reachable,
    light_reachable_oracle,
    simulate,
    step_length,
)
from arithbilliards.circseq import SeqSpec, circ_seq, circ_seq_closed, gen_function, series_expand
from arithbilliards.core import (
    BudgetExceededError,
    DirectionMask,
    GridSpec,
    PhaseState,
    Point,
    encode_state,
    lift,
    make_state,
    project,
    reverse,
    step,
)
from support import ASC2, all_states, orbit, peak_bytes


class TestSimulate:
    def test_octagon_returns_to_position_not_state(self):
        # 4x3 grid from (2,2): position repeats after 8 steps while the phase
        # state does not, so the loop is not yet complete
        g = GridSpec((4, 3))
        traj = simulate(g, Point((2, 2)), ASC2, 8)
        assert [p.coords for p in traj.points] == [
            (2, 2), (3, 3), (4, 2), (3, 1), (2, 0), (1, 1), (0, 2), (1, 3), (2, 2),
        ]
        assert traj.points[8] == traj.points[0]
        assert traj.states[8] != traj.states[0]

    def test_ray_from_boundary(self):
        g = GridSpec((6, 4))
        traj = simulate(g, Point((0, 3)), ASC2, 4)
        assert [p.coords for p in traj.points] == [
            (0, 3), (1, 4), (2, 3), (3, 2), (4, 1),
        ]

    def test_zero_steps(self):
        g = GridSpec((6, 4))
        traj = simulate(g, Point((1, 1)), ASC2, 0)
        assert len(traj.points) == len(traj.states) == 1
        assert traj.points[0].coords == (1, 1)

    def test_rejects_bad_inputs(self):
        g = GridSpec((6, 4))
        with pytest.raises(ValueError):
            simulate(g, Point((7, 0)), ASC2, 1)
        with pytest.raises(ValueError):
            simulate(g, Point((0, 0)), DirectionMask((0, 1, 0)), 1)
        with pytest.raises(ValueError):
            simulate(g, Point((0, 0)), ASC2, -1)
        with pytest.raises(BudgetExceededError):
            simulate(g, Point((0, 0)), ASC2, 10**9)

    def test_states_consistent_with_points(self):
        g = GridSpec((3, 5))
        traj = simulate(g, Point((1, 2)), DirectionMask((1, 0)), 20)
        for pt, st in zip(traj.points, traj.states):
            assert project(g, st) == pt
        for a, b in zip(traj.states, traj.states[1:]):
            assert step(g, a) == b

    @pytest.mark.parametrize("n", [0, 5, 23, 60])
    def test_points_and_states_are_sequences(self, n):
        # below, at and beyond the period (24) of the 4x3 grid, against the
        # core.step replay as tuples
        g = GridSpec((4, 3))
        mask = DirectionMask((1, 0))
        traj = simulate(g, Point((1, 2)), mask, n)
        states = tuple(orbit(g, lift(g, Point((1, 2)), mask), n))
        points = tuple(project(g, s) for s in states)
        for seq, items in ((traj.points, points), (traj.states, states)):
            assert isinstance(seq, PeriodicSequence)
            assert len(seq) == n + 1
            assert [seq[k] for k in range(-n - 1, n + 1)] == list(items * 2)
            for k in (n + 1, -n - 2, 10**20):
                with pytest.raises(IndexError):
                    seq[k]
            with pytest.raises(TypeError):
                seq[1.0]
            for cut in (slice(2, 7), slice(None, None, -3), slice(5, 2), slice(-4, None),
                        slice(1, None, 7), slice(None), slice(-10**20, 10**20, 2)):
                assert seq[cut] == items[cut] and type(seq[cut]) is tuple
            assert tuple(seq) == tuple(seq) == items  # iterates again, from the start
            assert seq == items and items == seq and not seq != items
            # one item short, and (from n = 1) the last item changed
            assert seq != items[:-1] and seq != items[:-1] + items[-2:-1]
            assert seq != list(items)
            assert hash(seq) == hash(items)
            assert f"length={n + 1}" in repr(seq) and repr(items[0]) in repr(seq)
            with pytest.raises(AttributeError):
                seq.length = 1
        built = Trajectory(points, states)
        assert traj == built and built == traj and hash(traj) == hash(built)
        restored = pickle.loads(pickle.dumps(traj))
        assert type(restored.points) is PeriodicSequence
        assert restored == traj and tuple(restored.states) == states

    def test_memory_is_one_cycle_per_coordinate(self):
        # a million steps hold sum(min(n + 1, 2*m_i)) = 14 entries per sequence
        g = GridSpec((4, 3))
        traj, peak = peak_bytes(lambda: simulate(g, Point((2, 2)), ASC2, 10**6))
        assert len(traj.points) == 10**6 + 1
        assert traj.points[-1] == project(g, make_state(g, (2 + 10**6, 2 + 10**6)))
        assert peak < 64 * 1024


class TestStepLength:
    @pytest.mark.parametrize(
        "dims,expected", [((6, 4), 24), ((1, 1), 2), ((4, 3, 2), 24)]
    )
    def test_known_values(self, dims, expected):
        assert step_length(GridSpec(dims)) == expected

    @pytest.mark.parametrize("dims", [(6, 4), (1, 1), (4, 3, 2), (5, 3)])
    def test_matches_iteration_oracle_from_every_state(self, dims):
        # oracle: iterate until the full-closure condition first holds
        g = GridSpec(dims)
        k = step_length(g)
        for state in all_states(g):
            assert first_closure(g, state, 2 * k) == k

    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 2)])
    def test_no_closure_before_one_period(self, dims):
        g = GridSpec(dims)
        k = step_length(g)
        for state in all_states(g):
            assert first_closure(g, state, k - 1) is None

    def test_first_closure_charges_its_walk(self, monkeypatch):
        # the walk is min(limit, period) steps, charged before it starts
        g = GridSpec((6, 4))
        state = PhaseState((0, 3))
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 24)
        assert first_closure(g, state, 10**9) == 24
        assert first_closure(g, state, 23) is None

        def never(*args):
            raise AssertionError("walked past the budget")

        monkeypatch.setattr(kernels, "least_closure", never)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 23)
        with pytest.raises(BudgetExceededError, match="period steps: 24 needed"):
            first_closure(g, state, 24)
        # a limit far short of a long period is still a walk of `limit` steps
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 10**7)
        with pytest.raises(BudgetExceededError, match="period steps: 30000000 needed"):
            first_closure(GridSpec((10**6, 10**6 - 1)), PhaseState((0, 1)), 3 * 10**7)

    def test_minimum_two_iff_unit_cell(self):
        for dims in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
            is_unit = all(m == 1 for m in dims)
            assert (step_length(GridSpec(dims)) == 2) == is_unit


class TestGeometricLength:
    def test_two_dimensional_uses_sqrt2(self):
        assert geometric_length(GridSpec((6, 4))) == pytest.approx(24 * math.sqrt(2))
        assert geometric_length(GridSpec((1, 1))) == pytest.approx(2 * math.sqrt(2))

    def test_three_dimensional_uses_sqrt3(self):
        # each step crosses a unit cube along its main diagonal
        assert geometric_length(GridSpec((4, 3, 2))) == pytest.approx(24 * math.sqrt(3))


class TestClassify:
    def test_corner_ray_is_open(self):
        g = GridSpec((6, 4))
        assert classify_path(g, lift(g, Point((0, 0)), ASC2)) is PathKind.OPEN

    def test_known_closed_loop(self):
        g = GridSpec((6, 4))
        assert classify_path(g, lift(g, Point((1, 0)), ASC2)) is PathKind.CLOSED

    def test_coprime_grid_has_no_closed_paths(self):
        # 4x3: every orbit eventually hits a vertex ((2,2) reaches (4,0) at
        # step 10), so everything is open, matching count_closed == 0
        g = GridSpec((4, 3))
        traj = simulate(g, Point((2, 2)), ASC2, 10)
        assert traj.points[10].coords == (4, 0)
        for state in all_states(g):
            assert classify_path(g, state) is PathKind.OPEN

    @pytest.mark.parametrize("dims", [(3, 2), (2, 2), (4, 3), (6, 4), (2, 1, 3)])
    def test_agrees_with_vertex_visit_tracing(self, dims):
        g = GridSpec(dims)
        period = step_length(g)
        for state in all_states(g):
            visits_vertex = any(all(u in (0, m) for u, m in zip(s.residues, g.dims))
                                for s in orbit(g, state, period - 1))
            expected = PathKind.OPEN if visits_vertex else PathKind.CLOSED
            assert classify_path(g, state) is expected


class TestEnumerate:
    def test_6x4(self):
        g = GridSpec((6, 4))
        paths = enumerate_paths(g)
        kinds = [p.kind for p in paths]
        assert kinds.count(PathKind.OPEN) == 2
        assert kinds.count(PathKind.CLOSED) == 1
        assert sorted(p.distinct_segments for p in paths) == [12, 12, 24]
        assert sum(p.distinct_segments for p in paths) == 48 == g.total_segments
        assert all(p.step_length == 24 for p in paths)

    def test_unit_square(self):
        paths = enumerate_paths(GridSpec((1, 1)))
        assert [p.kind for p in paths] == [PathKind.OPEN, PathKind.OPEN]

    def test_4x3x2(self):
        paths = enumerate_paths(GridSpec((4, 3, 2)))
        kinds = [p.kind for p in paths]
        assert kinds.count(PathKind.CLOSED) == 2
        assert kinds.count(PathKind.OPEN) == 4
        assert all(p.step_length == 24 for p in paths)

    def test_representatives_are_least_on_their_paths(self):
        g = GridSpec((6, 4))
        period = step_length(g)
        for path in enumerate_paths(g):
            forward = orbit(g, path.representative, period - 1)
            states = forward + [reverse(g, s) for s in forward]
            least = min(encode_state(g, x) for x in states)
            assert encode_state(g, path.representative) == least

    def test_kind_matches_classify(self):
        for dims in [(6, 4), (4, 3), (2, 2, 2)]:
            g = GridSpec(dims)
            for path in enumerate_paths(g):
                assert classify_path(g, path.representative) is path.kind

    def test_budget(self):
        # the exhaustive oracle is bounded by the phase-state count
        with pytest.raises(BudgetExceededError):
            enumerate_paths_exhaustive(GridSpec((3200, 3200)))

    def test_budget_bounds_orbit_count(self, monkeypatch):
        # 2**24 orbits of two states each
        with pytest.raises(BudgetExceededError):
            enumerate_paths(GridSpec((1,) * 25))
        g = GridSpec((6, 4))
        assert g.n_states // step_length(g) == 4
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 4)
        assert len(enumerate_paths(g)) == 3
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 3)
        with pytest.raises(BudgetExceededError):
            enumerate_paths(g)

    def test_grid_beyond_the_tracer(self):
        # about 4 * 10**12 phase states: the closed form lists the two open
        # paths at once, and walking one period of either is refused
        g = GridSpec((999983, 999979))
        paths = enumerate_paths(g)
        assert [p.representative.residues for p in paths] == [(0, 0), (0, 1)]
        assert [p.kind for p in paths] == [PathKind.OPEN, PathKind.OPEN]
        with pytest.raises(BudgetExceededError):
            boundary_hits(g, paths[0])

    @pytest.mark.parametrize("dims", [(6, 4), (9, 6), (2, 2, 2), (4, 3, 2), (3, 3, 3)])
    def test_segment_conservation(self, dims):
        g = GridSpec(dims)
        assert sum(p.distinct_segments for p in enumerate_paths(g)) == g.total_segments


class TestCounts:
    def test_examples(self):
        assert count_closed(GridSpec((6, 4))) == 1
        assert count_closed(GridSpec((4, 3, 2))) == 2
        assert count_closed(GridSpec((1, 1))) == 0

    def test_square_grids(self):
        for n in range(1, 13):
            assert count_closed(GridSpec((n, n))) == n - 1

    def test_open_counts(self):
        assert count_open(GridSpec((5, 7))) == 2
        assert count_open(GridSpec((2, 2, 2))) == 4
        assert count_open(GridSpec((1, 1, 1, 1))) == 8

    def test_open_count_matches_enumeration(self):
        for dims in [(2, 3), (5, 5), (2, 2, 2), (4, 3, 2), (1, 1, 1, 1)]:
            g = GridSpec(dims)
            enum_open = sum(
                1 for p in enumerate_paths(g) if p.kind is PathKind.OPEN
            )
            assert enum_open == count_open(g)


class TestBoundaryHits:
    def test_6x4_closed_path(self):
        g = GridSpec((6, 4))
        closed = [p for p in enumerate_paths(g) if p.kind is PathKind.CLOSED]
        assert len(closed) == 1
        assert boundary_hits(g, closed[0]) == 10 == 2 * (6 + 4) // math.gcd(6, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_square_grid_closed_paths_touch_four_walls(self, n):
        g = GridSpec((n, n))
        for path in enumerate_paths(g):
            if path.kind is PathKind.CLOSED:
                assert boundary_hits(g, path) == 4

    def test_unit_square_open_path(self):
        g = GridSpec((1, 1))
        for path in enumerate_paths(g):
            assert boundary_hits(g, path) == 2

    @pytest.mark.parametrize("dims,path_dims", [((6, 4), (6, 4, 2)), ((3, 3), (6, 4)),
                                                ((6, 4), (3, 3, 3))])
    def test_rejects_a_path_of_another_grid(self, dims, path_dims):
        for path in enumerate_paths(GridSpec(path_dims)):
            with pytest.raises(ValueError):
                boundary_hits(GridSpec(dims), path)


class TestNonIntegerCoordinates:
    """Fractional or boolean coordinates are refused with ValueError by every
    entry point, instead of a wrong answer or a TypeError."""

    @pytest.mark.parametrize("value", [0.5, 1.5, True])
    def test_points(self, value):
        g = GridSpec((6, 4))
        bad = Point((value, 0))
        calls = [
            lambda: simulate(g, bad, ASC2, 3),
            lambda: light_reachable(g, bad, ASC2, Point((3, 4))),
            lambda: light_reachable(g, Point((0, 0)), ASC2, bad),
            lambda: light_reachable_oracle(g, Point((0, 0)), ASC2, bad),
            lambda: light_reachable_oracle(g, bad, ASC2, Point((3, 4))),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="integers"):
                call()

    @pytest.mark.parametrize("value", [0.5, 1.5, True])
    def test_states(self, value):
        g = GridSpec((6, 4))
        bad = PhaseState((value, 0))
        calls = [
            lambda: first_closure(g, bad, 24),
            lambda: classify_path(g, bad),
            lambda: coordinate_sums(g, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="integers"):
                call()


class TestNonIntegerCounts:
    """A count that is not an ``int``, or is a ``bool``, is refused with
    ValueError, like SeqSpec's fields, instead of a float answer, a TypeError
    or a step walked for ``True``."""

    @pytest.mark.parametrize("value", [2.5, 24.0, True, "3"])
    def test_counts(self, value):
        g = GridSpec((4, 3))
        spec = SeqSpec("+", 1, 3)
        calls = [
            lambda: circ_seq(spec, value),
            lambda: circ_seq_closed(spec, value),
            lambda: series_expand(gen_function(spec), value),
            lambda: simulate(g, Point((2, 2)), ASC2, value),
            lambda: first_closure(g, PhaseState((2, 2)), value),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be an integer"):
                call()


class TestCoordinateSums:
    def test_6x4_any_start(self):
        g = GridSpec((6, 4))
        for residues in [(0, 0), (3, 5), (11, 7), (6, 4)]:
            assert coordinate_sums(g, make_state(g, residues)) == (72, 48)

    def test_unit_square(self):
        g = GridSpec((1, 1))
        assert coordinate_sums(g, make_state(g, (0, 0))) == (1, 1)

    def test_4x3x2(self):
        g = GridSpec((4, 3, 2))
        assert coordinate_sums(g, make_state(g, (1, 5, 2))) == (48, 36, 24)

    def test_totals(self):
        g = GridSpec((6, 4))
        sums = coordinate_sums(g, make_state(g, (5, 1)))
        assert sum(sums) == (6 + 4) * g.lcm

    def test_budget(self, monkeypatch):
        g = GridSpec((6, 4))
        state = make_state(g, (0, 0))
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 24)
        assert coordinate_sums(g, state) == (72, 48)
        monkeypatch.setattr(core, "DEFAULT_STATE_BUDGET", 23)
        with pytest.raises(BudgetExceededError):
            coordinate_sums(g, state)
