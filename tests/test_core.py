"""Grid, point, phase-state, and elementary-map behavior."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithbilliards.core import (
    DirectionMask,
    GridSpec,
    PhaseState,
    Point,
    _cycle,
    _repeat,
    decode_point,
    decode_state,
    encode_point,
    encode_state,
    index_of,
    lift,
    make_state,
    project,
    reverse,
    step,
    step_back,
    step_directed,
)
from support import ASC2, all_masks, all_points, all_states, orbit

DESC2 = DirectionMask.descending(2)

small_grids = st.lists(st.integers(1, 6), min_size=2, max_size=3).map(
    lambda d: GridSpec(tuple(d))
)


@st.composite
def grid_and_state(draw):
    grid = draw(small_grids)
    residues = tuple(draw(st.integers(0, tm - 1)) for tm in grid.two_m)
    return grid, PhaseState(residues)


@st.composite
def grid_and_point(draw):
    grid = draw(small_grids)
    coords = tuple(draw(st.integers(0, m)) for m in grid.dims)
    return grid, Point(coords)


class TestGridSpec:
    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            GridSpec((5,))

    @pytest.mark.parametrize("dims", [(0, 3), (3, -1), (2.5, 2), ("4", 3)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ValueError):
            GridSpec(dims)

    def test_rejects_64bit_overflow(self):
        with pytest.raises(OverflowError):
            GridSpec((2**62, 3))  # 2*lcm overflows
        with pytest.raises(OverflowError):
            GridSpec((2**33, 2**33))  # state count overflows

    def test_derived_quantities(self):
        g = GridSpec((6, 4))
        assert (g.p, g.lcm, g.gcd) == (2, 12, 2)
        assert g.two_m == (12, 8)
        assert g.n_points == 35
        assert g.n_states == 96
        assert g.total_segments == 48


class TestProject:
    def test_tent_labels_around_height5_circle(self):
        # one full circle of 2m = 10 phase positions carries labels
        # 0,1,2,3,4,5,4,3,2,1
        g = GridSpec((5, 5))
        labels = [project(g, PhaseState((u, 0))).coords[0] for u in range(10)]
        assert labels == [0, 1, 2, 3, 4, 5, 4, 3, 2, 1]
        assert labels[7] == 3
        assert labels[0] == 0

    def test_unreduced_residues_example(self):
        # walking 8 steps from (2,2) without wrapping the counters gives
        # raw residues (10,10); make_state folds them back onto the circles
        g = GridSpec((6, 4))
        state = make_state(g, (10, 10))
        assert state.residues == (10, 2)
        assert project(g, state).coords == (2, 2)
        # oracle: actually iterate the ascending process 8 times from (2,2)
        s = orbit(g, lift(g, Point((2, 2)), ASC2), 8)[-1]
        assert project(g, s).coords == (2, 2)
        assert s == state

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            project(GridSpec((2, 2)), PhaseState((1, 1, 1)))

    def test_out_of_range_residue(self):
        with pytest.raises(ValueError):
            project(GridSpec((2, 2)), PhaseState((4, 0)))


class TestNonIntegerCoordinates:
    """A fractional, boolean or string coordinate is refused, not answered."""

    @pytest.mark.parametrize("value", [0.5, 1.5, 0.0, True, "1"])
    def test_point(self, value):
        with pytest.raises(ValueError, match="integers"):
            lift(GridSpec((6, 4)), Point((value, 0)), ASC2)

    @pytest.mark.parametrize("value", [0.5, 1.5, 0.0, True, "1"])
    def test_state(self, value):
        g = GridSpec((6, 4))
        for fn in (project, step, step_back, reverse):
            with pytest.raises(ValueError, match="integers"):
                fn(g, PhaseState((0, value)))

    @pytest.mark.parametrize("value", [0.5, 1.5, 0.0, True, "1"])
    def test_make_state(self, value):
        # unrolled residues may be any int, a negative one too, but only an int
        g = GridSpec((6, 4))
        assert make_state(g, (-1, 2)).residues == (11, 2)
        with pytest.raises(ValueError, match="integers"):
            make_state(g, (value, 2))


class TestLift:
    def test_ascending_is_identity_embedding(self):
        g = GridSpec((5, 5))
        assert lift(g, Point((3, 0)), ASC2).residues == (3, 0)

    def test_descending_branch(self):
        g = GridSpec((5, 5))
        assert lift(g, Point((3, 0)), DESC2).residues == (7, 0)

    def test_boundary_has_unique_lift(self):
        g = GridSpec((5, 5))
        assert lift(g, Point((0, 5)), DESC2).residues == (0, 5)
        assert lift(g, Point((0, 5)), ASC2).residues == (0, 5)

    @given(grid_and_point())
    def test_project_lift_identity_both_masks(self, gp):
        grid, point = gp
        for mask in all_masks(grid.p):
            assert project(grid, lift(grid, point, mask)) == point


class TestStepMaps:
    def test_interior_ascent(self):
        g = GridSpec((5, 5))
        assert step(g, PhaseState((4, 0))).residues[0] == 5

    def test_reflection_at_top(self):
        # phase 5 -> 6, i.e. position 5 -> 4
        g = GridSpec((5, 5))
        s = step(g, PhaseState((5, 0)))
        assert s.residues[0] == 6
        assert project(g, s).coords[0] == 4

    def test_four_steps_along_ray(self):
        g = GridSpec((6, 4))
        s = orbit(g, PhaseState((0, 3)), 4)[-1]
        assert s.residues == (4, 7)
        assert project(g, s).coords == (4, 1)

    def test_step_back_wraps_descending(self):
        g = GridSpec((5, 5))
        assert step_back(g, PhaseState((0, 0))).residues == (9, 9)
        assert step_back(g, PhaseState((3, 3))).residues == (2, 2)

    @given(grid_and_state())
    def test_step_back_inverts_step(self, gs):
        grid, state = gs
        assert step_back(grid, step(grid, state)) == state
        assert step(grid, step_back(grid, state)) == state

    def test_directed_matches_step_and_back(self):
        g = GridSpec((6, 4))
        for state in all_states(g):
            assert step_directed(g, state, ASC2) == step(g, state)
            assert step_directed(g, state, DESC2) == step_back(g, state)

    def test_directed_mixed_mask(self):
        g = GridSpec((6, 4))
        s = step_directed(g, PhaseState((0, 2)), DirectionMask((0, 1)))
        assert s.residues == (1, 1)
        assert project(g, s).coords == (1, 1)

    @given(grid_and_state())
    def test_each_step_moves_every_coordinate_by_one(self, gs):
        grid, state = gs
        before = project(grid, state).coords
        after = project(grid, step(grid, state)).coords
        assert all(abs(a - b) == 1 for a, b in zip(after, before))


class TestReverse:
    def test_negation_mod_circle(self):
        g = GridSpec((5, 5))
        assert reverse(g, PhaseState((3, 0))).residues == (7, 0)
        assert reverse(g, PhaseState((0, 0))).residues == (0, 0)

    @given(grid_and_state())
    def test_involution_preserving_position(self, gs):
        grid, state = gs
        rev = reverse(grid, state)
        assert reverse(grid, rev) == state
        assert project(grid, rev) == project(grid, state)

    def test_conjugates_step_to_step_back(self):
        for dims in [(2, 3), (4, 4), (2, 1, 3)]:
            g = GridSpec(dims)
            for state in all_states(g):
                assert reverse(g, step(g, reverse(g, state))) == step_back(g, state)


class TestIndexOf:
    @pytest.mark.parametrize(
        "coords,bits",
        [
            ((0, 2), (0,)),
            ((6, 1), (1,)),
            ((1, 1, 1), (0, 0)),
            ((0, 0, 0), (0, 0)),
            ((1, 0, 0), (1, 1)),
        ],
    )
    def test_examples(self, coords, bits):
        assert index_of(Point(coords)).bits == bits

    def test_rejects_arity_one(self):
        with pytest.raises(ValueError):
            index_of(Point((3,)))


class TestFullPeriod:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (4, 6), (2, 1, 3)])
    def test_step_order_is_twice_lcm(self, dims):
        g = GridSpec(dims)
        period = 2 * g.lcm
        for state in all_states(g):
            s = orbit(g, state, period - 1)[-1]
            assert s == step_back(g, state)
            assert step(g, s) == state

    def test_projection_fiber_sizes(self):
        # each point has one phase lift per boundary coordinate and two per
        # interior coordinate
        g = GridSpec((3, 2))
        fibers = {}
        for state in all_states(g):
            fibers.setdefault(project(g, state), 0)
            fibers[project(g, state)] += 1
        for point in all_points(g):
            expected = 1
            for x, m in zip(point.coords, g.dims):
                expected *= 2 if 0 < x < m else 1
            assert fibers[point] == expected


class TestResidueRuns:
    def test_cycle_repeated_is_the_stepped_column(self):
        # the one residue-run pair the closed forms and the oracle walks
        # share: one turn of the circle from u + k0, repeated out to n steps
        for tm in range(1, 8):
            for u in range(2 * tm):
                for k0 in range(2 * tm):
                    for n in range(3 * tm + 1):
                        turn = _cycle(u + k0, tm, n)
                        assert len(turn) == min(n, tm)
                        assert list(_repeat(turn, n)) == [(u + k0 + j) % tm for j in range(n)]


class TestEncodings:
    def test_state_round_trip_is_lexicographic(self):
        g = GridSpec((2, 3))
        states = sorted(all_states(g), key=lambda s: s.residues)
        for i, state in enumerate(states):
            assert encode_state(g, state) == i
            assert decode_state(g, i) == state

    def test_point_round_trip(self):
        g = GridSpec((4, 2, 3))
        for i, point in enumerate(all_points(g)):
            assert encode_point(g, point) == i
            assert decode_point(g, i) == point


class TestDirectionMask:
    def test_parse_and_format(self):
        mask = DirectionMask.parse("+-")
        assert mask.signs == (0, 1)
        assert mask.to_string() == "+-"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            DirectionMask.parse("+x")

    def test_rejects_non_binary_signs(self):
        with pytest.raises(ValueError):
            DirectionMask((0, 2))

    @pytest.mark.parametrize("signs", [(True, 0), (0, False), (1.0, 0), (0, 0.0), ("1", 0)])
    def test_rejects_signs_that_are_not_ints(self, signs):
        # equal to 0 or 1 is not enough: a bool or a float is refused, as
        # GridSpec, validate_state and make_state refuse them
        with pytest.raises(ValueError, match="ints 0 or 1"):
            DirectionMask(signs)
