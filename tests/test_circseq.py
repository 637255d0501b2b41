"""Triangle-wave sequences, closed forms, and generating functions."""

import tracemalloc

import pytest

from arithbilliards.billiards import simulate
from arithbilliards.circseq import (
    IntPolynomial,
    SeqSpec,
    circ_seq,
    circ_seq_closed,
    gen_function,
    numerator_poly,
    series_expand,
)
from arithbilliards.core import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    DirectionMask,
    GridSpec,
    Point,
)


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def seq_values(spec, count):
    return [circ_seq(spec, n) for n in range(count)]


class TestSeqSpec:
    @pytest.mark.parametrize("sign,t,m", [("x", 1, 2), ("+", -1, 2), ("+", 3, 2), ("-", 0, 0)])
    def test_rejects_bad_specs(self, sign, t, m):
        with pytest.raises(ValueError):
            SeqSpec(sign, t, m)


class TestSequenceValues:
    def test_rising_wave_from_three(self):
        assert seq_values(SeqSpec("+", 3, 6), 13) == [
            3, 4, 5, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3,
        ]

    def test_falling_wave_from_three(self):
        assert seq_values(SeqSpec("-", 3, 6), 13) == [
            3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 5, 4, 3,
        ]

    def test_directions_coincide_at_floor_and_peak(self):
        for m in range(1, 9):
            for t in (0, m):
                plus, minus = SeqSpec("+", t, m), SeqSpec("-", t, m)
                for n in range(4 * m + 3):
                    assert circ_seq(plus, n) == circ_seq(minus, n)

    def test_periodicity(self):
        for m in (1, 2, 5, 7):
            for t in range(m + 1):
                for sign in "+-":
                    spec = SeqSpec(sign, t, m)
                    for n in range(2 * m):
                        assert circ_seq(spec, n) == circ_seq(spec, n + 2 * m)

    def test_values_stay_in_range(self):
        spec = SeqSpec("+", 2, 5)
        assert all(0 <= circ_seq(spec, n) <= 5 for n in range(40))

    def test_time_reversal_symmetry(self):
        for m in (1, 3, 6):
            for t in range(m + 1):
                plus, minus = SeqSpec("+", t, m), SeqSpec("-", t, m)
                for n in range(6 * m):
                    assert circ_seq(plus, n) == circ_seq(minus, (2 * m - n) % (2 * m))


class TestClosedForm:
    def test_matches_iteration_everywhere(self):
        for m in range(1, 21):
            for t in range(m + 1):
                for sign in "+-":
                    spec = SeqSpec(sign, t, m)
                    for n in range(8 * m):
                        assert circ_seq_closed(spec, n) == circ_seq(spec, n)

    def test_middle_branch_example(self):
        # i = 5 with t = 3, m = 6 sits on the descending branch: 12 - 3 - 5
        assert circ_seq_closed(SeqSpec("+", 3, 6), 5) == 4

    def test_peak_of_the_tent(self):
        for m in (2, 5, 9):
            for t in range(m + 1):
                assert circ_seq_closed(SeqSpec("+", t, m), m - t) == m

    def test_falling_wave_tail_branch(self):
        # ten backward steps from 3 with height 6: oracle by explicit iteration
        u, height = 3, 6
        for _ in range(10):
            u = (u - 1) % (2 * height)
        expected = height - abs(height - u)
        assert expected == 5
        assert circ_seq_closed(SeqSpec("-", 3, 6), 10) == 5


class TestNumeratorPoly:
    def test_factored_forms_height4(self):
        base = P(1, 1) * P(1, 0, 1)  # (x+1)(x^2+1)
        x = P(0, 1)
        expected_plus = {
            0: x * base * base,
            1: base * base,
            2: base * P(2, 1, 1, -1, 1),
            3: base * P(3, 1, -1, -1, 2),
            4: base * P(4, -1, -1, -1, 3),
        }
        expected_minus = {
            0: x * base * base,
            1: base * P(1, -1, 1, 1, 2),
            2: base * P(2, -1, -1, 1, 3),
            3: base * P(3, -1, -1, -1, 4),
            4: base * P(4, -1, -1, -1, 3),
        }
        for t, want in expected_plus.items():
            assert numerator_poly(SeqSpec("+", t, 4)) == want
        for t, want in expected_minus.items():
            assert numerator_poly(SeqSpec("-", t, 4)) == want

    def test_simplest_wave(self):
        assert numerator_poly(SeqSpec("+", 0, 1)) == P(0, 1)
        assert numerator_poly(SeqSpec("-", 0, 1)) == P(0, 1)

    def test_coefficients_are_one_period_of_the_sequence(self):
        for m in range(1, 21):
            for t in range(m + 1):
                for sign in "+-":
                    spec = SeqSpec(sign, t, m)
                    definitional = IntPolynomial(tuple(seq_values(spec, 2 * m)))
                    assert numerator_poly(spec) == definitional

    def test_degree_bound(self):
        for m in (1, 4, 9):
            for t in range(m + 1):
                assert numerator_poly(SeqSpec("+", t, m)).degree <= 2 * m - 1


class TestGenFunction:
    def test_structure(self):
        gf = gen_function(SeqSpec("+", 3, 6))
        assert gf.period == 12
        assert gf.numerator.degree <= 11

    def test_series_reproduces_wave(self):
        gf = gen_function(SeqSpec("+", 3, 6))
        assert series_expand(gf, 12) == [3, 4, 5, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3]

    def test_sixty_terms(self):
        spec = SeqSpec("+", 3, 6)
        gf = gen_function(spec)
        assert series_expand(gf, 60) == [circ_seq(spec, n) for n in range(61)]

    def test_single_term(self):
        for t in (0, 2, 4):
            gf = gen_function(SeqSpec("-", t, 4))
            assert series_expand(gf, 0) == [t]

    def test_expansion_periodic_for_six_periods(self):
        for m in range(1, 11):
            for t in range(m + 1):
                for sign in "+-":
                    spec = SeqSpec(sign, t, m)
                    gf = gen_function(spec)
                    n_terms = 6 * 2 * m
                    assert series_expand(gf, n_terms) == [
                        circ_seq(spec, n) for n in range(n_terms + 1)
                    ]

    def test_rejects_negative_expansion(self):
        with pytest.raises(ValueError):
            series_expand(gen_function(SeqSpec("+", 1, 2)), -1)

    @pytest.mark.parametrize("build", [numerator_poly, gen_function])
    def test_height_budget_fires_before_allocating(self, build):
        spec = SeqSpec("+", 0, DEFAULT_STATE_BUDGET // 2 + 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                build(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_expansion_budget_fires_before_allocating(self):
        gf = gen_function(SeqSpec("-", 1, 3))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                series_expand(gf, DEFAULT_STATE_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestBilliardsBridge:
    def test_coordinate_traces_are_circular_sequences(self):
        # each coordinate of an ascending trajectory is a rising wave started
        # at that coordinate with the grid dimension as its height
        g = GridSpec((6, 4))
        for coords in [(0, 0), (2, 3), (5, 1), (6, 4)]:
            traj = simulate(g, Point(coords), DirectionMask.ascending(2), 30)
            for i, m in enumerate(g.dims):
                spec = SeqSpec("+", coords[i], m)
                trace = [p.coords[i] for p in traj.points]
                assert trace == [circ_seq(spec, n) for n in range(31)]
