"""Triangle-wave sequences, closed forms, generating functions, and the
canonical form of their integer polynomials."""

import random

import pytest

from arithbilliards.billiards import simulate
from arithbilliards.circseq import (
    IntPolynomial,
    RationalGF,
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
    GridSpec,
    Point,
)
from support import ASC2, P, peak_bytes, product


def seq_values(spec, count):
    return [circ_seq(spec, n) for n in range(count)]


class TestSeqSpec:
    @pytest.mark.parametrize("sign,t,m", [
        ("x", 1, 2), ("+", -1, 2), ("+", 3, 2), ("-", 0, 0),
        # not integers: ("+", 1.5, 3) would make circ_seq return 2.5
        ("+", 1.5, 3), ("+", 1, 3.0), ("-", 2.0, 4), ("+", True, 3), ("-", 0, True), ("+", "1", 3),
    ])
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


class TestTentMap:
    def test_matches_stepping_the_phase_circle(self):
        # circ_seq reads the tent map at phase t +- n; step the circle instead
        for m in range(1, 13):
            for t in range(m + 1):
                for sign in "+-":
                    spec = SeqSpec(sign, t, m)
                    u = t
                    for n in range(6 * m):
                        assert circ_seq(spec, n) == m - abs(m - u), (spec, n)
                        u = (u + (1 if sign == "+" else -1)) % (2 * m)


class TestClosedForm:
    def test_matches_iteration_everywhere(self):
        """The case analysis equals circ_seq, the tent-map read
        ``m - |m - (t +- n) mod 2m|`` (checked by stepping in TestTentMap)."""
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
        base = (P(1, 1), P(1, 0, 1))  # (x+1)(x^2+1)
        x = P(0, 1)
        expected_plus = {
            0: product(x, *base, *base),
            1: product(*base, *base),
            2: product(*base, P(2, 1, 1, -1, 1)),
            3: product(*base, P(3, 1, -1, -1, 2)),
            4: product(*base, P(4, -1, -1, -1, 3)),
        }
        expected_minus = {
            0: product(x, *base, *base),
            1: product(*base, P(1, -1, 1, 1, 2)),
            2: product(*base, P(2, -1, -1, 1, 3)),
            3: product(*base, P(3, -1, -1, -1, 4)),
            4: product(*base, P(4, -1, -1, -1, 3)),
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

    def test_large_height_against_closed_form(self):
        # m = 10**5 at sampled (t, sign): every branch end of circ_seq_closed
        # and its neighbours, both period ends, and random positions
        m = 10**5
        rng = random.Random(9)
        pairs = [(0, "+"), (m, "-"), (1, "-"), (m - 1, "+")]
        pairs += [(rng.randint(0, m), rng.choice("+-")) for _ in range(46)]
        for t, sign in pairs:
            spec = SeqSpec(sign, t, m)
            num = numerator_poly(spec)
            assert num.degree <= 2 * m - 1
            ends = (0, t, m - t, m + t, 2 * m - t, 2 * m - 1)
            positions = {e + d for e in ends for d in (-1, 0, 1)}
            positions.update(rng.randrange(2 * m) for _ in range(64))
            for n in sorted(p for p in positions if 0 <= p < 2 * m):
                assert num.coeff(n) == circ_seq_closed(spec, n), (spec, n)


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

    @pytest.mark.parametrize("coeffs,period", [
        ((1, 0, 2), 5), ((0, 0, 3), 3), ((), 4), ((7,), 1), ((-1, 0, 0, 4), 6),
    ])
    def test_hand_built_function_against_recurrence(self, coeffs, period):
        # a numerator shorter than its period, with inner zeros: the series
        # follows c[n] = num[n] + c[n - period] from (1 - x**period) * S = num
        gf = RationalGF(IntPolynomial(coeffs), period)
        for n_terms in (0, 1, len(coeffs), period - 1, period, 3 * period + 2):
            want = []
            for n in range(n_terms + 1):
                want.append(gf.numerator.coeff(n) + (want[n - period] if n >= period else 0))
            assert series_expand(gf, n_terms) == want

    @pytest.mark.parametrize("period", [0, 2.5, 3.0, True])
    def test_rejects_bad_period(self, period):
        with pytest.raises(ValueError, match="period"):
            RationalGF(IntPolynomial(()), period)

    def test_few_terms_of_a_long_period(self):
        # the terms asked for, not the period, bound the work
        gf = RationalGF(IntPolynomial((1, 0, 2)), 10**15)
        assert series_expand(gf, 4) == [1, 0, 2, 0, 0]

    def test_rejects_negative_expansion(self):
        with pytest.raises(ValueError):
            series_expand(gen_function(SeqSpec("+", 1, 2)), -1)

    @pytest.mark.parametrize("build", [numerator_poly, gen_function])
    def test_height_budget_fires_before_allocating(self, build):
        spec = SeqSpec("+", 0, DEFAULT_STATE_BUDGET // 2 + 1)
        _, peak = peak_bytes(lambda: build(spec), raises=BudgetExceededError)
        assert peak < 64 * 1024

    def test_expansion_budget_fires_before_allocating(self):
        gf = gen_function(SeqSpec("-", 1, 3))
        _, peak = peak_bytes(lambda: series_expand(gf, DEFAULT_STATE_BUDGET),
                             raises=BudgetExceededError)
        assert peak < 64 * 1024


class TestBilliardsBridge:
    def test_coordinate_traces_are_circular_sequences(self):
        # each coordinate of an ascending trajectory is a rising wave started
        # at that coordinate with the grid dimension as its height
        g = GridSpec((6, 4))
        for coords in [(0, 0), (2, 3), (5, 1), (6, 4)]:
            traj = simulate(g, Point(coords), ASC2, 30)
            for i, m in enumerate(g.dims):
                spec = SeqSpec("+", coords[i], m)
                trace = [p.coords[i] for p in traj.points]
                assert trace == [circ_seq(spec, n) for n in range(31)]


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()
        assert P().degree == -1

    def test_coeff_lookup(self):
        p = P(3, 0, 5)
        assert (p.coeff(0), p.coeff(1), p.coeff(2), p.coeff(7)) == (3, 0, 5, 0)
        assert p.degree == 2

    @pytest.mark.parametrize("coeffs", [(0.5, 2.9), (1, 2.0), (True, 0), ("1",), (1, None)])
    def test_rejects_non_integer_coefficients(self, coeffs):
        # truncating 0.5 to 0 would change the polynomial silently
        with pytest.raises(ValueError, match="integers"):
            IntPolynomial(coeffs)
