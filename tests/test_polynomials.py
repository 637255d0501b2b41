"""Exact integer polynomial arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithbilliards.circseq import IntPolynomial

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def evaluate(poly, x):
    return sum(c * x**n for n, c in enumerate(poly.coeffs))


def ramp(start, stop):
    """``start*x**(start-1) + (start+1)*x**start + ... + stop*x**(stop-1)``."""
    return P(*[0] * (start - 1), *range(start, stop + 1))


def terms(*pairs):
    """The polynomial ``sum(c * x**n for n, c in pairs)``."""
    coeffs = [0] * (max(n for n, _ in pairs) + 1)
    for n, c in pairs:
        coeffs[n] += c
    return P(*coeffs)


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


class TestArithmetic:
    def test_mul(self):
        # (1+x)^2 (1+x^2)^2 = 1 + 2x + 3x^2 + 4x^3 + 3x^4 + 2x^5 + x^6
        sq = P(1, 1) * P(1, 1) * P(1, 0, 1) * P(1, 0, 1)
        assert sq == P(1, 2, 3, 4, 3, 2, 1)

    def test_mul_zero(self):
        assert P(3, 1) * P() == P()

    @given(coeff_lists, coeff_lists)
    def test_mul_matches_evaluation(self, a, b):
        # multiplication is a ring map: (a*b)(x) == a(x) * b(x) at every integer x,
        # and a degree-d product is pinned by its values at d + 1 points
        pa, pb = P(*a), P(*b)
        product = pa * pb
        for x in range(-4, 5):
            assert evaluate(product, x) == evaluate(pa, x) * evaluate(pb, x)
        if pa.coeffs and pb.coeffs:
            assert product.degree == pa.degree + pb.degree


class TestRampPoly:
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_squared_difference_identity(self, t):
        # (1-x)^2 * ramp(t, n) = t x^(t-1) - (t-1) x^t - (n+1) x^n + n x^(n+1)
        sq = P(1, -1) * P(1, -1)
        for n in range(t, t + 8):
            lhs = sq * ramp(t, n)
            rhs = terms((t - 1, t), (t, -(t - 1)), (n, -(n + 1)), (n + 1, n))
            assert lhs == rhs

    def test_first_ramp_identity(self):
        # the t=1 case: (1-x)^2 * (1 + 2x + ... + n x^(n-1))
        #             = 1 - (n+1) x^n + n x^(n+1)
        sq = P(1, -1) * P(1, -1)
        for n in range(1, 11):
            lhs = sq * ramp(1, n)
            assert lhs == terms((0, 1), (n, -(n + 1)), (n + 1, n))
