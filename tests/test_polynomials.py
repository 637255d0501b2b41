"""Exact integer polynomials: canonical form, and ramp identities checked
through a coefficient-convolution product kept here in the tests."""

import pytest

from arithbilliards.circseq import IntPolynomial


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def product(*factors):
    """The product of the polynomials ``factors``, by coefficient convolution."""
    out = [1]
    for f in factors:
        out = [sum(out[i] * f.coeff(n - i) for i in range(len(out)))
               for n in range(len(out) + len(f.coeffs) - 1)]
    return IntPolynomial(tuple(out))


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


class TestRampPoly:
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_squared_difference_identity(self, t):
        # (1-x)^2 * ramp(t, n) = t x^(t-1) - (t-1) x^t - (n+1) x^n + n x^(n+1)
        sq = product(P(1, -1), P(1, -1))
        for n in range(t, t + 8):
            lhs = product(sq, ramp(t, n))
            rhs = terms((t - 1, t), (t, -(t - 1)), (n, -(n + 1)), (n + 1, n))
            assert lhs == rhs

    def test_first_ramp_identity(self):
        # the t=1 case: (1-x)^2 * (1 + 2x + ... + n x^(n-1))
        #             = 1 - (n+1) x^n + n x^(n+1)
        sq = product(P(1, -1), P(1, -1))
        for n in range(1, 11):
            lhs = product(sq, ramp(1, n))
            assert lhs == terms((0, 1), (n, -(n + 1)), (n + 1, n))
