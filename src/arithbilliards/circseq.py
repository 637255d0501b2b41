"""Triangle-wave ("circular") integer sequences and their generating functions.

Iterating the single-circle reflection map from a first term ``t`` with
height ``m`` produces a triangle wave of period ``2m``:
``t, t+1, ..., m, m-1, ..., 0, 1, ...`` (positive direction) or its mirror
(negative direction): the tent map ``m - |m - (t +- n) mod 2m|``
(:func:`circ_seq`), or a case analysis on ``n mod 2m``
(:func:`circ_seq_closed`).  One period packs into an integer polynomial of
degree at most ``2m - 1``, and the full sequence has the rational
generating function ``numerator / (1 - x^(2m))``.  All arithmetic here is
exact; no floating point, no numeric evaluation.
"""

from __future__ import annotations

from arithbilliards.core import Frozen, check_budget


class IntPolynomial(Frozen):
    """Dense integer polynomial; ``coeffs[n]`` is the coefficient of ``x**n``.

    Canonical form: no trailing zero coefficients (the zero polynomial is the
    empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        coeffs = tuple(int(c) for c in coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def divmod(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division over the integers.

        Requires every leading-coefficient division to be exact (always true
        for the monic divisors used here); raises ArithmeticError otherwise.
        """
        if not divisor.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = divisor.coeffs
        dn = len(d)
        lead = d[-1]
        if len(rem) < dn:
            return IntPolynomial(()), IntPolynomial(tuple(rem))
        quot = [0] * (len(rem) - dn + 1)
        for shift in range(len(rem) - dn, -1, -1):
            c = rem[shift + dn - 1]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError(
                    f"non-exact integer division of {c} by leading coefficient {lead}"
                )
            quot[shift] = q
            for i in range(dn):
                rem[shift + i] -= q * d[i]
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))

    def div_exact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        quot, rem = self.divmod(divisor)
        if rem.coeffs:
            raise ArithmeticError(f"polynomial division left remainder {rem.coeffs!r}")
        return quot


def monomial(degree: int, coefficient: int = 1) -> IntPolynomial:
    return IntPolynomial((0,) * degree + (coefficient,))


def geometric_sum(n: int) -> IntPolynomial:
    """``1 + x + ... + x**(n-1)``, i.e. ``(1 - x**n) / (1 - x)``; zero for n <= 0."""
    return IntPolynomial((1,) * max(n, 0))


class RationalGF(Frozen):
    """Generating function ``numerator / (1 - x**period)``."""

    __slots__ = ("numerator", "period")

    def __init__(self, numerator: IntPolynomial, period: int) -> None:
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "period", period)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if numerator.degree >= period:
            raise ValueError(f"numerator degree {numerator.degree} >= period {period}")


class SeqSpec(Frozen):
    """A circular sequence: direction sign, first term, and wave height."""

    __slots__ = ("sign", "first_term", "height")

    def __init__(self, sign: str, first_term: int, height: int) -> None:
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "first_term", first_term)
        object.__setattr__(self, "height", height)
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        if height < 1:
            raise ValueError(f"height must be >= 1, got {height}")
        if not 0 <= first_term <= height:
            raise ValueError(f"first term must lie in [0, {height}], got {first_term}")


def circ_seq(spec: SeqSpec, n: int) -> int:
    """n-th term: the tent map ``m - |m - u|`` at phase ``u = (t +- n) mod 2m``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m = spec.height
    u = (spec.first_term + (n if spec.sign == "+" else -n)) % (2 * m)
    return m - abs(m - u)


def circ_seq_closed(spec: SeqSpec, n: int) -> int:
    """n-th term in closed form, by case analysis on ``i = n mod 2m``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    t, m = spec.first_term, spec.height
    i = n % (2 * m)
    if spec.sign == "+":
        if i <= m - t:
            return i + t
        if i <= 2 * m - t:
            return 2 * m - t - i
        return i - (2 * m - t)
    if i <= t - 1:
        return t - i
    if i <= m + t:
        return i - t
    return 2 * m + t - i


def ramp_poly(start: int, stop: int) -> IntPolynomial:
    """``start*x**(start-1) + (start+1)*x**start + ... + stop*x**(stop-1)``.

    Satisfies ``(1-x)**2 * ramp = start*x**(start-1) - (start-1)*x**start
    - (stop+1)*x**stop + stop*x**(stop+1)`` as a polynomial identity.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if stop < start:
        raise ValueError(f"stop must be >= start, got {stop} < {start}")
    coeffs = [0] * stop
    for j in range(start - 1, stop):
        coeffs[j] = j + 1
    return IntPolynomial(tuple(coeffs))


_ONE_MINUS_X = IntPolynomial((1, -1))
_ONE_MINUS_X_SQ = _ONE_MINUS_X * _ONE_MINUS_X


def numerator_poly(spec: SeqSpec) -> IntPolynomial:
    """One period of the sequence as a polynomial, built in closed form.

    Assembled from geometric-block identities and then divided by
    ``(1-x)**2``; the division is exact by construction, and a nonzero
    remainder would be an internal error (ArithmeticError).  A period
    ``2*height`` above the budget raises :class:`BudgetExceededError`
    before any polynomial is built.
    """
    t, m = spec.first_term, spec.height
    check_budget(2 * m, "period terms")
    one = IntPolynomial((1,))
    one_minus_xm = one - monomial(m)
    if spec.sign == "+":
        # x*(1 - x^(m-t)) - (x^(m-t+1) - x^m) + ((t-1)*x^m + t)*(1 - x)
        inner = (
            monomial(1) * (one - monomial(m - t))
            - (monomial(m - t + 1) - monomial(m))
            + (monomial(m, t - 1) + IntPolynomial((t,))) * _ONE_MINUS_X
        )
    else:
        # x^(t+1)*(1 - x^(m-t)) - x*(1 - x^t) + t*(x^m + 1)*(1 - x)
        inner = (
            monomial(t + 1) * (one - monomial(m - t))
            - monomial(1) * (one - monomial(t))
            + (monomial(m, t) + IntPolynomial((t,))) * _ONE_MINUS_X
        )
    return (one_minus_xm * inner).div_exact(_ONE_MINUS_X_SQ)


def gen_function(spec: SeqSpec) -> RationalGF:
    return RationalGF(numerator=numerator_poly(spec), period=2 * spec.height)


def series_expand(gf: RationalGF, n_terms: int) -> list[int]:
    """First ``n_terms + 1`` power-series coefficients of the function.

    Uses the recurrence ``c[n] = numerator[n] + c[n - period]``.  More
    coefficients than the budget raise :class:`BudgetExceededError` before
    any is computed.
    """
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    check_budget(n_terms + 1, "coefficients")
    out = []
    for n in range(n_terms + 1):
        c = gf.numerator.coeff(n)
        if n >= gf.period:
            c += out[n - gf.period]
        out.append(c)
    return out
