"""Triangle-wave ("circular") integer sequences and their generating functions.

Iterating the single-circle reflection map from a first term ``t`` with
height ``m`` produces a triangle wave of period ``2m``:
``t, t+1, ..., m, m-1, ..., 0, 1, ...`` (positive direction) or its mirror
(negative direction): the tent map ``m - |m - (t +- n) mod 2m|``
(:func:`circ_seq`), or a case analysis on ``n mod 2m``
(:func:`circ_seq_closed`).  The full sequence has the rational generating
function ``numerator / (1 - x^(2m))`` whose numerator is one period of the
wave, ``c_0 + c_1 x + ... + c_(2m-1) x^(2m-1)``: :func:`numerator_poly` reads
it off the wave and :func:`series_expand` repeats it.  All arithmetic here is
exact; no floating point, no numeric evaluation.
"""

from __future__ import annotations

from arithbilliards.core import Frozen, check_budget, validate_count


class IntPolynomial(Frozen):
    """Dense integer polynomial; ``coeffs[n]`` is the coefficient of ``x**n``.

    Canonical form: no trailing zero coefficients (the zero polynomial is the
    empty tuple).  Coefficients must be ``int``; a ``bool``, float or other
    type raises ValueError rather than being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        coeffs = tuple(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
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


class RationalGF(Frozen):
    """Generating function ``numerator / (1 - x**period)``, ``period`` an ``int``."""

    __slots__ = ("numerator", "period")

    def __init__(self, numerator: IntPolynomial, period: int) -> None:
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "period", period)
        validate_count("period", period, 1)
        if numerator.degree >= period:
            raise ValueError(f"numerator degree {numerator.degree} >= period {period}")


class SeqSpec(Frozen):
    """A circular sequence: direction sign, first term, and wave height (both ``int``)."""

    __slots__ = ("sign", "first_term", "height")

    def __init__(self, sign: str, first_term: int, height: int) -> None:
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "first_term", first_term)
        object.__setattr__(self, "height", height)
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        validate_count("first term", first_term)
        validate_count("height", height, 1)
        if first_term > height:
            raise ValueError(f"first term must lie in [0, {height}], got {first_term}")


def circ_seq(spec: SeqSpec, n: int) -> int:
    """n-th term: the tent map ``m - |m - u|`` at phase ``u = (t +- n) mod 2m``."""
    validate_count("n", n)
    m = spec.height
    u = (spec.first_term + (n if spec.sign == "+" else -n)) % (2 * m)
    return m - abs(m - u)


def circ_seq_closed(spec: SeqSpec, n: int) -> int:
    """n-th term in closed form, by case analysis on ``i = n mod 2m``."""
    validate_count("n", n)
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


def numerator_poly(spec: SeqSpec) -> IntPolynomial:
    """One period ``c_0, ..., c_(2m-1)`` of the wave as a polynomial.

    The phase-0 period ``0, 1, ..., m, m-1, ..., 1`` rotated to start at
    ``t``, read forward or backward by the sign.  A period ``2*height`` above
    the budget raises :class:`BudgetExceededError` before any term is built.
    """
    t, m = spec.first_term, spec.height
    check_budget(2 * m, "period terms")
    wave = [*range(m + 1), *range(m - 1, 0, -1)]
    if spec.sign == "+":
        return IntPolynomial(wave[t:] + wave[:t])
    return IntPolynomial(wave[t::-1] + wave[:t:-1])


def gen_function(spec: SeqSpec) -> RationalGF:
    return RationalGF(numerator=numerator_poly(spec), period=2 * spec.height)


def series_expand(gf: RationalGF, n_terms: int) -> list[int]:
    """First ``n_terms + 1`` power-series coefficients of the function.

    The numerator's degree is below the period, so ``c[n]`` is
    ``numerator[n mod period]``: the coefficients padded with zeros to one
    period (or to ``n_terms + 1`` if that is shorter), repeated.  More
    coefficients than the budget raise :class:`BudgetExceededError` before
    any is computed.
    """
    validate_count("n_terms", n_terms)
    count = n_terms + 1
    check_budget(count, "coefficients")
    block = list(gf.numerator.coeffs[:count])
    block += [0] * (min(gf.period, count) - len(block))
    repeats, rest = divmod(count, len(block))
    return block * repeats + block[:rest]
