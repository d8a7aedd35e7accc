"""Exact integer and rational polynomials.

Everything in this module is big-integer or big-rational; there is no
floating point anywhere.  Polynomials are dense (the degrees in this
problem domain stay small) and immutable.
"""

from __future__ import annotations

from fractions import Fraction


class _Polynomial:
    """Univariate polynomial, coefficients low degree first; the last stored
    one is nonzero, so zero stores ().  Subclasses fix the ring (_coerce) and
    the scalars they equal.  Mixing in a RatPolynomial or a Fraction gives
    the exact RatPolynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(map(self._coerce, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._coerce(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        if isinstance(other, self._scalars):
            return self.coeffs == (() if other == 0 else (self._coerce(other),))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _promote(self, other):
        """other as a polynomial, a Fraction as a RatPolynomial; None if neither."""
        if isinstance(other, _Polynomial):    # first: isinstance on Fraction is slow
            return other
        if isinstance(other, (int, Fraction)):
            return (RatPolynomial if isinstance(other, Fraction) else type(self))((other,))
        return None

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        cls = type(other) if isinstance(other, RatPolynomial) else type(self)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return cls(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        cls = type(other) if isinstance(other, RatPolynomial) else type(self)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return cls()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return cls(out)

    __rmul__ = __mul__

    def shift(self, power: int):
        """Multiply by t**power."""
        if power < 0:
            raise ValueError("negative power")
        return type(self)((0,) * power + self.coeffs)

    def __call__(self, x):
        value = self._coerce(0)
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def derivative(self):
        return type(self)(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"


class IntPolynomial(_Polynomial):
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ()
    _coerce = int
    _scalars = int

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    def __str__(self):
        return format_polynomial(self.coeffs)


def format_polynomial(coeffs, var: str = "t") -> str:
    """Render coefficients in ascending degree: '1 + 6t + 6t^2 + t^3'."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            power = var if i == 1 else f"{var}^{i}"
            terms.append(head + power)
    if not terms:
        return "0"
    return " + ".join(terms)


def reverse(p: IntPolynomial, d: int) -> IntPolynomial:
    """Return t**d * p(1/t).  Requires deg p <= d."""
    if p.degree > d:
        raise ValueError(f"cannot reverse degree {p.degree} polynomial at degree {d}")
    if p.is_zero():
        return p
    out = [0] * (d + 1)
    for i, c in enumerate(p.coeffs):
        out[d - i] = c
    return type(p)(out)


def is_palindromic(p: IntPolynomial, d: int) -> bool:
    """True iff t**d * p(1/t) == p."""
    if p.degree > d:
        return False
    return reverse(p, d) == p


class RatPolynomial(_Polynomial):
    """Polynomial with exact rational coefficients.

    Fractions keep themselves in lowest terms with positive denominator,
    so normalization is automatic.
    """

    __slots__ = ()
    _coerce = Fraction
    _scalars = (int, Fraction)
