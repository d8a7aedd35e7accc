"""Exact polynomial and truncated power-series arithmetic.

Everything in this module is big-integer or big-rational; there is no
floating point anywhere.  Polynomials are dense (the degrees in this
problem domain stay small) and immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


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

    def divide_t_power(self, k: int) -> "RatPolynomial":
        """Divide by t**k; the k lowest coefficients must vanish."""
        if k < 0:
            raise ValueError("negative power")
        if any(self.coeffs[i] != 0 for i in range(min(k, len(self.coeffs)))):
            raise ValueError("polynomial not divisible by t^%d" % k)
        return RatPolynomial(self.coeffs[k:])


def _rat_polynomial(c) -> RatPolynomial:
    """A polynomial, a coefficient sequence or a scalar as a RatPolynomial."""
    if isinstance(c, RatPolynomial):
        return c
    if isinstance(c, _Polynomial):
        c = c.coeffs
    return RatPolynomial(c if hasattr(c, "__iter__") else (c,))


class TruncatedSeries:
    """Power series in u truncated at order N, coefficients in Q[t].

    coeffs[j] is the RatPolynomial in t multiplying u**j; exactly N+1
    coefficients are stored.  Arithmetic is closed under truncation.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = [_rat_polynomial(c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(RatPolynomial())
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, order: int, value) -> "TruncatedSeries":
        """The series value * u**0, value a scalar or a polynomial in t."""
        return cls(order, [value])

    @classmethod
    def u_monomial(cls, order: int, poly: RatPolynomial, upower: int) -> "TruncatedSeries":
        """The series poly(t) * u**upower."""
        if upower < 0:
            raise ValueError("negative power of u")
        cs = [RatPolynomial()] * (order + 1)
        if upower <= order:
            cs[upower] = poly
        return cls(order, cs)

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError("mismatched truncation orders")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __neg__(self):
        return TruncatedSeries(self.order, [-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction, _Polynomial)):
            other = TruncatedSeries.constant(self.order, other)
        self._check(other)
        return TruncatedSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, _Polynomial)):
            return TruncatedSeries(self.order, [c * other for c in self.coeffs])
        self._check(other)
        n = self.order
        out = [RatPolynomial() for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = TruncatedSeries.constant(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def constant_term(self) -> RatPolynomial:
        return self.coeffs[0]

    def u_valuation(self) -> int:
        """Index of the lowest nonzero coefficient (order+1 for the zero series)."""
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                return j
        return self.order + 1

    def divide_t_power(self, k: int) -> "TruncatedSeries":
        """Divide every coefficient by t**k; each must be divisible."""
        return TruncatedSeries(self.order, [c.divide_t_power(k) for c in self.coeffs])

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"


def _powers_of_zero_constant(s: TruncatedSeries):
    """Yield s**1, s**2, ... while nonzero, for s with zero constant term."""
    n = s.order
    power = s
    k = 1
    while k <= n and power.u_valuation() <= n:
        yield k, power
        power = power * s
        k += 1


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp(s) for a series with zero constant term."""
    if not s.constant_term().is_zero():
        raise ValueError("series_exp requires constant term 0")
    result = TruncatedSeries.constant(s.order, 1)
    for k, power in _powers_of_zero_constant(s):
        result = result + power * Fraction(1, factorial(k))
    return result


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log(s) for a series with constant term 1."""
    if s.constant_term() != RatPolynomial((1,)):
        raise ValueError("series_log requires constant term 1")
    r = s - 1
    result = TruncatedSeries.constant(s.order, 0)
    for k, power in _powers_of_zero_constant(r):
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result
