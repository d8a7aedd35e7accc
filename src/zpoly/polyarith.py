"""Exact integer polynomials.

Every coefficient is a Python int, so arithmetic is exact big-integer
arithmetic with no floating point anywhere.  Polynomials are dense (the
degrees in this problem domain stay small) and immutable.  Evaluation at a
Fraction is exact too: it starts from the integer 0.
"""

from __future__ import annotations

from operator import index


class IntPolynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients,
    low degree first; the last stored one is nonzero, so zero stores ().
    Coefficients go through operator.index, and the only scalars it adds,
    multiplies or equals are ints: a float, Fraction or string raises
    TypeError instead of being truncated."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        elif not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        elif not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return type(self)(out)

    __rmul__ = __mul__

    def shift(self, power: int):
        """Multiply by t**power."""
        if power < 0:
            raise ValueError("negative power")
        return type(self)((0,) * power + self.coeffs)

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def derivative(self):
        return type(self)(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"

    def __str__(self):
        return format_polynomial(self.coeffs)


def format_polynomial(coeffs) -> str:
    """Render coefficients in ascending degree: '1 + 6t + 6t^2 + t^3'."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            power = "t" if i == 1 else f"t^{i}"
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
