from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zpoly import IntPolynomial, format_polynomial, is_palindromic, reverse

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial)


def test_binomial_square():
    p = IntPolynomial([1, 1])
    assert p * p == IntPolynomial([1, 2, 1])


def test_shift_is_monomial_multiplication():
    assert IntPolynomial([1]).shift(3) == IntPolynomial([0, 0, 0, 1])
    with pytest.raises(ValueError):
        IntPolynomial([1]).shift(-1)


def test_additive_inverse():
    p = IntPolynomial([1, 3, 1])
    assert (p + -p).is_zero()


def test_zero_normalization_and_degree():
    assert IntPolynomial([0, 0]).degree == -1
    assert IntPolynomial([2, 1, 0, 0]).degree == 1
    assert IntPolynomial([5]).coefficient(3) == 0


def test_reverse_examples():
    assert reverse(IntPolynomial([1, 2]), 3) == IntPolynomial([0, 0, 2, 1])
    z_braid3 = IntPolynomial([1, 7, 7, 1])
    assert reverse(z_braid3, 3) == z_braid3
    assert reverse(IntPolynomial(), 5).is_zero()
    with pytest.raises(ValueError):
        reverse(IntPolynomial([1, 1, 1]), 1)


def test_is_palindromic_examples():
    assert is_palindromic(IntPolynomial([1, 3, 1]), 2)
    assert not is_palindromic(IntPolynomial([1, 2]), 3)
    assert is_palindromic(IntPolynomial([1]), 0)
    assert not is_palindromic(IntPolynomial([1, 2, 3]), 1)


@given(small_polys, st.integers(0, 9))
def test_reverse_involution(p, extra):
    d = max(p.degree, 0) + extra
    assert reverse(reverse(p, d), d) == p


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


def test_evaluation():
    p = IntPolynomial([2, -3, 1])
    assert p(2) == 0
    assert p(Fraction(1, 2)) == Fraction(3, 4)


def test_format():
    assert format_polynomial((1, 6, 6, 1)) == "1 + 6t + 6t^2 + t^3"
    assert format_polynomial((2, -3, 1)) == "2 + -3t + t^2"
    assert format_polynomial(()) == "0"
    assert format_polynomial((0, 1)) == "t"


def test_scalar_operands_are_integers():
    half = Fraction(1, 2)
    with pytest.raises(TypeError):
        IntPolynomial([1, 2]) * half
    with pytest.raises(TypeError):
        IntPolynomial([1, 2]) + half
    assert type(IntPolynomial([1, 2]) * 3) is IntPolynomial


@pytest.mark.parametrize("coeff", [0.5, Fraction(1, 2), "1"])
def test_constructor_refuses_non_integer_coefficients(coeff):
    with pytest.raises(TypeError):
        IntPolynomial([coeff])


def test_operators_with_integers_and_printing():
    p, q = IntPolynomial([1, 2]), IntPolynomial([0, 2, 5])
    assert 3 + p == IntPolynomial([4, 2])
    assert p - q == IntPolynomial([1, 0, -5])
    assert 3 - p == IntPolynomial([2, -2])
    assert bool(p) and not IntPolynomial([0, 0])
    assert IntPolynomial([3]) == 3 and p != 3 and IntPolynomial() == 0
    assert hash(p) == hash(IntPolynomial([1, 2, 0]))
    assert repr(q) == "IntPolynomial([0, 2, 5])"
    assert str(q) == "2t + 5t^2" and str(IntPolynomial()) == "0"
