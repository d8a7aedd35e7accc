from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zpoly import (IntPolynomial, RatPolynomial, TruncatedSeries,
                   format_polynomial, is_palindromic, reverse, series_exp,
                   series_log)

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


def one_plus_u(order):
    return (TruncatedSeries.constant(order, 1)
            + TruncatedSeries.u_monomial(order, RatPolynomial((1,)), 1))


def test_series_log_mercator():
    s = series_log(one_plus_u(3))
    assert [c.coefficient(0) for c in s.coeffs] == \
        [0, 1, Fraction(-1, 2), Fraction(1, 3)]


def test_series_exp_log_roundtrip():
    s = one_plus_u(8)
    assert series_exp(series_log(s)) == s


def test_series_preconditions():
    u = TruncatedSeries.u_monomial(4, RatPolynomial((1,)), 1)
    with pytest.raises(ValueError):
        series_log(u)
    with pytest.raises(ValueError):
        series_exp(one_plus_u(4))


@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 4)), max_size=4))
def test_series_exp_log_roundtrip_random(tail):
    order = 6
    coeffs = [RatPolynomial((1,))] + [RatPolynomial((Fraction(a, b),))
                                      for a, b in tail]
    s = TruncatedSeries(order, coeffs)
    assert series_exp(series_log(s)) == s


def test_series_take_integer_polynomials():
    one_plus_t = IntPolynomial([1, 1])
    want = RatPolynomial([1, 1])
    assert TruncatedSeries(2, [one_plus_t]) == TruncatedSeries(2, [want])
    assert TruncatedSeries.constant(2, one_plus_t) == TruncatedSeries(2, [want])
    s = TruncatedSeries.constant(2, 1)
    assert s + one_plus_t == s + want == TruncatedSeries(2, [RatPolynomial([2, 1])])
    assert s - one_plus_t == s - want == TruncatedSeries(2, [RatPolynomial([0, -1])])
    assert one_plus_t + s == s + one_plus_t
    assert one_plus_t - s == -(s - one_plus_t)


def test_rat_polynomial_normalization():
    p = RatPolynomial([Fraction(2, 4), Fraction(0), Fraction(0)])
    assert p.degree == 0
    assert p.coefficient(0) == Fraction(1, 2)
    assert p.derivative() == RatPolynomial()


def test_series_divide_t_power():
    poly_t2 = RatPolynomial((0, 0, 3))
    s = TruncatedSeries.u_monomial(3, poly_t2, 2)
    shifted = s.divide_t_power(2)
    assert shifted.coeffs[2] == RatPolynomial((3,))
    with pytest.raises(ValueError):
        TruncatedSeries.u_monomial(3, RatPolynomial((1,)), 1).divide_t_power(1)


def test_mixed_int_and_rat_operands_are_exact():
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert IntPolynomial([1, 1]) * RatPolynomial([third]) == RatPolynomial([third, third])
    assert RatPolynomial([third]) * IntPolynomial([1, 1]) == RatPolynomial([third, third])
    assert IntPolynomial([1]) + RatPolynomial([half]) == RatPolynomial([Fraction(3, 2)])
    assert RatPolynomial([half]) + IntPolynomial([1]) == RatPolynomial([Fraction(3, 2)])
    assert IntPolynomial([1]) - RatPolynomial([half]) == RatPolynomial([half])
    assert IntPolynomial([1, 2]) * half == RatPolynomial([half, 1])
    assert IntPolynomial([1]) != RatPolynomial([1])
    assert not RatPolynomial([1]) == IntPolynomial([1])
    assert type(IntPolynomial([1, 2]) * 3) is IntPolynomial
    series = TruncatedSeries.constant(2, half)
    assert series * IntPolynomial([1, 1]) == series * RatPolynomial([1, 1])
    assert IntPolynomial([1, 1]) * series == series * RatPolynomial([1, 1])
