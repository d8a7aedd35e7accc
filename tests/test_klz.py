from unittest import mock

import pytest

from oracles import kl_naive, z_naive
from test_mutations import pz_adds_t
from zpoly import (GraphSpec, IndexTuple, IntPolynomial, KlMethod, UniformSpec,
                   closed_formula_terms, contraction, enumerate_flats,
                   enumerate_index_tuples, is_palindromic, kl_by_method,
                   kl_coeff_closed, kl_coeff_new_recursion, kl_defining,
                   kl_via_mobius, lattice_spec, mobius_from_bottom, t_index,
                   z_polynomial, BRAID)


def braid(d):
    return enumerate_flats(lattice_spec(BRAID, d))


SMALL_SPECS = [
    UniformSpec(0, 0), UniformSpec(0, 3), UniformSpec(1, 2), UniformSpec(1, 3),
    UniformSpec(1, 4), UniformSpec(2, 2), UniformSpec(2, 3), UniformSpec(3, 3),
    GraphSpec(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    GraphSpec(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]),
]


def test_t_index_values():
    assert t_index(1, frozenset(), 1) == 1
    assert t_index(1, frozenset({1}), 1) == 2
    assert t_index(2, frozenset({2, 3}), 4) == 4
    assert t_index(2, frozenset({1}), 1) == 2  # j = r+1 is allowed


def test_kl_defining_examples():
    assert kl_defining(enumerate_flats(UniformSpec(0, 2))) == IntPolynomial([1])
    assert kl_defining(braid(3)) == IntPolynomial([1, 1])
    assert kl_defining(enumerate_flats(UniformSpec(1, 3))) == IntPolynomial([1, 2])


def test_kl_defining_against_naive_oracle():
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        assert kl_defining(lat) == kl_naive(lat), spec


def test_z_polynomial_examples():
    assert z_polynomial(enumerate_flats(UniformSpec(1, 2))) == IntPolynomial([1, 3, 1])
    assert z_polynomial(braid(3)) == IntPolynomial([1, 7, 7, 1])
    assert z_polynomial(enumerate_flats(UniformSpec(0, 0))) == IntPolynomial([1])


def test_z_polynomial_against_naive_oracle():
    for spec in SMALL_SPECS[:8]:
        lat = enumerate_flats(spec)
        assert z_polynomial(lat) == z_naive(lat), spec


def test_z_degree_constant_term_palindromic():
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        z = z_polynomial(lat)
        assert z.degree == lat.rk_total
        assert z.coefficient(0) == 1
        assert is_palindromic(z, lat.rk_total)


def test_kl_degree_bound_and_constant_term():
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        p = kl_defining(lat)
        assert p.coefficient(0) == 1
        if lat.rk_total > 0:
            assert 2 * p.degree < lat.rk_total


def test_kl_via_mobius_examples():
    assert kl_via_mobius(enumerate_flats(UniformSpec(1, 3))) == IntPolynomial([1, 2])
    for n in range(5):
        boole = enumerate_flats(UniformSpec(0, n))
        assert kl_via_mobius(boole) == IntPolynomial([1])
    assert kl_via_mobius(enumerate_flats(UniformSpec(0, 0))) == IntPolynomial([1])


def test_mobius_round_trip_identity():
    # substituting Z of every contraction into the mu-weighted sum gives P
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        mu = mobius_from_bottom(lat)
        out = [0] * (lat.rk_total + 1)
        for f in range(lat.n):
            zf = z_polynomial(contraction(lat, f))
            for j, c in enumerate(zf.coeffs):
                out[lat.ranks[f] + j] += mu[f] * c
        assert IntPolynomial(out) == kl_defining(lat)


def test_new_recursion_examples():
    assert kl_coeff_new_recursion(braid(3), 1) == 1
    lat = enumerate_flats(UniformSpec(2, 4))
    assert kl_coeff_new_recursion(lat, 2) == 0  # 2i >= rk
    assert kl_coeff_new_recursion(lat, 0) == 1
    with pytest.raises(ValueError):
        kl_coeff_new_recursion(lat, -1)


def test_empty_flat_term_vanishes():
    # the bottom-flat term of the first recursion sum is c_M(rk - i) = 0
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        p = kl_defining(lat)
        for i in range(1, (lat.rk_total + 1) // 2):
            assert p.coefficient(lat.rk_total - i) == 0


def test_index_tuple_counts():
    assert len(enumerate_index_tuples(1, 5)) == 2
    assert len(enumerate_index_tuples(3, 10)) == 18
    assert len(enumerate_index_tuples(2, 4)) == 0
    for i in range(1, 7):
        assert len(enumerate_index_tuples(i, 2 * i + 1)) == 2 * 3 ** (i - 1)
        assert enumerate_index_tuples(i, 2 * i) == []
    with pytest.raises(ValueError):
        enumerate_index_tuples(0, 5)


@pytest.mark.parametrize("r, subset, a, message", [
    (1, frozenset(), (0, 1), r"r\+2 entries"),
    (1, frozenset(), (1, 2, 3), "a_0 must be 0"),
    (1, frozenset(), (0, 2, 2), "strictly increasing"),
    (1, frozenset({2}), (0, 1, 2), "subset of"),
])
def test_index_tuple_rejects(r, subset, a, message):
    with pytest.raises(ValueError, match=message):
        IndexTuple(r, subset, a)


def test_index_tuple_profiles_positive():
    for tup in enumerate_index_tuples(3, 9):
        profile = tup.profile()
        assert all(e >= 1 for e in profile)
        assert all(profile[j] >= profile[j + 1] for j in range(len(profile) - 1))


def test_closed_formula_examples():
    assert kl_coeff_closed(braid(3), 1) == 1
    assert kl_coeff_closed(enumerate_flats(UniformSpec(1, 3)), 1) == 2
    assert kl_coeff_closed(braid(5), 1) == 16


def test_closed_formula_base_case_is_whitney_difference():
    # c(1) = W(1) - W(rk-1)
    from zpoly import whitney_multi
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        if lat.rk_total < 3:
            continue
        assert kl_coeff_closed(lat, 1) == \
            whitney_multi(lat, [1]) - whitney_multi(lat, [lat.rk_total - 1])


def test_four_method_agreement_small():
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        polys = [kl_by_method(lat, m) for m in KlMethod]
        assert len({tuple(p.coeffs) for p in polys}) == 1, spec


def test_closed_formula_terms_recorded():
    lat = braid(3)
    terms = closed_formula_terms(lat, 1)
    assert [(s, v) for s, _, v in terms] == [(1, 7), (-1, 6)]


def test_defining_route_never_reads_the_table():
    # a poisoned P/Z table changes the table routes but not kl_defining,
    # and kl_defining leaves no per-flat table behind; the up-sets, mu and
    # the orbit numbering are inputs it shares with the other routes
    for spec in SMALL_SPECS:
        lat = enumerate_flats(spec)
        lat.uppers()
        mobius_from_bottom(lat)
        before = set(lat._cache)
        p = kl_defining(lat)
        assert set(lat._cache) == before, spec
        lat._cache["pz"] = (((7,),) * lat.n, ((7,),) * lat.n)
        assert kl_defining(lat) == p == kl_naive(lat), spec
        assert z_polynomial(lat) == IntPolynomial([7])


def test_orbits_that_merge_two_mobius_values_are_an_error():
    # K5's rank-2 orbits are 10 triangles (mu = 2) and 15 pairs of disjoint
    # edges (mu = 1); merged, the orbit sweep leaves 35 to share among 25
    lat = braid(4)
    rank2 = lat.flats_of_rank(2)
    reps = sorted({lat.orbit_rep[f] for f in rank2})
    assert [lat.orbit_size[r] for r in reps] == [15, 10]
    orbit_rep = list(lat.orbit_rep)
    for f in rank2:
        orbit_rep[f] = reps[-1]
    lat.orbit_rep = tuple(orbit_rep)
    lat.orbit_size = {r: orbit_rep.count(r) for r in sorted(set(orbit_rep))}
    assert lat.orbit_size[reps[-1]] == 25
    with pytest.raises(RuntimeError, match="not an integer"):
        mobius_from_bottom(lat)
    with pytest.raises(RuntimeError, match="not an integer"):
        kl_defining(lat)


def test_defining_route_checks_tail_and_low_half():
    # dropping one pair from the up-sets breaks the chains the defining
    # equation sums over; both of its checks must catch some of these
    lat = enumerate_flats(UniformSpec(2, 4))
    ups = [list(u) for u in lat.uppers()]
    messages = set()
    for f in range(lat.n):
        for g in ups[f]:
            broken = [list(u) for u in ups]
            broken[f].remove(g)
            lat._cache.clear()
            lat._cache["uppers"] = broken
            try:
                kl_defining(lat)
            except RuntimeError as exc:
                messages.add(str(exc))
    assert any("leading tail" in m for m in messages), messages
    assert any("low degrees" in m for m in messages), messages


def test_mobius_route_refuses_a_sum_above_the_degree_bound():
    # a solve that adds t to every P_F of corank >= 3 leaves nonzero
    # coefficients from degree 3 on, at or above half the rank, on K6
    # (1 + 16t + 80t^2 - 85t^3) and on K7: an error, not a P
    for d, degree in ((5, 3), (6, 3)):
        with mock.patch("zpoly.klz._pz_solve", pz_adds_t):
            with pytest.raises(RuntimeError, match=f"at degree {degree}, above the degree bound"):
                kl_via_mobius(braid(d))
