"""Randomized structural cross-checks: the four computation routes, the
palindromic symmetry, and the Whitney recursion must agree on arbitrary
matroids, not just the named corpus."""

from hypothesis import given, settings, strategies as st

from oracles import chain_count_naive, z_naive
from zpoly import (BRAID, TYPE_B, GraphSpec, IntPolynomial, KlMethod, LinearVectors,
                   conjecture_sweep, contraction, enumerate_flats,
                   is_palindromic, kl_by_method, kl_defining, localization,
                   uniform_family, whitney_multi, z_polynomial)
from zpoly.klz import _defining_table, _p_table


def random_multigraph(draw):
    nv = draw(st.integers(2, 5))
    ne = draw(st.integers(1, 7))
    edges = [(draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)))
             for _ in range(ne)]
    return GraphSpec(nv, edges)


def random_vectors(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    vecs = [tuple(draw(st.integers(-2, 2)) for _ in range(dim))
            for _ in range(count)]
    return LinearVectors(tuple(vecs))


@st.composite
def random_spec(draw):
    if draw(st.booleans()):
        return random_multigraph(draw)
    return random_vectors(draw)


@given(random_spec())
@settings(max_examples=80, deadline=None)
def test_methods_and_symmetry_on_random_matroids(spec):
    lat = enumerate_flats(spec)
    lat.validate()
    polys = {m: kl_by_method(lat, m) for m in KlMethod}
    assert len({tuple(p.coeffs) for p in polys.values()}) == 1, (spec, polys)
    z = z_polynomial(lat)
    assert z.coefficient(0) == 1
    assert is_palindromic(z, lat.rk_total), spec


@given(random_spec(), st.lists(st.integers(0, 4), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_whitney_on_random_matroids(spec, profile):
    lat = enumerate_flats(spec)
    assert whitney_multi(lat, profile) == chain_count_naive(lat, profile)


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_interval_computations_compose(spec):
    # rebuilding Z from standalone contraction computations reproduces the
    # fused per-lattice result, so interval P values and sublattices agree
    lat = enumerate_flats(spec)
    out = [0] * (lat.rk_total + 1)
    for f in range(lat.n):
        sub = contraction(lat, f)
        sub.validate()
        for j, c in enumerate(kl_defining(sub).coeffs):
            out[lat.ranks[f] + j] += c
    assert IntPolynomial(out) == z_polynomial(lat)
    assert localization(lat, lat.top_id).n == lat.n


@given(random_spec())
@settings(max_examples=60, deadline=None)
def test_pz_table_at_every_flat(spec):
    # the palindromic P/Z table against the defining route and the naive
    # oracle on every contraction; the defining route's own Z is palindromic
    lat = enumerate_flats(spec)
    P, Z = _p_table(lat)
    P_def, Z_def = _defining_table(lat)
    for f in range(lat.n):
        sub = contraction(lat, f)
        assert P[f] == P_def[f] == kl_defining(sub).coeffs, (spec, f)
        assert Z[f] == Z_def[f] == z_naive(sub).coeffs, (spec, f)
        assert is_palindromic(IntPolynomial(Z_def[f]), lat.corank(f)), (spec, f)

def test_sweep_stretch_range_d30():
    # the desk-scale criterion stops at d = 20; the full range stays green
    for family in (BRAID, TYPE_B, uniform_family(2), uniform_family(10)):
        rows = conjecture_sweep(family, 30)
        for row in rows:
            assert row["negative_real_rooted"], (str(family), row["d"])
            assert row["interlace"] in ("strict", "weak"), (str(family), row["d"])


def test_sweep_stretch_range_d40():
    # past d = 30 the half-degree reduction keeps the sweep at about a second
    for family in (BRAID, TYPE_B, uniform_family(2), uniform_family(10)):
        rows = conjecture_sweep(family, 40)
        assert len(rows) == 40
        for row in rows:
            assert row["negative_real_rooted"], (str(family), row["d"])
            assert row["interlace"] in ("strict", "weak"), (str(family), row["d"])
