import hashlib
import json

import pytest

from oracles import (gaussian_by_product, narayana_by_dyck_paths,
                     stirling1_by_polynomial, stirling2_by_enumeration,
                     subspaces_by_brute_force, typeb_whitney_by_double_sums,
                     uniform_whitney_by_binomials)
from zpoly import families, matroid
from zpoly import (BRAID, TYPE_B, ExplicitFlats, FlatCapExceeded, IntPolynomial,
                   LinearVectors, NiceFamily, WhitneyTables, binomial,
                   build_tables, characteristic_polynomial, enumerate_flats,
                   gaussian_binomial, is_palindromic, kl_closed_family,
                   kl_defining, kl_family, lattice_spec, narayana,
                   p_from_z_inversion, parse_family, q_shift_check,
                   qvec_family, qvec_flats, series_identity_check, stirling1_signed,
                   stirling2, uniform_family, whitney_multi,
                   whitney_multi_family, z_family, z_polynomial)


def test_stirling2_against_enumeration():
    for n in range(7):
        for k in range(n + 2):
            assert stirling2(n, k) == stirling2_by_enumeration(n, k)
    assert stirling2(4, 2) == 7


def test_stirling1_against_falling_factorial():
    for n in range(8):
        for k in range(n + 2):
            assert stirling1_signed(n, k) == stirling1_by_polynomial(n, k)
    assert stirling1_signed(4, 4) == 1


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 2) == 3
    for q in (2, 3, 4, 5):
        for n in range(7):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_by_product(n, k, q)
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def test_binomial_range():
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0
    assert binomial(3, -1) == 0


def test_family_validation():
    with pytest.raises(ValueError):
        NiceFamily("uniform")
    with pytest.raises(ValueError):
        NiceFamily("qvec", 6)  # not a prime power
    with pytest.raises(ValueError):
        NiceFamily("braid", 3)
    assert str(parse_family("uniform:2")) == "uniform:2"
    assert parse_family("braid") == BRAID
    assert NiceFamily("qvec", 8).param == 8  # 2^3 is fine


@pytest.mark.parametrize("make, message", [
    (lambda: parse_family("nope"), "unknown family kind 'nope'"),
    (lambda: parse_family("uniform:x"), "family 'uniform:x': parameter 'x' is not an integer"),
    (lambda: parse_family("qvec:1"), "qvec family needs a prime power q >= 2"),
    (lambda: parse_family("qvec:6"), "qvec family needs a prime power q >= 2"),
    (lambda: build_tables(BRAID, -1), "d_max must be nonnegative"),
    (lambda: lattice_spec(BRAID, -1), "rank must be nonnegative"),
    (lambda: qvec_flats(4, 2), "needs q prime"),
    (lambda: q_shift_check(1, 3), "need q >= 2"),
    (lambda: q_shift_check(2, -1), "^d_max must be nonnegative"),
])
def test_input_checks_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_qvec_accepts_exactly_the_prime_powers_and_realizes_the_primes():
    primes = [q for q in range(2, 1001) if all(q % k for k in range(2, q))]
    powers = {p ** k for p in primes for k in range(1, 10) if p ** k <= 1000}
    for q in range(-3, 1001):
        try:
            family = NiceFamily("qvec", q)
        except ValueError as err:
            assert q not in powers and "prime power" in str(err), q
            continue
        assert q in powers, q
        if q in primes:
            assert lattice_spec(family, 1).p == q
        else:
            with pytest.raises(ValueError, match="needs q prime"):
                lattice_spec(family, 1)


def test_build_tables_examples():
    tb = build_tables(BRAID, 5)
    assert tb.W[3][1] == 7 and tb.W[3][2] == 6
    tu = build_tables(uniform_family(1), 5)
    assert tu.W[3][1] == 6 and tu.W[3][0] == 1
    tq = build_tables(qvec_family(2), 5)
    assert tq.W[2][1] == 3


def test_table_invariants():
    for family in (BRAID, TYPE_B, uniform_family(2), qvec_family(3)):
        tb = build_tables(family, 8)
        for d in range(9):
            assert tb.W[d][0] == 1
            assert tb.W[d][d] == 1
            assert tb.w[d][d] == 1
            if d >= 1:
                assert sum(tb.w[d]) == 0  # chi(1) = 0


def test_tables_match_lattice_counts():
    cases = [(BRAID, 4), (TYPE_B, 3), (uniform_family(2), 4), (qvec_family(2), 3)]
    for family, dmax in cases:
        tb = build_tables(family, dmax)
        for d in range(dmax + 1):
            lat = enumerate_flats(lattice_spec(family, d))
            chi = characteristic_polynomial(lat)
            for k in range(d + 1):
                assert tb.W[d][k] == whitney_multi(lat, [k]), (family, d, k)
                assert tb.w[d][k] == chi.coefficient(k), (family, d, k)


def test_dowling_tables_braid_equal_stirling_numbers():
    tb = build_tables(BRAID, 60)
    for d in range(61):
        assert tb.W[d] == [stirling2(d + 1, k + 1) for k in range(d + 1)], d
        assert tb.w[d] == [stirling1_signed(d + 1, k + 1) for k in range(d + 1)], d


def test_dowling_tables_typeb_equal_double_sums():
    tb = build_tables(TYPE_B, 60)
    assert (tb.W, tb.w) == typeb_whitney_by_double_sums(60)


@pytest.mark.parametrize("m", range(1, 9))
def test_uniform_tables_equal_subset_counts(m):
    tb = build_tables(uniform_family(m), 60)
    assert (tb.W, tb.w) == uniform_whitney_by_binomials(m, 60)


def test_integer_parameters_only():
    for bad in (True, 2.0, 1.5):
        with pytest.raises(TypeError):
            uniform_family(bad)
        with pytest.raises(TypeError):
            build_tables(BRAID, bad)
    with pytest.raises(TypeError):
        qvec_family(True)
    with pytest.raises(TypeError):
        build_tables(uniform_family(2), 3.0)
    with pytest.raises(ValueError):
        parse_family("uniform:1.5")
    assert build_tables(BRAID, 1).d_max == 1


def test_integer_ranks_only():
    # a bool rank would read as 0 or 1: P_1, 1 + t and K2
    tables = build_tables(BRAID, 5)
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError):
            kl_family(tables, bad)
        with pytest.raises(TypeError):
            z_family(tables, bad)
        with pytest.raises(TypeError):
            lattice_spec(BRAID, bad)
    assert kl_family(tables, 1) == IntPolynomial([1])
    assert lattice_spec(BRAID, 1).edges == ((0, 1),)


def test_typeb_w_matches_exponent_product():
    # chi of the type-B arrangement is (t-1)(t-3)...(t-(2d-1))
    tb = build_tables(TYPE_B, 8)
    for d in range(9):
        poly = IntPolynomial([1])
        for i in range(1, d + 1):
            poly = poly * IntPolynomial([-(2 * i - 1), 1])
        assert list(poly.coeffs) == tb.w[d]


def test_kl_family_examples():
    tb = build_tables(BRAID, 5)
    assert kl_family(tb, 3) == IntPolynomial([1, 1])
    tu = build_tables(uniform_family(1), 5)
    assert kl_family(tu, 3) == IntPolynomial([1, 2])
    for q in (2, 3, 4):
        tq = build_tables(qvec_family(q), 10)
        for d in range(11):
            assert kl_family(tq, d) == IntPolynomial([1])


def test_kl_family_range_error():
    tb = build_tables(BRAID, 3)
    with pytest.raises(ValueError):
        kl_family(tb, 4)
    with pytest.raises(ValueError):
        z_family(tb, 4)


def test_kl_closed_family_range_error():
    # the rank-6 member is out of range: c(1) of K7 is 42, not 0
    tb = build_tables(BRAID, 3)
    with pytest.raises(ValueError, match="table range"):
        kl_closed_family(tb, 6, 1)
    with pytest.raises(ValueError, match="table range"):
        kl_closed_family(tb, 6, 3)    # no index tuples, so no table lookup


def test_whitney_multi_family_range_error():
    with pytest.raises(ValueError, match="table range"):
        whitney_multi_family(build_tables(BRAID, 3), 6, [2, 1])


def test_p_from_z_inversion_range_error():
    with pytest.raises(ValueError, match="table range"):
        p_from_z_inversion(build_tables(BRAID, 3), 6)


def test_kl_family_negative_rank_after_memo():
    tb = build_tables(BRAID, 6)
    kl_family(tb, 6)
    with pytest.raises(ValueError, match="table range"):
        kl_family(tb, -1)
    with pytest.raises(ValueError, match="table range"):
        z_family(tb, -1)


def test_family_answers_pinned_to_d60():
    # sha256 of [[P_d, Z_d] for d = 0..60], json.dumps of coefficient lists
    expected = {"braid": "e60030190e7a156b", "typeb": "65a95963447018b5",
                "uniform:2": "fd9d19c6e6d4a0a9", "qvec:3": "fa3a22dc8115229d"}
    for name, digest in expected.items():
        tb = build_tables(parse_family(name), 60)
        rows = [[list(kl_family(tb, d).coeffs), list(z_family(tb, d).coeffs)]
                for d in range(61)]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == digest, name


def test_z_family_examples():
    tu = build_tables(uniform_family(1), 5)
    assert z_family(tu, 3) == IntPolynomial([1, 6, 6, 1])
    tq = build_tables(qvec_family(2), 5)
    assert z_family(tq, 2) == IntPolynomial([1, 3, 1])
    tb = build_tables(BRAID, 5)
    assert z_family(tb, 3) == IntPolynomial([1, 7, 7, 1])


def test_family_generic_consistency():
    cases = [(BRAID, 5), (TYPE_B, 3), (uniform_family(1), 5),
             (uniform_family(3), 4), (qvec_family(2), 3)]
    for family, dmax in cases:
        tb = build_tables(family, dmax)
        for d in range(dmax + 1):
            lat = enumerate_flats(lattice_spec(family, d))
            assert kl_family(tb, d) == kl_defining(lat), (family, d)
            assert z_family(tb, d) == z_polynomial(lat), (family, d)


def test_whitney_multi_family():
    tb = build_tables(BRAID, 5)
    assert whitney_multi_family(tb, 3, [1]) == 7
    assert whitney_multi_family(tb, 3, [2, 1]) == 18
    assert whitney_multi_family(tb, 3, []) == 1
    lat = enumerate_flats(lattice_spec(BRAID, 3))
    assert whitney_multi(lat, [2, 1]) == 18


def test_whitney_multi_family_matches_lattice():
    for family, d in ((BRAID, 4), (uniform_family(2), 4), (qvec_family(2), 3)):
        tb = build_tables(family, d)
        lat = enumerate_flats(lattice_spec(family, d))
        for profile in ([1], [2], [1, 1], [2, 1], [3, 1], [2, 2], [3, 2, 1]):
            assert whitney_multi_family(tb, d, profile) == \
                whitney_multi(lat, profile), (family, profile)


def test_kl_closed_family():
    tb = build_tables(BRAID, 8)
    assert kl_closed_family(tb, 3, 1) == 1
    assert kl_closed_family(tb, 5, 1) == 16
    tu = build_tables(uniform_family(1), 5)
    assert kl_closed_family(tu, 3, 2) == 0
    for family in (BRAID, TYPE_B, uniform_family(2)):
        tf = build_tables(family, 8)
        for d in range(9):
            p = kl_family(tf, d)
            for i in range(1, (d + 1) // 2):
                assert kl_closed_family(tf, d, i) == p.coefficient(i), (family, d, i)


def test_narayana_values():
    assert narayana(4, 2) == 6
    assert narayana(3, 2) == 3
    for n in range(1, 7):
        assert narayana(n, 1) == 1
        for k in range(1, n + 1):
            assert narayana(n, k) == narayana_by_dyck_paths(n, k)
    assert narayana(3, 0) == 0
    assert narayana(3, 4) == 0


def test_narayana_identity():
    tu = build_tables(uniform_family(1), 12)
    for d in range(13):
        z = z_family(tu, d)
        for i in range(d + 1):
            assert z.coefficient(i) == narayana(d + 1, i + 1)


def test_gaussian_identity():
    for q in (2, 3, 4, 5):
        tq = build_tables(qvec_family(q), 10)
        for d in range(11):
            z = z_family(tq, d)
            for i in range(d + 1):
                assert z.coefficient(i) == gaussian_binomial(d, i, q)


def test_q_shift():
    assert q_shift_check(2, 10)
    assert q_shift_check(3, 10)
    # spot value: Z_1(2t) + t Z_1(t) = 1 + 3t + t^2 at q = 2
    tq = build_tables(qvec_family(2), 2)
    z1 = z_family(tq, 1)
    assert z1 == IntPolynomial([1, 1])
    scaled = IntPolynomial([c * 2 ** j for j, c in enumerate(z1.coeffs)])
    assert scaled + z1.shift(1) == IntPolynomial([1, 3, 1]) == z_family(tq, 2)


def test_p_z_inversion():
    for family in (BRAID, TYPE_B, uniform_family(1), qvec_family(2)):
        tb = build_tables(family, 8)
        for d in range(9):
            assert p_from_z_inversion(tb, d) == kl_family(tb, d), (family, d)


def test_palindromicity_family():
    for family in (BRAID, TYPE_B, uniform_family(1), qvec_family(2)):
        tb = build_tables(family, 15)
        for d in range(16):
            assert is_palindromic(z_family(tb, d), d)


def test_contraction_closure_defining_property():
    # every contraction of the rank-d member looks like the corank-k member:
    # per-corank flat counts of [F, top] equal the W_k table row
    from zpoly import contraction
    cases = [(BRAID, 4), (TYPE_B, 3), (uniform_family(2), 4), (qvec_family(2), 3)]
    for family, d in cases:
        tb = build_tables(family, d)
        lat = enumerate_flats(lattice_spec(family, d))
        for f in range(lat.n):
            k = lat.corank(f)
            sub = contraction(lat, f)
            counts = [0] * (k + 1)
            for g in range(sub.n):
                counts[sub.rk_total - sub.ranks[g]] += 1
            assert counts == tb.W[k], (str(family), d, k)


def test_series_identities_small():
    assert series_identity_check(BRAID, 0)
    assert series_identity_check(BRAID, 8)
    assert series_identity_check(TYPE_B, 8)
    assert series_identity_check(BRAID, 16)
    assert series_identity_check(TYPE_B, 16)
    with pytest.raises(ValueError):
        series_identity_check(BRAID, 17)
    with pytest.raises(ValueError):
        series_identity_check(uniform_family(1), 4)


@pytest.mark.parametrize("family", [BRAID, TYPE_B], ids=str)
@pytest.mark.parametrize("table, d, k", [("W", 4, 2), ("w", 5, 1), ("W", 6, 6),
                                        ("P", 5, -1), ("Z", 2, -1)])
def test_series_identity_catches_a_changed_table_entry(monkeypatch, family, table, d, k):
    # W, w: Whitney entry (d, k); P, Z: coefficient k of P_d or Z_d in the memo
    real = families.build_tables

    def changed(fam, d_max):
        tb = real(fam, d_max)
        if table in "PZ":
            kl_family(tb, d_max)
            memo = [[list(cs) for cs in half] for half in tb._pz]
            memo["PZ".index(table)][d][k] += 1
            tb._pz = tuple(memo)
            return tb
        rows = [list(row) for row in getattr(tb, table)]
        rows[d][k] += 1
        W, w = (rows, tb.w) if table == "W" else (tb.W, rows)
        return WhitneyTables(fam, d_max, W, w)

    assert series_identity_check(family, 6)
    monkeypatch.setattr(families, "build_tables", changed)
    assert not series_identity_check(family, 6)


def _qvec_vector(q, d, i):
    """Element i of qvec_flats(q, d): the base-q digits of i + 1, least
    significant first."""
    return tuple((i + 1) // q ** k % q for k in range(d))


@pytest.mark.parametrize("q,d", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2),
                                 (7, 2)])
def test_qvec_flats_against_brute_force(q, d):
    ground, flats = qvec_flats(q, d)
    assert ground == q ** d - 1
    got = {frozenset(_qvec_vector(q, d, i) for i in f) for f in flats}
    assert len(got) == len(flats)
    assert got == subspaces_by_brute_force(q, d)


@pytest.mark.parametrize("q,d", [(2, 4), (3, 3)])
def test_qvec_flats_gaussian_counts(q, d):
    _, flats = qvec_flats(q, d)
    for k in range(d + 1):
        assert sum(1 for f in flats if len(f) == q ** k - 1) == gaussian_binomial(d, k, q)


def test_qvec_lattice_spec_is_a_vector_configuration_over_f_q(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice_spec built a lattice")

    monkeypatch.setattr(matroid, "_enumerate_by_covers", refuse)
    for q, d in ((2, 7), (3, 5), (5, 3)):
        spec = lattice_spec(qvec_family(q), d)
        assert isinstance(spec, LinearVectors) and spec.p == q
        assert spec.vectors == tuple(_qvec_vector(q, d, i) for i in range(q ** d - 1))


@pytest.mark.parametrize("q,d", [(2, d) for d in range(6)] + [(3, d) for d in range(4)])
def test_qvec_lattice_equals_its_explicit_flat_list(q, d):
    # the explicit-list checker, which checks every meet and cover partition,
    # rebuilds the F_q lattice from its flats alone
    lat = enumerate_flats(lattice_spec(qvec_family(q), d))
    lat.validate()
    listed = enumerate_flats(ExplicitFlats(*qvec_flats(q, d)))
    assert (lat.flats, lat.ranks, lat.covers) == (listed.flats, listed.ranks, listed.covers)
    assert d < 2 or lat.n_orbits < lat.n


@pytest.mark.parametrize("q,d_max", [(2, 6), (3, 4)])
def test_qvec_lattice_routes_equal_the_family_recursion(q, d_max):
    tables = build_tables(qvec_family(q), d_max)
    for d in range(d_max + 1):
        lat = enumerate_flats(lattice_spec(qvec_family(q), d))
        assert kl_defining(lat) == kl_family(tables, d), d
        assert z_polynomial(lat) == z_family(tables, d), d


def test_flat_cap_bounds_the_qvec_lattice(monkeypatch):
    # 127 atoms at d = 7: the cap is hit among them, and no plane is reached
    ranks, check_cap = [], matroid._check_cap

    def spy(count, flat_cap, rank):
        ranks.append(rank)
        check_cap(count, flat_cap, rank)

    monkeypatch.setattr(matroid, "_check_cap", spy)
    with pytest.raises(FlatCapExceeded, match="11 flats up to rank 1$"):
        enumerate_flats(lattice_spec(qvec_family(2), 7), flat_cap=10)
    assert max(ranks) == 1
