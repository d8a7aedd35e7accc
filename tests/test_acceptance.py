"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The benchmark criterion enumerates the 21147-flat
partition lattice, most of the file's run time (about 16 s on 2 vCPUs).
"""

import time
from contextlib import contextmanager

import pytest

from zpoly import (BRAID, TYPE_B, KlMethod, PermGroup, build_tables, conjecture_sweep, dimension,
                   enumerate_flats, enumerate_index_tuples,
                   equivariant_c_character, equivariant_c_uniform,
                   gaussian_binomial, h_to_schur, is_palindromic,
                   is_schur_positive, kl_by_method, kl_coeff_closed,
                   kl_defining, kl_family, lattice_spec, narayana,
                   q_shift_check, qvec_family, series_identity_check,
                   uniform_family, z_family, z_polynomial)
from zpoly.corpus import acceptance_corpus


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def corpus_lattices():
    return [(label, enumerate_flats(spec)) for label, spec in acceptance_corpus()]


FAMILIES = (BRAID, TYPE_B, uniform_family(1), qvec_family(2))


def test_criterion_1_palindromicity(corpus_lattices):
    with criterion(1, "Z palindromic on the corpus and families to d=40"):
        start = time.perf_counter()
        for label, lat in corpus_lattices:
            z = z_polynomial(lat)
            assert is_palindromic(z, lat.rk_total), label
        for family in FAMILIES:
            tables = build_tables(family, 40)
            for d in range(41):
                assert is_palindromic(z_family(tables, d), d), (family, d)
        assert time.perf_counter() - start < 120


def test_criterion_2_four_method_agreement(corpus_lattices):
    with criterion(2, "four KL methods agree coefficientwise on the corpus"):
        start = time.perf_counter()
        for label, lat in corpus_lattices:
            polys = {m: kl_by_method(lat, m) for m in KlMethod}
            assert len({tuple(p.coeffs) for p in polys.values()}) == 1, \
                (label, polys)
        assert time.perf_counter() - start < 300


def test_criterion_3_narayana():
    with criterion(3, "Z of U_{1,d} has Narayana coefficients for d<=12"):
        tables = build_tables(uniform_family(1), 12)
        for d in range(13):
            z = z_family(tables, d)
            assert z.degree == d
            for i in range(d + 1):
                assert z.coefficient(i) == narayana(d + 1, i + 1), (d, i)


def test_criterion_4_gaussian_and_shift():
    with criterion(4, "Gaussian coefficients and the q-shift identity, "
                      "d<=10, q in {2,3,4,5}"):
        for q in (2, 3, 4, 5):
            tables = build_tables(qvec_family(q), 10)
            for d in range(11):
                z = z_family(tables, d)
                for i in range(d + 1):
                    assert z.coefficient(i) == gaussian_binomial(d, i, q), (q, d, i)
            assert q_shift_check(q, 10)


def test_criterion_5_term_count():
    with criterion(5, "closed formula has exactly 2*3^(i-1) terms, i<=8"):
        for i in range(1, 9):
            rk = 2 * i + 1
            assert len(enumerate_index_tuples(i, rk)) == 2 * 3 ** (i - 1)


def test_criterion_6_conjecture_sweep():
    with criterion(6, "negative-real-rootedness and interlacing sweeps, d<=20"):
        start = time.perf_counter()
        families = [BRAID, TYPE_B] + [uniform_family(m) for m in range(1, 6)]
        for family in families:
            rows = conjecture_sweep(family, 20)
            for row in rows:
                assert row["negative_real_rooted"], (str(family), row)
                assert row["interlace"] in ("strict", "weak"), (str(family), row)
        assert time.perf_counter() - start < 900


def test_criterion_7_performance():
    with criterion(7, "kl_family(braid,40) < 10s and >=100x faster than the "
                      "lattice route at d=8 with identical output"):
        t0 = time.perf_counter()
        tables40 = build_tables(BRAID, 40)
        p40 = kl_family(tables40, 40)
        fast40 = time.perf_counter() - t0
        assert p40.coefficient(0) == 1
        assert fast40 < 10.0, f"kl_family(braid,40) took {fast40:.2f}s"

        lat = enumerate_flats(lattice_spec(BRAID, 8))
        assert lat.n == 21147
        t0 = time.perf_counter()
        slow = kl_defining(lat)
        slow_s = time.perf_counter() - t0

        fast_s = min(_timed_family_kl(8) for _ in range(3))
        assert slow == kl_family(build_tables(BRAID, 8), 8)
        ratio = slow_s / max(fast_s, 1e-9)
        print(f"  d=8: lattice {slow_s:.2f}s vs family {fast_s * 1000:.3f}ms "
              f"(x{ratio:.0f})")
        assert ratio >= 100.0


def _timed_family_kl(d):
    t0 = time.perf_counter()
    kl_family(build_tables(BRAID, d), d)
    return time.perf_counter() - t0


def test_criterion_8_family_generic_consistency():
    with criterion(8, "family recursions match lattice computations"):
        cases = ([(BRAID, d) for d in range(7)]
                 + [(TYPE_B, d) for d in range(5)]
                 + [(uniform_family(m), d) for m in (1, 2, 3)
                    for d in range(10 - m)]
                 + [(qvec_family(2), d) for d in range(4)])
        for family, d in cases:
            tables = build_tables(family, d)
            lat = enumerate_flats(lattice_spec(family, d))
            assert kl_family(tables, d) == kl_defining(lat), (str(family), d)
            assert z_family(tables, d) == z_polynomial(lat), (str(family), d)


def test_criterion_9_equivariant():
    with criterion(9, "equivariant dimensions, Schur expansion/positivity, "
                      "and character identities"):
        # dimension consistency for m <= 3, d <= 8, i < d/2
        for m in (1, 2, 3):
            tables = build_tables(uniform_family(m), 8)
            for d in range(9):
                p = kl_family(tables, d)
                for i in range(1, (d + 1) // 2):
                    f = equivariant_c_uniform(m, d, i)
                    assert dimension(f, m + d) == p.coefficient(i), (m, d, i)
                    if m + d <= 12:
                        assert is_schur_positive(f), (m, d, i)

        expansion = h_to_schur(equivariant_c_uniform(1, 3, 1))
        assert expansion.terms == {(2, 2): 1}

        # identity values of the fixed-point characters match the closed
        # formula, on actions up to |G| = 5040
        cases = []
        for m, d in ((1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)):
            lat = enumerate_flats(lattice_spec(uniform_family(m), d))
            cases.append((f"U({m},{d})+S{m + d}", lat,
                          PermGroup.symmetric(m + d)))
        for label, lat, group in cases:
            assert len(group) <= 5040
            for i in range(1, (lat.rk_total + 1) // 2):
                table = equivariant_c_character(lat, group, i)
                assert table.at_identity() == kl_coeff_closed(lat, i), (label, i)
                assert group.conjugacy_respects(table.values), (label, i)


def test_criterion_10_series_identities():
    with criterion(10, "truncated series identities: braid order 12, "
                       "type B order 10"):
        start = time.perf_counter()
        assert series_identity_check(BRAID, 12)
        assert series_identity_check(TYPE_B, 10)
        assert time.perf_counter() - start < 60
