import ast
import json
import re
import shlex
import time
from collections import Counter
from itertools import combinations, product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_ranks_by_chains, bases_by_fractions, chain_count_naive,
                     flats_by_naive_closure, graph_rank, is_flat_family, lattice_as_sets,
                     mobius_naive, rank_by_fractions, rank_mod_p, satisfies_basis_exchange)
from zpoly import (BRAID, TYPE_B, ExplicitBases, ExplicitFlats, FlatCapExceeded, FlatLattice,
                   GraphSpec, IntPolynomial, LinearVectors, NiceFamily, UniformSpec, bareiss_rank,
                   characteristic_polynomial, contraction, enumerate_flats, lattice_spec,
                   localization, matroid_spec_from_json, mobius_from_bottom,
                   whitney_multi)
from zpoly.cli import main
from zpoly.matroid import (_JSON_SPECS, _enumerate_by_covers, _least_prime_factor, _orbit_rows,
                           _vectors_oracle)


def k_complete(n):
    return GraphSpec(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_symmetric_up_sets_are_built_on_first_read():
    # K6: no row exists until one is read; a representative's row builds
    # itself only, another flat's builds the rows of its tree ancestors,
    # and every row is the one the symmetry-free copy merges from covers
    lat = enumerate_flats(k_complete(6))
    want = enumerate_flats(ExplicitFlats(lat.n_ground, [lat.flat_elements(f)
                                                        for f in range(lat.n)])).uppers()
    ups = lat.uppers()
    assert (len(ups), len(ups.keys())) == (lat.n, 0)
    rep = next(f for f in lat.orbit_size if 0 < lat.ranks[f] < lat.rk_total)
    assert ups[rep] == want[rep] and list(ups.keys()) == [rep]
    other = next(f for f in range(lat.n) if lat.orbit_rep[f] != f and 0 < lat.ranks[f])
    assert ups[other] == want[other] and other in ups.keys()
    assert len(ups.keys()) < lat.n
    assert ups == want and not ups != [list(row) for row in want]
    assert list(ups) == list(want) and len(ups.keys()) == lat.n


def test_orbit_count_rows_count_each_up_set_by_orbit():
    # each representative's row counts the flats of its up-set by the
    # position of their orbit in orbit_size order, in strictly ascending
    # positions, at most one pair per orbit; the bottom's row included
    twins = GraphSpec(4, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 3), (0, 2), (0, 3)])
    for spec in (k_complete(6), k_complete(7), k_complete(8), UniformSpec(2, 5),
                 lattice_spec(TYPE_B, 4), twins):
        lat = enumerate_flats(spec)
        assert lat.symmetry and lat.n_orbits < lat.n, spec
        position = {rep: k for k, rep in enumerate(lat.orbit_size)}
        ranks, rows, slot = _orbit_rows(lat)
        assert len(rows) == len(ranks) == lat.n_orbits, spec
        for k, rep in enumerate(lat.orbit_size):
            want = Counter(position[lat.orbit_rep[g]] for g in lat.uppers()[rep])
            row = rows[k]
            assert dict(row) == want, (spec, rep)
            assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), (spec, rep)
            assert len(row) <= lat.n_orbits, (spec, rep)


def test_uniform_u12():
    lat = enumerate_flats(UniformSpec(1, 2))
    assert lat.n == 5
    assert lat.rk_total == 2
    assert sorted(lat.ranks) == [0, 1, 1, 1, 2]
    lat.validate()


def test_graph_k4_is_partition_lattice():
    lat = enumerate_flats(k_complete(4))
    assert lat.n == 15
    assert lat.rk_total == 3
    assert [lat.ranks.count(r) for r in range(4)] == [1, 6, 7, 1]
    lat.validate()


def test_explicit_flats_boolean_rank2():
    spec = ExplicitFlats(2, [[], [0], [1], [0, 1]])
    lat = enumerate_flats(spec)
    assert lat.n == 4
    assert lat.rk_total == 2
    lat.validate()


def test_explicit_flats_validation():
    with pytest.raises(ValueError):
        enumerate_flats(ExplicitFlats(2, [[], [0], [1]]))  # no top
    with pytest.raises(ValueError):
        enumerate_flats(ExplicitFlats(3, [[], [0, 1], [1, 2], [0, 1, 2]]))  # no meet


def test_explicit_flats_partition_lattices_match_graph():
    for nv in (6, 7):
        graph = enumerate_flats(k_complete(nv))
        lat = enumerate_flats(ExplicitFlats(
            graph.n_ground, [graph.flat_elements(i) for i in range(graph.n)]))
        assert (lat.flats, lat.ranks, lat.covers) == \
            (graph.flats, graph.ranks, graph.covers), nv


def test_explicit_flats_error_messages():
    with pytest.raises(ValueError, match="full ground set"):
        enumerate_flats(ExplicitFlats(2, [[], [0], [1]]))
    with pytest.raises(ValueError, match="closed under intersection"):
        enumerate_flats(ExplicitFlats(3, [[], [0, 1], [1, 2], [0, 1, 2]]))
    with pytest.raises(ValueError, match="graded lattice"):
        # [] < [0] < [0, 1] < [0, 1, 2] beside [] < [2] < [0, 1, 2]
        enumerate_flats(ExplicitFlats(3, [[], [0], [2], [0, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match="duplicate"):
        enumerate_flats(ExplicitFlats(1, [[], [0], [0]]))
    with pytest.raises(ValueError, match=r"covers of \[\] do not partition"):
        enumerate_flats(ExplicitFlats(3, [[], [0, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match=r"covers of \[0\] do not partition"):
        # the Boolean lattice without [0, 2]: [0] is covered by [0, 1] alone
        enumerate_flats(ExplicitFlats(3, [[], [0], [1], [2], [0, 1], [1, 2], [0, 1, 2]]))


def test_validate_accepts_lattices_and_their_intervals():
    lat = enumerate_flats(k_complete(5))
    lat.validate()
    for f in (0, 5, 20, lat.top_id):
        contraction(lat, f).validate()
        localization(lat, f).validate()     # its top is not the ground set


BOOLEAN3 = [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]


@pytest.mark.parametrize("flats, ranks, covers, ground, message", [
    ([0b00, 0b01, 0b01, 0b11], [0, 1, 1, 2], [[1, 2], [3], [3], []], 2, "duplicate"),
    # [0, 1] ^ [1, 2] = [1] is not a flat
    ([0b000, 0b011, 0b110, 0b111], [0, 1, 1, 2], [[1, 2], [3], [3], []], 3,
     "closed under intersection"),
    # the Boolean lattice on two elements with its top at rank 3
    ([0b00, 0b01, 0b10, 0b11], [0, 1, 1, 3], [[1, 2], [3], [3], []], 2, "ranks"),
    # [0] lists [1, 2] as a cover in place of [0, 1]
    (BOOLEAN3, [0, 1, 1, 1, 2, 2, 2, 3],
     [[1, 2, 3], [5, 6], [4, 6], [5, 6], [7], [7], [7], []], 3, r"flat 1 lists covers \[5, 6\]"),
], ids=["duplicate-flats", "missing-meet", "ungraded-cover", "cover-not-inclusion"])
def test_validate_rejects(flats, ranks, covers, ground, message):
    lat = FlatLattice(flats, ranks, covers, ground)
    with pytest.raises(ValueError, match=message):
        lat.validate()


def test_flat_lattice_needs_ranks_ascending():
    # ids follow (rank, mask) order, sorted one rank at a time
    with pytest.raises(ValueError, match="ranks ascending"):
        FlatLattice([0b00, 0b11, 0b01, 0b10], [0, 2, 1, 1], [[2, 3], [], [1], [1]], 2)
    lat = FlatLattice([0b00, 0b10, 0b01, 0b11], [0, 1, 1, 2], [[1, 2], [3], [3], []], 2)
    assert lat.flats == (0b00, 0b01, 0b10, 0b11) and list(lat.covers) == [(1, 2), (3,), (3,), ()]
    lat.validate()


@pytest.mark.parametrize("make", [
    lambda: UniformSpec(1.9, 2), lambda: UniformSpec(True, 2), lambda: UniformSpec(1, 2.0),
    lambda: GraphSpec(3.0, [(0, 1)]), lambda: GraphSpec(3, [(0, 1.0)]),
    lambda: GraphSpec(3, [(False, 1)]), lambda: ExplicitBases(True, [[0]]),
    lambda: ExplicitBases(3, [[0, 1.5]]), lambda: LinearVectors([[0.5, 1], [1, 2]]),
    lambda: LinearVectors([[True, 0]]), lambda: ExplicitFlats(2.0, [[], [0, 1]]),
    lambda: ExplicitFlats(2, [[], [0.7], [1], [0, 1]]),
])
def test_spec_constructors_reject_floats_and_bools(make):
    # int() would truncate them: [[0.5, 1], [1, 2]] would read as rank 2
    with pytest.raises(TypeError, match="is not an integer"):
        make()


@pytest.mark.parametrize("make, error, message", [
    (lambda: enumerate_flats(ExplicitBases(2, [[0, 2]])), ValueError,
     "element 2 outside ground set of size 2"),
    (lambda: enumerate_flats(ExplicitFlats(2, [[], [0], [1], [0, 1, 2]])), ValueError,
     "element 2 outside ground set of size 2"),
    (lambda: UniformSpec(-1, 2), ValueError, "m >= 0 and d >= 0"),
    (lambda: GraphSpec(2, [(0, 2)]), ValueError, r"edge \(0,2\) outside vertex range"),
    (lambda: GraphSpec(-2, []), ValueError, "vertices must be nonnegative, got -2"),
    (lambda: GraphSpec(3, [(0,)]), ValueError, r"edge \[0\] is not a pair of vertices"),
    (lambda: GraphSpec(3, [(0, 1, 2)]), ValueError, r"edge \[0, 1, 2\] is not a pair"),
    (lambda: ExplicitBases(-1, [[]]), ValueError, "ground must be nonnegative, got -1"),
    (lambda: ExplicitFlats(-3, [[]]), ValueError, "ground must be nonnegative, got -3"),
    (lambda: ExplicitBases(3, []), ValueError, "at least one basis"),
    (lambda: LinearVectors([(1, 0), (1,)]), ValueError, "common dimension"),
    (lambda: matroid_spec_from_json([]), ValueError, "must be an object"),
    (lambda: localization(enumerate_flats(UniformSpec(1, 2)), 5), ValueError,
     "invalid flat id 5"),
    (lambda: enumerate_flats(object()), TypeError, "not a matroid spec"),
])
def test_input_checks_raise(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("p, error, message", [
    (1, ValueError, "a prime p, got p = 1"), (4, ValueError, "a prime p, got p = 4"),
    (-3, ValueError, "a prime p, got p = -3"), (2.0, TypeError, "2.0 is not an integer"),
    (True, TypeError, "True is not an integer"),
])
def test_linear_vectors_field_is_q_or_a_prime(p, error, message):
    with pytest.raises(error, match=message):
        LinearVectors([(1, 0), (0, 1)], p)


def test_linear_vectors_cost_does_not_grow_with_p():
    # primality by a strong-probable-prime test, one inverse per line and a
    # primitive root from the prime factors of p - 1: no p-entry tables
    t0 = time.perf_counter()
    lat = enumerate_flats(LinearVectors(((1, 0), (0, 1), (1, 1)), 1_000_003))
    assert time.perf_counter() - t0 < 1.0
    assert lat.n == 5
    with pytest.raises(ValueError, match="a prime p"):
        LinearVectors(((1, 0),), 1_000_003 ** 2)


def test_least_prime_factor_decides_primes_by_strong_probable_prime_tests(monkeypatch):
    # a least-prime-factor sieve is trial division by each prime in turn
    sieve = list(range(10 ** 5))
    for k in range(2, isqrt(10 ** 5) + 1):
        if sieve[k] == k:
            for j in range(k * k, 10 ** 5, k):
                sieve[j] = min(sieve[j], k)
    assert [_least_prime_factor(n) for n in range(2, 10 ** 5)] == sieve[2:]
    # strong pseudoprimes to base 2 and Carmichael numbers are composite
    for n, p in ((2047, 23), (3215031751, 151), (3825123056546413051, 149491),
                 (561, 3), (41041, 7)):
        assert _least_prime_factor(n) == p, n
    # psi_12 = 399165290221 * 798330580441 is the least composite that is a
    # strong probable prime to every prime base up to 37, so it must go on to
    # trial division, stopped here before its ~4 * 10^11 steps
    psi12 = 318665857834031151167461
    d = (psi12 - 1) >> 2                            # psi12 - 1 = 4d, d odd
    assert psi12 == 399165290221 * 798330580441 and d & 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert pow(a, d, psi12) in (1, psi12 - 1) or pow(a, 2 * d, psi12) == psi12 - 1, a

    class TrialDivision(Exception):
        pass

    def stop(n):
        raise TrialDivision(n)
    monkeypatch.setattr("zpoly.matroid.isqrt", stop)
    with pytest.raises(TrialDivision):
        _least_prime_factor(psi12)
    # a prime near 10^14 is decided without ~10^7 trial divisions
    p = 10 ** 14 + 31
    assert _least_prime_factor(p) == p
    assert LinearVectors(((1, 0),), p).p == p and NiceFamily("qvec", p).param == p


def test_linear_vectors_scale_by_a_primitive_root_for_every_small_prime():
    # the lines (1, x), x != 0, form one orbit exactly when the scaling of
    # the second coordinate generates the multiplicative group of F_p
    for p in range(2, 500):
        if any(p % k == 0 for k in range(2, p)):
            continue
        lat = enumerate_flats(LinearVectors(((1, 0), (0, 1)) + tuple((1, x) for x in range(1, p)),
                                            p))
        assert (lat.n, lat.n_orbits) == (p + 3, 4), p


@pytest.mark.parametrize("obj, key", [
    ({"type": "uniform", "m": 1, "d": 3, "bogus": 7}, "bogus"),
    ({"type": "vectors", "vectors": [[1, 0], [0, 1], [1, 1]], "p": 2}, "p"),
    ({"type": "graph", "vertices": 2, "edges": [[0, 1]], "loops": []}, "loops"),
    ({"type": "flats", "ground": 1, "flats": [[], [0]], "rank": 1}, "rank"),
])
def test_json_rejects_unknown_fields(capsys, obj, key):
    # a defaulted field such as LinearVectors.p is not a JSON field either
    with pytest.raises(ValueError, match=f"has unknown field '{key}'"):
        matroid_spec_from_json(obj)
    assert main(["compute", "z", "--matroid-json", json.dumps(obj)]) == 2
    assert f"unknown field '{key}'" in capsys.readouterr().err


def test_explicit_flats_against_the_flat_axioms_on_four_elements():
    # every family of subsets of {0, 1, 2, 3} that lists the ground set:
    # the lattices accepted are exactly the families of flats, ranked by chains
    ground = frozenset(range(4))
    proper = [frozenset(s) for k in range(4) for s in combinations(range(4), k)]
    accepted = 0
    for pick in range(1 << len(proper)):
        family = [ground] + [s for i, s in enumerate(proper) if pick >> i & 1]
        try:
            lat = enumerate_flats(ExplicitFlats(4, family))
        except ValueError:
            assert not is_flat_family(4, family), family
            continue
        assert is_flat_family(4, family), family
        ranks = {frozenset(lat.flat_elements(f)): r for f, r in enumerate(lat.ranks)}
        assert ranks == _ranks_by_chains(family), family
        accepted += 1
    assert accepted == 68       # the matroids on four labelled elements


def test_bases_spec():
    # U_{1,2} as explicit bases
    lat = enumerate_flats(ExplicitBases(3, [[0, 1], [0, 2], [1, 2]]))
    assert lat.n == 5
    assert lat.rk_total == 2
    with pytest.raises(ValueError, match="exchange"):
        enumerate_flats(ExplicitBases(4, [[0, 1], [2, 3], [0, 2]]))
    with pytest.raises(ValueError, match="cardinalities"):
        enumerate_flats(ExplicitBases(3, [[0], [1, 2]]))


def test_linear_vectors_rank():
    assert bareiss_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert bareiss_rank([(2, 4), (1, 2)]) == 1
    assert bareiss_rank([]) == 0
    assert bareiss_rank([(0, 0, 0)]) == 0


def test_linear_vectors_lattice_matches_graph():
    # the braid arrangement vectors e_i - e_j realize the graphic matroid
    vectors = []
    n = 4
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            vectors.append(tuple(v))
    lat_vec = enumerate_flats(LinearVectors(tuple(vectors)))
    lat_graph = enumerate_flats(k_complete(4))
    assert lat_vec.n == lat_graph.n
    assert sorted(lat_vec.ranks) == sorted(lat_graph.ranks)
    for profile in ([1], [2], [2, 1], [1, 1]):
        assert whitney_multi(lat_vec, profile) == whitney_multi(lat_graph, profile)


def test_loops_and_parallels_give_simplification_lattice():
    # triangle with a doubled edge and a loop: lattice of the simple triangle
    messy = GraphSpec(3, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 2)])
    clean = GraphSpec(3, [(0, 1), (1, 2), (0, 2)])
    lat_m = enumerate_flats(messy)
    lat_c = enumerate_flats(clean)
    assert sorted(lat_m.ranks) == sorted(lat_c.ranks)
    for profile in ([1], [2], [1, 1], [2, 1]):
        assert whitney_multi(lat_m, profile) == whitney_multi(lat_c, profile)


def test_contraction():
    lat = enumerate_flats(k_complete(4))
    top_con = contraction(lat, lat.top_id)
    assert top_con.n == 1 and top_con.rk_total == 0
    bot_con = contraction(lat, lat.bottom_id)
    assert bot_con.n == lat.n and bot_con.rk_total == lat.rk_total
    atom = lat.flats_of_rank(1)[0]
    mid = contraction(lat, atom)
    assert mid.n == 5 and mid.rk_total == 2  # partition lattice of 3 blocks
    with pytest.raises(ValueError):
        contraction(lat, 99)
    assert lat.n_orbits == 5
    for sub in (top_con, bot_con, mid):     # sublattices carry no symmetry
        assert sub.symmetry == () and sub.orbit_rep == range(sub.n)


def test_localization():
    lat = enumerate_flats(UniformSpec(1, 3))
    assert localization(lat, lat.bottom_id).n == 1
    assert localization(lat, lat.top_id).n == lat.n
    pair = lat.flats_of_rank(2)[0]
    boole = localization(lat, pair)
    assert boole.n == 4 and boole.rk_total == 2
    assert lat.n_orbits == 4
    assert boole.symmetry == () and boole.orbit_rep == range(boole.n)


def test_mobius_examples():
    boole = enumerate_flats(UniformSpec(0, 2))
    mu = mobius_from_bottom(boole)
    assert mu[boole.top_id] == 1
    assert all(mu[a] == -1 for a in boole.flats_of_rank(1))
    u12 = enumerate_flats(UniformSpec(1, 2))
    assert mobius_from_bottom(u12)[u12.top_id] == 2
    point = enumerate_flats(UniformSpec(0, 0))
    assert mobius_from_bottom(point) == (1,)


def test_mobius_against_naive_oracle():
    for spec in (UniformSpec(2, 3), k_complete(4), UniformSpec(1, 4)):
        lat = enumerate_flats(spec)
        sets = lattice_as_sets(lat)
        naive = mobius_naive(sets)
        mine = mobius_from_bottom(lat)
        for i in range(lat.n):
            assert mine[i] == naive[sets[i]]


def test_characteristic_polynomial_examples():
    assert characteristic_polynomial(enumerate_flats(UniformSpec(0, 2))) == \
        IntPolynomial([1, -2, 1])
    assert characteristic_polynomial(enumerate_flats(UniformSpec(1, 2))) == \
        IntPolynomial([2, -3, 1])
    assert characteristic_polynomial(enumerate_flats(UniformSpec(0, 0))) == \
        IntPolynomial([1])


def test_whitney_examples():
    lat = enumerate_flats(k_complete(4))
    assert whitney_multi(lat, [0]) == 1
    assert whitney_multi(lat, [1]) == 7
    assert whitney_multi(lat, [2]) == 6
    assert whitney_multi(lat, [1, 1]) == 7
    assert whitney_multi(lat, []) == 1
    assert whitney_multi(lat, [5]) == 0
    assert whitney_multi(lat, [-1]) == 0


def test_whitney_against_chain_enumeration():
    for spec in (k_complete(4), UniformSpec(1, 3), UniformSpec(2, 2)):
        lat = enumerate_flats(spec)
        for profile in ([1], [2], [1, 1], [2, 1], [2, 2], [3, 2, 1], [1, 2]):
            assert whitney_multi(lat, profile) == chain_count_naive(lat, profile)


def test_whitney_with_impossible_coranks():
    # coranks below 0 or above the rank select no flat, wherever they sit
    for spec in (k_complete(5), UniformSpec(1, 3), LinearVectors(((1, 0), (0, 1), (1, 1)))):
        lat = enumerate_flats(spec)
        coranks = range(-2, lat.rk_total + 3)
        for length in (1, 2, 3):
            for profile in product(coranks, repeat=length):
                assert whitney_multi(lat, profile) == chain_count_naive(lat, profile), \
                    (spec, profile)

def test_whitney_counts_flats_per_corank():
    lat = enumerate_flats(UniformSpec(2, 3))
    for i in range(lat.rk_total + 1):
        expected = sum(1 for f in range(lat.n) if lat.corank(f) == i)
        assert whitney_multi(lat, [i]) == expected


def test_whitney_contraction_recursion():
    # W(i_r,...,i_1) = sum over corank-i_r flats of W_{M^F}(i_{r-1},...,i_1),
    # on every corpus matroid with at most 8 ground elements
    from zpoly.corpus import acceptance_corpus
    small = [(label, spec) for label, spec in acceptance_corpus()
             if enumerate_flats(spec).n_ground <= 8]
    for label, spec in small:
        lat = enumerate_flats(spec)
        for profile in ([2, 1], [1, 1]):
            head, rest = profile[0], profile[1:]
            total = sum(whitney_multi(contraction(lat, f), rest)
                        for f in range(lat.n) if lat.corank(f) == head)
            assert whitney_multi(lat, profile) == total, (label, profile)
    for spec in (k_complete(4), UniformSpec(1, 4), UniformSpec(3, 2)):
        lat = enumerate_flats(spec)
        for profile in ([2, 1], [3, 1], [2, 2, 1]):
            head, rest = profile[0], profile[1:]
            total = sum(whitney_multi(contraction(lat, f), rest)
                        for f in range(lat.n) if lat.corank(f) == head)
            assert whitney_multi(lat, profile) == total


def test_flat_cap():
    with pytest.raises(FlatCapExceeded):
        enumerate_flats(UniformSpec(0, 9), flat_cap=100)


def test_flat_cap_message_says_how_far():
    k4_vectors = LinearVectors([[1 if k == i else -1 if k == j else 0 for k in range(4)]
                                for i in range(4) for j in range(i + 1, 4)])
    k4_bases = ExplicitBases(6, bases_by_fractions(k4_vectors.vectors))
    k5 = enumerate_flats(k_complete(5))
    k5_flats = ExplicitFlats(10, [k5.flat_elements(i) for i in range(k5.n)])
    # (spec, cap, rank of the flat that passes the cap)
    cases = [(UniformSpec(0, 9), 100, 3),     # ranks hold 1, 9, 36, 84, ... flats
             (k_complete(5), 20, 2),          # 1, 10, 25, 15, 1
             (k_complete(6), 40, 2),          # 1, 15, 65, ...: passed inside an orbit's closure
             (k5_flats, 20, 2),
             (k4_vectors, 10, 2),             # 1, 6, 7, 1
             (k4_bases, 7, 2),
             (LinearVectors([[0], [0]]), 0, 0),
             (GraphSpec(1, ()), 0, 0),        # the bottom flat counts
             (UniformSpec(2, 0), 0, 0),
             (k_complete(3), 0, 0)]
    for spec, cap, rank in cases:
        with pytest.raises(FlatCapExceeded,
                           match=rf"cap {cap}: {cap + 1} flats up to rank {rank}$"):
            enumerate_flats(spec, flat_cap=cap)


@st.composite
def vector_configurations(draw):
    """Up to 9 integer vectors of dimension 1-4: arbitrary vectors,
    combinations of fewer generators than the dimension (rank-deficient
    sets), zero vectors and scaled duplicates.  Drawn from a seeded random
    source: Hypothesis's own size draws leave most examples with under two
    vectors."""
    rnd = draw(st.randoms(use_true_random=False))
    dim = rnd.randint(1, 4)

    def vector():
        return [rnd.randint(-3, 3) for _ in range(dim)]

    gens = [vector() for _ in range(rnd.randint(1, max(1, dim - 1)))]
    vectors = []
    for _ in range(rnd.randint(0, 9)):
        kind = rnd.choice(["arbitrary", "combination", "scaled", "zero"])
        if kind == "arbitrary":
            vectors.append(vector())
        elif kind == "combination":
            cs = [rnd.randint(-2, 2) for _ in gens]
            vectors.append([sum(c * g[i] for c, g in zip(cs, gens)) for i in range(dim)])
        elif kind == "scaled" and vectors:
            vectors.append([rnd.choice([1, -1, 2, -3]) * x for x in rnd.choice(vectors)])
        else:
            vectors.append([0] * dim)
    return vectors


@settings(max_examples=150, deadline=None)
@given(vector_configurations())
def test_closure_enumerators_against_naive_closure(vectors):
    n = len(vectors)
    want = flats_by_naive_closure(n, lambda s: rank_by_fractions([vectors[e] for e in s]))
    for spec in (LinearVectors(vectors), ExplicitBases(n, bases_by_fractions(vectors))):
        _assert_lattice(spec, want)


@settings(max_examples=150, deadline=None)
@given(vector_configurations(), st.sampled_from([2, 3, 5]))
def test_prime_field_oracle_against_naive_closure(vectors, p):
    # the same integer configurations read mod p: reduction makes more
    # zero and parallel vectors, and entries outside range(p) test the reduction
    n = len(vectors)
    lat = _enumerate_by_covers(n, *_vectors_oracle(vectors, p), None, ())
    assert (lat.flats, lat.ranks, lat.covers) == flats_by_naive_closure(
        n, lambda s: rank_mod_p([vectors[e] for e in s], p))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_bareiss_rank_against_fractions(rnd):
    cols = rnd.randint(0, 5)
    rows = [[rnd.choice([0, 0, 1, -1, rnd.randint(-50, 50)]) for _ in range(cols)]
            for _ in range(rnd.randint(0, 6))]
    if rows and rnd.random() < 0.3:
        rows.append([0] * cols)
    if len(rows) > 1 and rnd.random() < 0.3:
        a, b = rnd.sample(rows, 2)
        rows.append([rnd.randint(-3, 3) * x + rnd.randint(-3, 3) * y for x, y in zip(a, b)])
    assert bareiss_rank(rows) == rank_by_fractions(rows)


def _assert_lattice(spec, want):
    """spec enumerates to want, (flats, ranks, covers); a cap one below
    its flat count raises and its flat count passes."""
    lat = enumerate_flats(spec)
    assert (lat.flats, lat.ranks, lat.covers) == want
    with pytest.raises(FlatCapExceeded):
        enumerate_flats(spec, flat_cap=lat.n - 1)
    assert enumerate_flats(spec, flat_cap=lat.n).n == lat.n


@st.composite
def multigraphs(draw):
    """Up to 6 vertices and 9 edges, with loops and parallel edges drawn
    on purpose; from a seeded random source, as vector_configurations."""
    rnd = draw(st.randoms(use_true_random=False))
    vertices = rnd.randint(0, 6)
    edges = []
    for _ in range(rnd.randint(0, 9) if vertices else 0):
        kind = rnd.choice(["edge", "loop", "parallel"])
        if kind == "parallel" and edges:
            u, v = rnd.choice(edges)
            edges.append(rnd.choice([(u, v), (v, u)]))
        elif kind == "loop" or vertices == 1:
            u = rnd.randrange(vertices)
            edges.append((u, u))
        else:
            edges.append(tuple(rnd.sample(range(vertices), 2)))
    return vertices, edges


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_graph_enumerator_against_naive_closure(graph):
    vertices, edges = graph
    _assert_lattice(GraphSpec(vertices, edges),
                    flats_by_naive_closure(len(edges), graph_rank(vertices, edges)))


def _is_automorphism(lat, g):
    flats = set(lat.flats)
    return all(sum(1 << g[e] for e in lat.flat_elements(f)) in flats for f in range(lat.n))


@settings(max_examples=150, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_orbit_builder_rejects_non_automorphisms(graph, rnd):
    vertices, edges = graph
    lat = enumerate_flats(GraphSpec(vertices, edges))
    g = list(range(lat.n_ground))
    rnd.shuffle(g)
    if _is_automorphism(lat, g):
        sym = FlatLattice(lat.flats, lat.ranks, lat.covers, lat.n_ground, [g])
        image = {m: sum(1 << g[e] for e in sym.flat_elements(f)) for f, m in enumerate(sym.flats)}
        for f, m in enumerate(sym.flats):
            assert sym.orbit_rep[f] == sym.orbit_rep[sym.flats.index(image[m])]
    else:
        with pytest.raises(ValueError, match="off the lattice"):
            FlatLattice(lat.flats, lat.ranks, lat.covers, lat.n_ground, [g])
    with pytest.raises(ValueError, match="not a permutation"):
        FlatLattice(lat.flats, lat.ranks, lat.covers, lat.n_ground, [g + [lat.n_ground]])


def test_twin_vertices_give_the_symmetry():
    # K_{2,3}: classes {0, 1} and {2, 3, 4}; one transposition for the
    # first, a transposition and a 3-cycle for the second
    k23 = enumerate_flats(GraphSpec(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]))
    assert k23.symmetry == ((3, 4, 5, 0, 1, 2), (1, 0, 2, 4, 3, 5), (1, 2, 0, 4, 5, 3))
    # the path P4 has an automorphism but no twins
    assert enumerate_flats(GraphSpec(4, [(0, 1), (1, 2), (2, 3)])).symmetry == ()
    # 0 and 1 are twins only when their parallel classes to 2 are equal
    assert enumerate_flats(GraphSpec(3, [(0, 2), (0, 2), (1, 2)])).symmetry == ()
    assert enumerate_flats(GraphSpec(3, [(0, 2), (1, 2), (2, 0), (2, 1)])).symmetry == \
        ((1, 0, 3, 2),)
    # isolated twins move no edge; unequal loop counts are not twins
    assert enumerate_flats(GraphSpec(3, [(0, 0)])).symmetry == ()
    assert enumerate_flats(GraphSpec(2, [(0, 0), (1, 1)])).symmetry == ((1, 0),)


def test_uniform_enumerator_against_naive_closure():
    for m in range(8):
        for d in range(8 - m):
            _assert_lattice(UniformSpec(m, d),
                            flats_by_naive_closure(m + d, lambda s, d=d: min(len(s), d)))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_basis_exchange_check_against_naive(rnd):
    n = rnd.randint(1, 6)
    subsets = list(combinations(range(n), rnd.randint(0, n)))
    bases = rnd.sample(subsets, rnd.randint(1, len(subsets)))
    try:
        enumerate_flats(ExplicitBases(n, bases))
        accepted = True
    except ValueError as exc:
        assert "exchange" in str(exc)
        accepted = False
    assert accepted == satisfies_basis_exchange(bases)


def test_json_round_trip():
    spec = matroid_spec_from_json({"type": "uniform", "m": 1, "d": 2})
    assert spec == UniformSpec(1, 2)
    spec = matroid_spec_from_json(
        {"type": "graph", "vertices": 3, "edges": [[0, 1], [1, 2]]})
    assert isinstance(spec, GraphSpec)
    with pytest.raises(ValueError):
        matroid_spec_from_json({"type": "nope"})
    with pytest.raises(ValueError):
        matroid_spec_from_json({"type": "uniform", "m": 1})


def test_readme_json_examples_decode():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Matroid JSON format", 1)[1]
    block = re.sub(r"//[^\n]*", "", section.split("```jsonc", 1)[1].split("```", 1)[0])
    examples = json.loads("[" + re.sub(r"\}\s*\{", "},{", block) + "]")
    assert sorted(obj["type"] for obj in examples) == sorted(_JSON_SPECS)
    assert [enumerate_flats(matroid_spec_from_json(obj)).n for obj in examples] == [12, 5, 5, 5, 4]


def test_readme_python_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_python_quickstart_values():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.findall(r"```python\n(.*?)```", readme, flags=re.S)[0]
    lines = block.splitlines()
    namespace = {}
    compared, prose = 0, []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            value = namespace.get(stmt.targets[0].id) if isinstance(stmt, ast.Assign) else None
        _, hashed, comment = lines[stmt.end_lineno - 1].partition("#")
        if not hashed:
            continue
        # a comment that starts with the value's str, ended by a comma or a
        # word (not "1" of "1 + t"), states the value
        comment, shown = comment.strip(), str(value)
        if comment.startswith(shown) and re.match(r"$|,| [a-z=]", comment[len(shown):]):
            compared += 1
        else:
            prose.append(source)
    assert compared == 10, prose


def test_readme_command_line_block_runs(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("zpoly ")]
    assert len(lines) == 11
    k4 = k_complete(4)
    (tmp_path / "k4.json").write_text(json.dumps(
        {"type": "graph", "vertices": k4.vertices, "edges": k4.edges}))
    monkeypatch.chdir(tmp_path)
    compared = 0
    for line in lines:
        command, _, comment = line.partition(" #")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        # a comment of digits, t, ^, + and spaces alone (a polynomial in t
        # or an integer) is the exact first line the command prints
        expected = comment.strip()
        if re.fullmatch(r"[0-9t^+ ]+", expected):
            assert out.splitlines()[0] == expected, line
            compared += 1
    assert compared == 2


def test_graded_validation_on_corpus():
    for spec in (UniformSpec(1, 3), UniformSpec(0, 4), k_complete(5),
                 GraphSpec(4, [(0, 1), (1, 2), (2, 3)])):
        enumerate_flats(spec).validate()
