import random
from itertools import combinations, permutations
from math import factorial

import pytest

from oracles import partitions_of, schur_expand_h_by_pieri, young_character_by_words
from zpoly import (BRAID, TYPE_B, ExplicitBases, GraphSpec, PermGroup, SymFunction, UniformSpec,
                   build_tables, character_value, contraction, dimension, enumerate_flats,
                   equivariant_c_character, equivariant_c_uniform,
                   equivariant_whitney_character, equivariant_whitney_uniform,
                   enumerate_index_tuples, h_product, h_to_schur,
                   is_schur_positive, kl_coeff_closed, kl_coeff_new_recursion, kl_family,
                   kostka_number, lattice_spec, localization, uniform_family, whitney_multi,
                   whitney_multi_family)


def test_h_product():
    assert h_product([2, 2]).terms == {(2, 2): 1}
    assert h_product([0, 3]).terms == {(3,): 1}
    assert h_product([1, 2, 1]).terms == {(2, 1, 1): 1}
    with pytest.raises(ValueError):
        h_product([2, -1])


def test_kostka_and_schur_expansion_against_pieri():
    for lam in ((2, 2), (3, 1), (4,), (2, 1, 1), (3, 2, 1), (2, 2, 2)):
        expanded = h_to_schur(h_product(lam))
        assert expanded.terms == schur_expand_h_by_pieri(list(lam))
    assert h_to_schur(h_product([5])).terms == {(5,): 1}
    assert kostka_number([2, 2], [2, 1, 1]) == 1
    assert kostka_number([2, 2], [1, 1, 1, 1]) == 2


def test_h_to_schur_bound():
    big = SymFunction("h", 13, {(13,): 1})
    with pytest.raises(ValueError):
        h_to_schur(big)
    with pytest.raises(ValueError):
        h_to_schur(h_to_schur(h_product([2, 2])))  # already Schur basis


def test_dimension():
    assert dimension(h_product([2, 2]), 4) == 6
    s22 = SymFunction("s", 4, {(2, 2): 1})
    assert dimension(s22, 4) == 2
    assert dimension(SymFunction("h", 4), 4) == 0
    with pytest.raises(ValueError):
        dimension(h_product([2, 2]), 5)


def test_schur_positivity():
    assert is_schur_positive(equivariant_c_uniform(1, 3, 1))
    f = h_product([2, 2]) - 2 * h_product([3, 1])
    assert not is_schur_positive(f)
    assert is_schur_positive(SymFunction("h", 4))


def test_equivariant_whitney_uniform_examples():
    assert equivariant_whitney_uniform(1, 3, [1]).terms == {(2, 2): 1}
    assert equivariant_whitney_uniform(2, 2, [2, 2]).terms == {(4,): 1}
    # empty profile: the single empty chain carries the trivial character
    assert equivariant_whitney_uniform(1, 3, []).terms == {(4,): 1}
    # non-monotone or out-of-range profiles have no chains
    assert equivariant_whitney_uniform(1, 3, [1, 2]).is_zero()
    assert equivariant_whitney_uniform(1, 3, [5]).is_zero()


def test_equivariant_whitney_dimension_shadow():
    for m in range(4):
        for d in range(6):
            if m + d == 0 or m + d > 9:
                continue
            lat = enumerate_flats(UniformSpec(m, d))
            for profile in ([], [1], [2], [1, 1], [2, 1], [d], [2, 0], [3, 2]):
                ch = equivariant_whitney_uniform(m, d, profile)
                assert dimension(ch, m + d) == whitney_multi(lat, profile), \
                    (m, d, profile)


def test_equivariant_c_uniform_examples():
    assert equivariant_c_uniform(1, 3, 1).terms == {(2, 2): 1, (3, 1): -1}
    assert h_to_schur(equivariant_c_uniform(1, 3, 1)).terms == {(2, 2): 1}
    assert equivariant_c_uniform(2, 4, 2).is_zero()  # 2i >= d
    assert equivariant_c_uniform(2, 5, 1).terms == {(4, 3): 1, (6, 1): -1}
    with pytest.raises(ValueError):
        equivariant_c_uniform(1, 3, 0)


def test_equivariant_c_dimension_consistency():
    for m in (1, 2, 3):
        tables = build_tables(uniform_family(m), 8)
        for d in range(2, 9):
            p = kl_family(tables, d)
            for i in range(1, (d + 1) // 2):
                f = equivariant_c_uniform(m, d, i)
                assert dimension(f, m + d) == p.coefficient(i), (m, d, i)


def test_perm_group():
    s4 = PermGroup.symmetric(4)
    assert len(s4) == 24
    assert s4.identity == (0, 1, 2, 3)
    klein = PermGroup.from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    assert len(klein) == 4
    with pytest.raises(ValueError):
        PermGroup.from_generators(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        PermGroup.from_generators(5, [(1, 2, 3, 4, 0)], cap=3)


def test_whitney_character_u12():
    lat = enumerate_flats(UniformSpec(1, 2))
    s3 = PermGroup.symmetric(3)
    table = equivariant_whitney_character(lat, s3, [1])
    assert table.at_identity() == 3
    assert table.values[(1, 0, 2)] == 1   # transposition fixes one singleton
    assert table.values[(1, 2, 0)] == 0   # 3-cycle fixes none
    assert s3.conjugacy_respects(table.values)


def test_whitney_character_identity_is_plain_count():
    lat = enumerate_flats(UniformSpec(2, 3))
    s5 = PermGroup.symmetric(5)
    for profile in ([1], [2, 1], [1, 1]):
        table = equivariant_whitney_character(lat, s5, profile)
        assert table.at_identity() == whitney_multi(lat, profile)


def test_whitney_character_trivial_group():
    lat = enumerate_flats(UniformSpec(1, 3))
    triv = PermGroup.trivial(4)
    table = equivariant_whitney_character(lat, triv, [2, 1])
    assert table.values == {triv.identity: whitney_multi(lat, [2, 1])}


def test_non_preserving_action_errors():
    # triangle plus pendant edge: swapping a triangle edge with the pendant
    # maps the triangle flat to a non-flat
    lat = enumerate_flats(GraphSpec(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    bad = PermGroup.from_generators(4, [(3, 1, 2, 0)])
    with pytest.raises(ValueError, match="off the lattice"):
        equivariant_whitney_character(lat, bad, [1])


def test_action_check_remembered_per_generator():
    # the lattice remembers the generators that passed; a later group that
    # shares one of them is still checked at its other generators
    lat = enumerate_flats(GraphSpec(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    good = PermGroup.from_generators(4, [(1, 0, 2, 3)])     # two triangle edges
    first = equivariant_c_character(lat, good, 1)
    assert equivariant_c_character(lat, good, 1) == first
    bad = PermGroup.from_generators(4, [(1, 0, 2, 3), (3, 1, 2, 0)])
    with pytest.raises(ValueError, match="off the lattice"):
        equivariant_whitney_character(lat, bad, [1])
    with pytest.raises(ValueError, match="off the lattice"):
        equivariant_c_character(lat, bad, 1)


def edge_action_group(n):
    """S_n acting on the edges of K_n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    vertex_gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    return PermGroup.from_generators(len(pairs), edge_generators(n, vertex_gens, pairs))


def test_c_character_examples():
    u13 = enumerate_flats(UniformSpec(1, 3))
    s4 = PermGroup.symmetric(4)
    table = equivariant_c_character(u13, s4, 1)
    assert table.at_identity() == 2 == kl_coeff_closed(u13, 1)
    assert s4.conjugacy_respects(table.values)

    boole = enumerate_flats(UniformSpec(0, 4))
    table0 = equivariant_c_character(boole, s4, 1)
    assert all(v == 0 for v in table0.values.values())

    triv = PermGroup.trivial(4)
    t1 = equivariant_c_character(u13, triv, 1)
    assert t1.values == {triv.identity: 2}


def test_c_character_matches_uniform_symmetric_function():
    # two routes to the same character: fixed-point counting vs h-basis
    for m, d, i in ((1, 3, 1), (2, 3, 1), (1, 4, 1)):
        lat = enumerate_flats(UniformSpec(m, d))
        group = PermGroup.symmetric(m + d)
        table = equivariant_c_character(lat, group, i)
        f = equivariant_c_uniform(m, d, i)
        assert table.at_identity() == dimension(f, m + d)
        assert group.conjugacy_respects(table.values)


def test_braid_edge_action_character():
    lat = enumerate_flats(lattice_spec(BRAID, 3))
    group = edge_action_group(4)
    assert len(group) == 24
    table = equivariant_c_character(lat, group, 1)
    assert table.at_identity() == kl_coeff_closed(lat, 1) == 1
    assert group.conjugacy_respects(table.values)


@pytest.mark.parametrize("make", [
    lambda: (UniformSpec(2, 3), PermGroup.symmetric(5), (1, 0, 2, 3, 4)),
    lambda: (lattice_spec(BRAID, 3), edge_action_group(4), None),
], ids=["recognised-sym5", "enumerated-s4-on-k4-edges"])
def test_conjugacy_respects_sees_one_changed_value(make):
    spec, group, changed = make()
    table = equivariant_c_character(enumerate_flats(spec), group, 1)
    assert group.conjugacy_respects(table.values)
    if changed is None:     # any element off the identity: S_4 has no centre
        changed = next(g for g in group.elements if g != group.identity)
    values = dict(table.values)
    values[changed] += 1
    assert not group.conjugacy_respects(values)


def test_sym_function_equality_negation_and_text():
    f = equivariant_c_uniform(1, 3, 1)
    assert str(f) == "-h[3,1] + h[2,2]"
    assert str(-f) == "h[3,1] - h[2,2]"
    assert -(-f) == f and hash(-(-f)) == hash(f)
    assert f != SymFunction("s", 4, f.terms)
    assert SymFunction("h", 2, {(2,): 1}) != SymFunction("h", 3, {(3,): 1})
    assert f != f.terms
    assert str(f - f) == "0" and (f - f).is_zero()
    assert str(SymFunction("h", 3, {(2, 1): 2, (1, 1, 1): -3})) == "2*h[2,1] - 3*h[1,1,1]"


def brute_fixed_chains(lat, g, profile):
    """Count profile multichains of g-fixed flats by direct iteration."""
    from itertools import product as iproduct
    images = []
    for mask in lat.flats:
        m, new, e = mask, 0, 0
        while m:
            if m & 1:
                new |= 1 << g[e]
            m >>= 1
            e += 1
        images.append(new)
    fixed = [i for i in range(lat.n) if images[i] == lat.flats[i]]
    layers = [[i for i in fixed if lat.corank(i) == c] for c in profile]
    count = 0
    for chain in iproduct(*layers):
        if all(lat.flats[chain[j]] & lat.flats[chain[j + 1]] == lat.flats[chain[j]]
               for j in range(len(chain) - 1)):
            count += 1
    return count


def test_whitney_character_against_brute_force():
    cases = [
        (enumerate_flats(UniformSpec(1, 3)), PermGroup.symmetric(4)),
        (enumerate_flats(lattice_spec(BRAID, 3)), edge_action_group(4)),
        (enumerate_flats(UniformSpec(2, 2)), PermGroup.symmetric(4)),
    ]
    for lat, group in cases:
        for profile in ([1], [2, 1], [1, 1], [2]):
            table = equivariant_whitney_character(lat, group, profile)
            for g in group.elements:
                assert table.values[g] == brute_fixed_chains(lat, g, profile), \
                    (profile, g)


def test_whitney_character_burnside_integrality():
    # a permutation character averages to the (integer) orbit count
    lat = enumerate_flats(UniformSpec(1, 4))
    group = PermGroup.symmetric(5)
    for profile in ([1], [2], [2, 1], [3, 1]):
        table = equivariant_whitney_character(lat, group, profile)
        total = sum(table.values.values())
        assert total % len(group) == 0, profile
        assert total // len(group) >= 0


def cycle_lengths(g):
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = g[x]
            length += 1
        out.append(length)
    return out


def young_character_value(g, blocks):
    """Permutation character of S_n / (S_{b_1} x ... x S_{b_k}) at g: the
    number of ordered distributions of g's cycles filling the block sizes."""
    cycles = cycle_lengths(g)

    def count(idx, remaining):
        if idx == len(cycles):
            return 1 if all(r == 0 for r in remaining) else 0
        total = 0
        c = cycles[idx]
        for b in range(len(remaining)):
            if remaining[b] >= c:
                nxt = list(remaining)
                nxt[b] -= c
                total += count(idx + 1, tuple(nxt))
        return total

    return count(0, tuple(blocks))


def test_whitney_character_matches_young_induction():
    # the fixed-point counts must realize the h-basis character at every
    # element, not just at the identity
    for m, d in ((1, 3), (2, 2), (1, 4), (2, 3)):
        lat = enumerate_flats(UniformSpec(m, d))
        group = PermGroup.symmetric(m + d)
        for profile in ([1], [2], [2, 1], [1, 1], [2, 2], [3, 1]):
            table = equivariant_whitney_character(lat, group, profile)
            ch = equivariant_whitney_uniform(m, d, profile)
            if ch.is_zero():
                assert all(v == 0 for v in table.values.values()), (m, d, profile)
                continue
            (blocks, coeff), = ch.terms.items()
            assert coeff == 1
            for g in group.elements:
                assert table.values[g] == young_character_value(g, blocks), \
                    (m, d, profile, g)


def test_c_character_non_preserving_action_errors():
    lat = enumerate_flats(GraphSpec(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    bad = PermGroup.from_generators(4, [(3, 1, 2, 0)])
    with pytest.raises(ValueError, match="off the lattice"):
        equivariant_c_character(lat, bad, 1)


def klein_group():
    return PermGroup.from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def conjugate(g, h):
    inv = [0] * len(g)
    for x, gx in enumerate(g):
        inv[gx] = x
    return tuple(g[h[inv[x]]] for x in range(len(g)))


def test_classes_partition_the_group():
    groups = [PermGroup.symmetric(n) for n in range(1, 6)] + [
        klein_group(), PermGroup(4, klein_group().elements),
        edge_action_group(4), PermGroup.trivial(4),
        PermGroup.from_generators(5, [(1, 2, 3, 4, 0)])]
    for group in groups:
        classes = group.classes()
        assert group.classes() is classes
        members = [h for cls in classes for h in cls]
        assert sorted(members) == list(group.elements)
        # the group's own tuples, not copies
        assert {id(h) for h in members} == {id(h) for h in group.elements}
        for cls in classes:
            assert len(group) % len(cls) == 0
            for g in group.generators:
                assert {conjugate(g, h) for h in cls} == set(cls)


def test_class_counts():
    # S_n has one class per partition of n
    for n, p_n in zip(range(1, 8), (1, 2, 3, 5, 7, 11, 15)):
        assert len(PermGroup.symmetric(n).classes()) == p_n, n
    assert len(klein_group().classes()) == 4
    assert len(edge_action_group(4).classes()) == 5
    assert len(PermGroup.trivial(4).classes()) == 1
    assert PermGroup.symmetric(5).classes()[0] == ((0, 1, 2, 3, 4),)


def test_c_character_against_per_element_brute_force():
    # groups whose classes are not S_n cycle types
    cases = [
        (enumerate_flats(UniformSpec(1, 3)), klein_group()),
        (enumerate_flats(lattice_spec(BRAID, 3)), edge_action_group(4)),
        (enumerate_flats(UniformSpec(2, 3)),
         PermGroup.from_generators(5, [(1, 2, 3, 4, 0)])),
    ]
    for lat, group in cases:
        tuples = enumerate_index_tuples(1, lat.rk_total)
        assert tuples
        table = equivariant_c_character(lat, group, 1)
        for g in group.elements:
            want = sum(tup.sign * brute_fixed_chains(lat, g, tup.profile())
                       for tup in tuples)
            assert table.values[g] == want, g


def test_c_character_matches_uniform_h_formula_at_every_class():
    for m, d in ((1, 3), (2, 3), (1, 4), (2, 4), (1, 5)):
        lat = enumerate_flats(UniformSpec(m, d))
        group = PermGroup.symmetric(m + d)
        for i in range(1, (d + 1) // 2):
            table = equivariant_c_character(lat, group, i)
            f = equivariant_c_uniform(m, d, i)
            for cls in group.classes():
                g = cls[0]
                want = sum(c * young_character_value(g, lam)
                           for lam, c in f.terms.items())
                assert table.values[g] == want, (m, d, i, g)


def closure_elements(n, gens):
    """Every product of the generators, by breadth-first search."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        frontier = [tuple(g[x] for x in h) for g in gens for h in frontier]
        frontier = [h for h in set(frontier) if h not in elements]
        elements.update(frontier)
    return elements


def benchmark_style_generators(seed, n):
    """A transposition of two points adjacent on an n-cycle, both conjugated
    by a seeded random permutation."""
    rng = random.Random(seed)
    rho = list(range(n))
    rng.shuffle(rho)
    swap = list(range(n))
    swap[rho[0]], swap[rho[1]] = rho[1], rho[0]
    cycle = list(range(n))
    for k in range(n):
        cycle[rho[k]] = rho[(k + 1) % n]
    return [tuple(swap), tuple(cycle)]


def recognition_cases():
    cases = [
        (3, [(0, 2, 1)]),                           # intransitive transposition
        (4, [(1, 0, 2, 3), (2, 3, 0, 1)]),          # dihedral, imprimitive
        (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),          # A_4
        (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),    # A_5
        (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),          # Klein four-group
        (5, [(1, 2, 3, 4, 0)]),                     # C_5
        (5, [(1, 0, 3, 4, 2), (1, 2, 3, 4, 0)]),    # (0 1)(2 3 4) and a 5-cycle
        (1, []), (1, [(0,)]), (2, [(1, 0)]), (2, [(0, 1)]), (2, []),
    ]
    # S_5 on the edges of K_5 is primitive; a 4-cycle acts with cycle type
    # (4, 4, 2) and a transposition with three 2-cycles, so neither has a
    # transposition as a power
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for vertex_gens in ([(1, 2, 3, 0, 4), (1, 2, 3, 4, 0)],
                        [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]):
        cases.append((10, [tuple(pairs.index(tuple(sorted((g[i], g[j]))))
                                 for i, j in pairs) for g in vertex_gens]))
    for n in range(3, 7):
        cases.append((n, [tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n))
                          for k in range(n - 1)]))
        cases.append((n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]))
        cases += [(n, benchmark_style_generators(seed, n)) for seed in range(4)]
    return cases


def test_symmetric_recognition_matches_closure_order():
    orders = []
    for n, gens in recognition_cases():
        group = PermGroup.from_generators(n, gens)
        order = len(closure_elements(n, gens))
        assert group.is_symmetric == (order == factorial(n)), (n, gens)
        assert len(group) == order, (n, gens)
        orders.append(order)
    assert orders[:7] == [2, 8, 12, 60, 4, 5, 120]
    # S_4 from a 4-cycle and a 3-cycle has no generator with a transposition
    # as a power: not recognised, so the closure lists it
    s4 = PermGroup.from_generators(4, [(1, 2, 3, 0), (1, 2, 0, 3)])
    assert not s4.is_symmetric
    assert len(s4) == 24 and len(s4.classes()) == 5


def test_recognised_symmetric_group_matches_closure_group():
    for n in range(1, 7):
        gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)][:n - 1]
        fast = PermGroup.from_generators(n, gens)
        slow = PermGroup(n, closure_elements(n, gens), gens)
        assert fast.is_symmetric and not slow.is_symmetric
        assert len(fast) == len(slow) == factorial(n)
        assert fast.elements == slow.elements
        assert fast.classes() == slow.classes()
        assert fast.class_representatives() == tuple(cls[0] for cls in slow.classes())
        lats = [enumerate_flats(UniformSpec(m, n - m)) for m in range(n)]
        for lat in lats:
            for profile in ([1], [2, 1], [1, 1]):
                a = equivariant_whitney_character(lat, fast, profile)
                b = equivariant_whitney_character(lat, slow, profile)
                assert list(a.values.items()) == list(b.values.items()), (n, profile)
            for i in range(1, (lat.rk_total + 1) // 2):
                a = equivariant_c_character(lat, fast, i)
                b = equivariant_c_character(lat, slow, i)
                assert a == b and a.at_identity() == b.at_identity(), (n, i)


def test_s8_characters_at_every_class():
    s8 = PermGroup.symmetric(8)
    reps = s8.class_representatives()
    assert len(s8) == 40320 and len(reps) == 22 and reps[0] == s8.identity
    # 22 distinct cycle types: every partition of 8 once
    assert len({tuple(sorted(cycle_lengths(g))) for g in reps}) == 22
    for m, d in ((2, 6), (1, 7)):
        lat = enumerate_flats(UniformSpec(m, d))
        for i in range(1, (d + 1) // 2):
            table = equivariant_c_character(lat, s8, i)
            f = equivariant_c_uniform(m, d, i)
            assert table.at_identity() == kl_coeff_closed(lat, i), (m, d, i)
            for g in reps:
                want = sum(c * young_character_value(g, lam)
                           for lam, c in f.terms.items())
                assert table.class_values[g] == want == character_value(f, g), \
                    (m, d, i, g)


def test_recognised_group_guards():
    with pytest.raises(ValueError, match="exceeds cap"):
        PermGroup.from_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=119)
    assert len(PermGroup.from_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
                                         cap=120)) == 120
    lat = enumerate_flats(GraphSpec(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    # (0 3) and the 4-cycle generate S_4; (0 3) maps the triangle off the lattice
    s4 = PermGroup.from_generators(4, [(1, 2, 3, 0), (3, 1, 2, 0)])
    assert s4.is_symmetric
    with pytest.raises(ValueError, match="off the lattice"):
        equivariant_whitney_character(lat, s4, [1])
    with pytest.raises(ValueError, match="off the lattice"):
        equivariant_c_character(lat, s4, 1)


def edge_generators(m, vertex_gens, order):
    """The point permutations that vertex permutations induce on the edges
    of K_m, where point k is the edge order[k]."""
    index = {e: k for k, e in enumerate(order)}
    return [tuple(index[tuple(sorted((g[a], g[b])))] for a, b in order)
            for g in vertex_gens]


def edge_orders(m, seeds):
    """Sorted edges with points 0 and 1 disjoint edges, so the orbital of
    disjoint pairs is met first (at m = 7 it has the size of the "shares a
    vertex" orbital, 105, and only the star check rejects it); then seeded
    shuffles."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    k = pairs.index((2, 3))
    pairs[1], pairs[k] = pairs[k], pairs[1]
    orders = [pairs]
    for seed in seeds:
        rng = random.Random(seed)
        orders.append(rng.sample(pairs, len(pairs)))
    return orders


@pytest.mark.parametrize("m, seeds", [(5, range(3)), (6, range(2)), (7, range(1))])
def test_edge_action_recognised_and_matches_closure(m, seeds):
    n = m * (m - 1) // 2
    vertex_gen_sets = [
        [(1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)],
        [tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, m)) for k in range(m - 1)],
        benchmark_style_generators(m, m),
    ]
    if m == 7:      # 5040 elements: the closure is the cost of the test
        del vertex_gen_sets[1]
    for order in edge_orders(m, seeds):
        for vertex_gens in vertex_gen_sets:
            gens = edge_generators(m, vertex_gens, order)
            fast = PermGroup.from_generators(n, gens)
            reps = fast.class_representatives()
            assert fast._elements is None and not fast.is_symmetric
            assert len(fast) == factorial(m) and reps[0] == fast.identity
            slow = PermGroup(n, closure_elements(n, gens), gens)
            assert len(fast) == len(slow)
            assert fast.elements == slow.elements
            classes = fast.classes()
            assert {frozenset(c) for c in classes} == {frozenset(c) for c in slow.classes()}
            assert tuple(c[0] for c in classes) == reps


def test_edge_action_characters_need_no_element_list():
    for m in (5, 6):
        lat = enumerate_flats(lattice_spec(BRAID, m - 1))
        group = edge_action_group(m)
        assert len(group.class_representatives()) == {5: 7, 6: 11}[m]
        p = kl_family(build_tables(BRAID, m - 1), m - 1)
        for i in range(1, m // 2):
            assert equivariant_c_character(lat, group, i).at_identity() == p.coefficient(i)
        table = equivariant_whitney_character(lat, group, [2, 1])
        assert table.at_identity() == whitney_multi(lat, [2, 1])
        assert group._elements is None, m


def test_k5_edge_characters_against_brute_force():
    lat = enumerate_flats(lattice_spec(BRAID, 4))
    group = edge_action_group(5)
    assert group._elements is None and len(group) == 120
    tuples = enumerate_index_tuples(1, lat.rk_total)
    c1 = equivariant_c_character(lat, group, 1)
    assert len(group.elements) == 120
    for g in group.elements:
        assert c1.values[g] == sum(tup.sign * brute_fixed_chains(lat, g, tup.profile())
                                   for tup in tuples), g
    for profile in ([1], [2, 1], [1, 1], [3, 1]):
        table = equivariant_whitney_character(lat, group, profile)
        for g in group.elements:
            assert table.values[g] == brute_fixed_chains(lat, g, profile), (profile, g)
    assert group.conjugacy_respects(c1.values)


def test_groups_near_the_edge_action_take_the_closure():
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    # (4 5) on the 3+3 splits of {0..5}, the split {5, a, b} | rest named by
    # the edge ab of K5: it fixes the edges at vertex 4 and swaps opposite
    # edges of the K4 on {0..3}, which no vertex permutation does; with
    # S_5 it generates S_6 acting on the splits
    outer = tuple(pairs.index(e if 4 in e else tuple(sorted(set(range(4)) - set(e))))
                  for e in pairs)
    cases = [
        (10, edge_generators(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], pairs), 60),   # A_5
        (10, edge_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], pairs) + [outer], 720),
        (10, [tuple(range(1, 10)) + (0,)], 10),
        (6, list(edge_action_group(4).generators), 24),
    ]
    for n, gens, order in cases:
        group = PermGroup.from_generators(n, gens)
        assert group._elements is not None, order      # listed by the closure
        assert len(group) == len(closure_elements(n, gens)) == order


def test_edge_action_cap_names_the_group_order():
    # S_10 on the 45 edges of K10 is recognised, and 10! exceeds the cap
    # before any element is listed
    gens = edge_generators(10, [(1, 0) + tuple(range(2, 10)), tuple(range(1, 10)) + (0,)],
                           [(i, j) for i in range(10) for j in range(i + 1, 10)])
    with pytest.raises(ValueError, match="group order 3628800 exceeds cap"):
        PermGroup.from_generators(45, gens)
    assert len(PermGroup.from_generators(45, gens, cap=factorial(10))) == factorial(10)


def test_fixed_chains_counted_once_per_lattice(monkeypatch):
    import zpoly.equivariant as eq
    spec = lattice_spec(BRAID, 5)
    lat = enumerate_flats(spec)
    group = edge_action_group(6)
    calls = []
    real = eq._fixed_flags

    def counted(lat, g):
        calls.append(g)
        return real(lat, g)

    monkeypatch.setattr(eq, "_fixed_flags", counted)
    equivariant_c_character(lat, group, 1)
    assert sorted(calls) == sorted(group.class_representatives())
    calls.clear()
    c2 = equivariant_c_character(lat, group, 2)
    equivariant_whitney_character(lat, group, [2, 1])
    assert calls == []
    fresh = equivariant_c_character(enumerate_flats(spec), group, 2)
    assert c2.class_values == fresh.class_values


def test_cached_counts_hold_one_entry_per_anchor():
    # plain counts live at the orbit positions, one entry per orbit;
    # every other class's fixed-chain counts at the flats it fixes
    k6 = enumerate_flats(lattice_spec(BRAID, 5))
    group = edge_action_group(6)
    for i in (1, 2, 3):
        equivariant_c_character(k6, group, i)
    k8 = enumerate_flats(lattice_spec(BRAID, 7))
    for i in (1, 2, 3):
        kl_coeff_closed(k8, i)
    assert k8.n_orbits < k8.n and k6.n_orbits < k6.n
    cached = [(k8.n_orbits, k8._cache["whitney"])]
    spaces = k6._cache["fixed_chains"]
    assert len(spaces) == len(group.class_representatives())
    for g, space in spaces.items():
        fixed = sum(sum(1 << g[e] for e in range(k6.n_ground) if m >> e & 1) == m
                    for m in k6.flats)
        assert (space is k6._cache["whitney"]) == (g == group.identity) == (fixed == k6.n)
        cached.append((k6.n_orbits if fixed == k6.n else fixed, space))
    for entries, (ranks, rows, memo) in cached:
        assert len(ranks) == len(rows) == entries and ranks[0] == 0 and memo
        assert all(len(vec) == entries for vec in memo.values())


def k4_spanning_trees():
    """ExplicitBases of the graphic matroid of K4: the 3-edge sets that are
    not triangles.  A bases lattice carries no symmetry."""
    pairs = lattice_spec(BRAID, 3).edges
    return ExplicitBases(6, [t for t in combinations(range(6), 3)
                             if len({v for k in t for v in pairs[k]}) == 4])


# a 4-cycle with edge 01 doubled: swapping the parallel pair fixes every
# flat, and the reflection 0 <-> 1, 2 <-> 3 swaps edges 12 and 30
SQUARE_WITH_PARALLEL = GraphSpec(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize("spec, make_group", [
    (UniformSpec(2, 4), lambda lat: PermGroup.symmetric(6)),
    (SQUARE_WITH_PARALLEL,
     lambda lat: PermGroup.from_generators(5, [(1, 0, 2, 3, 4), (0, 1, 4, 3, 2)])),
    (lattice_spec(TYPE_B, 3), lambda lat: PermGroup.from_generators(9, lat.symmetry)),
    (k4_spanning_trees(), lambda lat: edge_action_group(4)),
], ids=["U(2,4)/S6", "parallel-swap", "typeB3/signed", "K4-bases/S4"])
def test_fixed_chains_against_brute_force_at_every_element(spec, make_group):
    # each class is counted on its own fixed flats, or on the plain counts
    # when it fixes every flat; every element must see its own fixed chains
    lat = enumerate_flats(spec)
    group = make_group(lat)
    assert len(group.class_representatives()) > 1
    tuples = enumerate_index_tuples(1, lat.rk_total)
    c1 = equivariant_c_character(lat, group, 1)
    for g in group.elements:
        assert c1.values[g] == sum(tup.sign * brute_fixed_chains(lat, g, tup.profile())
                                   for tup in tuples), g
    for profile in ([0], [1], [2, 1], [1, 1], [3, 1], [2, 1, 0]):
        table = equivariant_whitney_character(lat, group, profile)
        for g in group.elements:
            assert table.values[g] == brute_fixed_chains(lat, g, profile), (profile, g)


@pytest.mark.parametrize("spec", [lattice_spec(BRAID, 5), UniformSpec(2, 5)],
                         ids=["K6", "U(2,5)"])
def test_identity_counts_build_only_the_representatives_up_sets(spec):
    # the identity fixes every flat, so it reads the plain counts, which
    # live at the orbit representatives
    lat = enumerate_flats(spec)
    assert lat.n_orbits < lat.n
    for i in (1, 2):
        c = equivariant_c_character(lat, PermGroup.trivial(lat.n_ground), i)
        assert c.at_identity() == kl_coeff_closed(lat, i)
    assert set(lat.uppers().keys()) <= set(lat.orbit_size)


def test_k8_edge_characters_pinned():
    # c(1), c(2), c(3) of K8 under S8 on its edges, by the cycle type of the
    # vertex permutation, as counted over the whole lattice at every class
    pinned = {
        (1,) * 8: (99, 1225, 735), (2,) + (1,) * 6: (47, 255, 75),
        (2, 2, 1, 1, 1, 1): (23, 73, 15), (3, 1, 1, 1, 1, 1): (21, 40, 0),
        (2, 2, 2, 1, 1): (11, 39, 19), (3, 2, 1, 1, 1): (11, 12, 0),
        (4, 1, 1, 1, 1): (9, 11, 3), (2, 2, 2, 2): (11, 57, 47), (3, 2, 2, 1): (5, 4, 0),
        (3, 3, 1, 1): (6, 7, 3), (4, 2, 1, 1): (5, 9, 3), (5, 1, 1, 1): (4, 0, 0),
        (3, 3, 2): (2, 3, -3), (4, 2, 2): (5, 11, 3), (4, 3, 1): (3, 2, 0),
        (5, 2, 1): (2, 0, 0), (6, 1, 1): (2, 3, 1), (4, 4): (3, 5, 3), (5, 3): (1, 0, 0),
        (6, 2): (2, 3, -1), (7, 1): (1, 0, 0), (8,): (1, 1, 1),
    }
    spec = lattice_spec(BRAID, 7)
    lat = enumerate_flats(spec)
    group = edge_action_group(8)
    tables = [equivariant_c_character(lat, group, i) for i in (1, 2, 3)]
    stars = [frozenset(k for k, e in enumerate(spec.edges) if v in e) for v in range(8)]
    got = {}
    for g in group.class_representatives():
        sigma = [stars.index(frozenset(g[k] for k in star)) for star in stars]
        got[tuple(sorted(cycle_lengths(sigma), reverse=True))] = tuple(
            table.class_values[g] for table in tables)
    assert got == pinned


@pytest.mark.parametrize("lat, group", [
    (enumerate_flats(UniformSpec(1, 3)), PermGroup.symmetric(4)),
    (enumerate_flats(lattice_spec(BRAID, 3)), edge_action_group(4)),
], ids=["U(1,3)/S4", "K4/S4"])
def test_fixed_chains_on_edge_case_profiles(lat, group):
    # non-monotone, repeated and out-of-range coranks
    for profile in ([1, 2], [2, 2], [lat.rk_total + 1], [-1]):
        table = equivariant_whitney_character(lat, group, profile)
        for g in group.elements:
            assert table.values[g] == brute_fixed_chains(lat, g, profile), (profile, g)


K4 = lattice_spec(BRAID, 3)


@pytest.mark.parametrize("call", [
    lambda: whitney_multi(enumerate_flats(K4), [1.9]),
    lambda: whitney_multi_family(build_tables(BRAID, 3), 3, ["1"]),
    lambda: equivariant_whitney_character(enumerate_flats(K4), edge_action_group(4), [1.0]),
    lambda: equivariant_whitney_uniform(1, 3, [1.5]),
    lambda: h_product([2.7, 1]),
    lambda: SymFunction("h", 3, {(2, 1): 1.5}),
    lambda: PermGroup.from_generators(3, [(1.0, 0, 2)]),
], ids=["whitney_multi", "whitney_multi_family", "equivariant_whitney_character",
        "equivariant_whitney_uniform", "partition", "SymFunction", "from_generators"])
def test_entry_points_reject_non_integers(call):
    # int() would truncate 1.9 to a corank-1 count and parse the string '1'
    with pytest.raises(TypeError):
        call()


S3 = list(permutations(range(3)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: PermGroup(3, [(0, 1, 2), (1, 2, 0)]), ValueError, "not the closure"),
    (lambda: PermGroup(3, [(0, 1, 2), (0, 0, 1)]), ValueError, "not a permutation"),
    (lambda: PermGroup(3, [(0, 1, 2), (1, 0, 2), (1, 2, 0)]), ValueError, "not the closure"),
    (lambda: PermGroup(3, S3, [(1, 0, 2)]), ValueError, "not the closure"),
    (lambda: contraction(enumerate_flats(K4), 1.5), TypeError, "interpreted as an integer"),
    (lambda: localization(enumerate_flats(K4), 1.5), TypeError, "interpreted as an integer"),
    (lambda: kl_coeff_new_recursion(enumerate_flats(K4), 1.5), TypeError,
     "interpreted as an integer"),
    (lambda: SymFunction("x", 2), ValueError, "basis must be 'h' or 's'"),
    (lambda: SymFunction("h", 3, {(2,): 1}), ValueError, r"partition \(2,\) is not of size 3"),
    (lambda: h_product([2]) + SymFunction("s", 2), ValueError, "same basis and degree"),
    (lambda: h_product([2]) - h_product([3]), ValueError, "same basis and degree"),
    (lambda: character_value(SymFunction("s", 2, {(2,): 1}), (1, 0)), ValueError,
     "h-basis function of degree"),
    (lambda: character_value(h_product([2]), (0, 1, 2)), ValueError,
     "h-basis function of degree"),
    (lambda: equivariant_whitney_uniform(-1, 3, [1]), ValueError, "need m >= 0"),
    (lambda: equivariant_c_character(enumerate_flats(K4), PermGroup.symmetric(5), 1),
     ValueError, "group degree does not match ground set size"),
], ids=["missing-square", "non-permutation", "not-closed", "generators-too-few",
        "contraction", "localization", "kl_coeff_new_recursion", "basis", "partition-size",
        "add-across-bases", "subtract-across-degrees", "character-of-s-basis",
        "character-of-wrong-degree", "whitney-uniform-negative-m", "group-degree"])
def test_library_inputs_are_checked(call, error, message):
    # an element list must be exactly the closure of the generators (the
    # elements themselves when none are given), and ids and indices are ints
    with pytest.raises(error, match=message):
        call()


def test_character_value_against_words():
    # h[1^12] at the identity counts the orderings of 12 points
    assert character_value(h_product([1] * 12), tuple(range(12))) == factorial(12)
    for n in range(7):
        by_type = {tuple(sorted(cycle_lengths(g))): g for g in permutations(range(n))}
        for g in by_type.values():
            for lam in partitions_of(n):
                assert character_value(h_product(lam), g) == young_character_by_words(lam, g), \
                    (lam, g)
