"""Randomized structural cross-checks: the four computation routes, the
palindromic symmetry, and the Whitney recursion must agree on arbitrary
matroids, not just the named corpus."""

import random
from collections import Counter
from itertools import combinations

from hypothesis import given, settings, strategies as st

from oracles import chain_count_naive, graph_rank, z_naive
from zpoly import (BRAID, TYPE_B, ExplicitFlats, FlatLattice, GraphSpec, IntPolynomial, KlMethod,
                   LinearVectors, UniformSpec, build_tables, conjecture_sweep, contraction,
                   enumerate_flats, is_palindromic, kl_by_method, kl_coeff_closed,
                   kl_coeff_new_recursion, kl_defining, kl_family, kl_via_mobius, lattice_spec,
                   localization, mobius_from_bottom, qvec_flats, uniform_family, whitney_multi,
                   z_family, z_polynomial)
from zpoly.klz import _defining_table, _p_table, _signed_profiles
from zpoly.matroid import (_bits, _enumerate_by_covers, _graph_oracle, _graph_symmetry,
                           _uniform_oracle, _vectors_oracle, _vectors_symmetry, bareiss_rank)


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


def _assert_orbit_path_is_full_path(lat):
    """Both P/Z tables of a lattice solved on orbits equal, at every flat,
    those of the same flats given as ExplicitFlats, which carry no symmetry."""
    full = enumerate_flats(ExplicitFlats(lat.n_ground, [lat.flat_elements(f)
                                                        for f in range(lat.n)]))
    assert full.flats == lat.flats and full.n_orbits == full.n
    assert full.covers == lat.covers and full.uppers() == lat.uppers()
    assert _p_table(lat) == _p_table(full)
    assert _defining_table(lat) == _defining_table(full)


def test_orbit_path_equals_full_path_on_braid_and_uniform():
    partitions = {4: 5, 5: 7, 6: 11, 7: 15, 8: 22}     # p(n): the orbits of K_n
    for nv, orbits in partitions.items():
        lat = enumerate_flats(lattice_spec(BRAID, nv - 1))
        assert lat.n_orbits == orbits, nv
        _assert_orbit_path_is_full_path(lat)
    for m in range(10):
        for d in range(10 - m):
            lat = enumerate_flats(UniformSpec(m, d))
            assert lat.n_orbits == d + 1, (m, d)       # one per rank
            _assert_orbit_path_is_full_path(lat)


def test_pz_table_reads_only_the_representatives_up_sets():
    # twins 2 and 3, joined, and a doubled edge 01
    twins = GraphSpec(4, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 3), (0, 2), (0, 3)])
    for spec in (lattice_spec(BRAID, 5), UniformSpec(2, 5), lattice_spec(TYPE_B, 4), twins):
        lat = enumerate_flats(spec)
        assert lat.n_orbits < lat.n, spec
        want = _p_table(lat)
        ups = lat.uppers()
        for f in range(lat.n):
            if lat.orbit_rep[f] != f:
                ups[f] = []
        del lat._cache["pz"]
        assert _p_table(lat) == want, spec
        f = next(f for f in lat.orbit_size if f != lat.bottom_id and ups[f])
        ups[f] = ups[f][:-1]
        del lat._cache["pz"]
        assert _p_table(lat) != want, spec


def test_defining_route_reads_only_the_representatives_up_sets():
    # the verifier counts orbits in the representatives' rows: it builds no
    # other row, poisoned other rows leave its table as it was, and a pair
    # dropped from a representative's row changes P or fails a check
    twins = GraphSpec(4, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 3), (0, 2), (0, 3)])
    for spec in (lattice_spec(BRAID, 6), UniformSpec(2, 5), lattice_spec(TYPE_B, 4), twins):
        lat = enumerate_flats(spec)
        assert lat.n_orbits < lat.n, spec
        want = _defining_table(lat)
        ups = lat.uppers()
        assert set(ups.keys()) <= set(lat.orbit_size), spec
        for f in range(lat.n):
            if lat.orbit_rep[f] != f:
                ups[f] = []
        assert _defining_table(lat) == want, spec
        for f in lat.orbit_size:
            row = ups[f]
            if not row:
                continue
            ups[f] = row[:-1]
            lat._cache.pop("mobius", None)
            try:
                changed = _defining_table(lat)[0] != want[0]
            except RuntimeError:
                changed = True
            assert changed, (spec, f)
            ups[f] = row


def test_lattice_routes_read_only_the_walk_roots_covers():
    # the enumerator gives the covers of one flat per orbit, and no route
    # reads another flat's: the cover store still holds only those rows
    # after every route has run, and no generator's permutation of the
    # flats was built to map one; validate() then builds and checks them
    # all, through permutations that send each flat to the flat holding the
    # images of its elements
    for spec in (lattice_spec(BRAID, 7), UniformSpec(2, 5), lattice_spec(TYPE_B, 4)):
        lat = enumerate_flats(spec)
        assert len(lat.covers.keys()) == lat.n_orbits < lat.n, spec
        mobius_from_bottom(lat)
        kl_defining(lat)
        z_polynomial(lat)
        kl_via_mobius(lat)
        for i in range(1, (lat.rk_total + 1) // 2):
            assert kl_coeff_new_recursion(lat, i) == kl_coeff_closed(lat, i), (spec, i)
        # a negative id counts from the end, as in a tuple of rows
        assert (lat.covers[-1], lat.covers[-lat.n]) == (lat.covers[lat.top_id], lat.covers[0])
        assert len(lat.covers.keys()) == lat.n_orbits, spec
        assert len(lat.flat_permutations.keys()) == 0 < len(lat.symmetry), spec
        lat.validate()
        assert len(lat.covers.keys()) == lat.n, spec
        assert len(lat.flat_permutations.keys()) > 0, spec
        flat_of = {frozenset(lat.flat_elements(f)): f for f in range(lat.n)}
        for j, perm in lat.flat_permutations.items():
            g = lat.symmetry[j]
            assert perm == [flat_of[frozenset(g[e] for e in lat.flat_elements(f))]
                            for f in range(lat.n)], (spec, j)


def test_k10_defining_route_and_z_equal_family():
    # 115,975 flats: the verifier and the table read the up-sets of the 42
    # orbit representatives only, not the 16.6 million pairs of every flat
    lat = enumerate_flats(lattice_spec(BRAID, 9))
    assert (lat.n, lat.n_orbits) == (115975, 42)
    tables = build_tables(BRAID, 9)
    assert kl_defining(lat) == kl_family(tables, 9)
    assert z_polynomial(lat) == z_family(tables, 9)
    assert set(lat.uppers().keys()) <= set(lat.orbit_size)


@st.composite
def twin_multigraphs(draw):
    """A multigraph on up to 4 vertices with loops and parallel edges, then
    1-3 clones: a clone copies one vertex's loops and edges and is
    joined to it by 0-2 edges, which makes the two twins.  Edge order and
    orientation are shuffled.  From a seeded random source."""
    rnd = draw(st.randoms(use_true_random=False))
    vertices = rnd.randint(1, 4)
    edges = []
    for _ in range(rnd.randint(0, 8)):
        u, v = rnd.randrange(vertices), rnd.randrange(vertices)
        edges += [(u, v)] * rnd.choice((1, 1, 2))
    for _ in range(rnd.randint(1, 3)):
        v, c = rnd.randrange(vertices), vertices
        vertices += 1
        edges += [(c if a == v else a, c if b == v else b) for a, b in edges if v in (a, b)]
        edges += [(v, c)] * rnd.randint(0, 2)
    rnd.shuffle(edges)
    return GraphSpec(vertices, [e if rnd.random() < 0.5 else e[::-1] for e in edges])


@given(twin_multigraphs())
@settings(max_examples=60, deadline=None)
def test_orbit_path_equals_full_path_on_twin_multigraphs(spec):
    _assert_orbit_path_is_full_path(enumerate_flats(spec))


def _assert_orbit_enumeration_is_full_enumeration(spec, oracle):
    """Enumerated one orbit at a time, the lattice of spec equals the one
    its cover oracle gives without symmetry, up-sets included."""
    lat = enumerate_flats(spec)
    full = _enumerate_by_covers(lat.n_ground, *oracle, None, ())
    assert (lat.flats, lat.ranks, lat.covers) == (full.flats, full.ranks, full.covers)
    assert lat.uppers() == full.uppers()


def test_orbit_enumeration_equals_full_enumeration_on_braid_and_uniform():
    for nv in range(4, 9):
        spec = lattice_spec(BRAID, nv - 1)
        _assert_orbit_enumeration_is_full_enumeration(spec, _graph_oracle(spec))
    for m in range(10):
        for d in range(10 - m):
            spec = UniformSpec(m, d)
            _assert_orbit_enumeration_is_full_enumeration(spec, _uniform_oracle(spec))


@given(twin_multigraphs())
@settings(max_examples=60, deadline=None)
def test_orbit_enumeration_equals_full_enumeration_on_twin_multigraphs(spec):
    _assert_orbit_enumeration_is_full_enumeration(spec, _graph_oracle(spec))


@given(twin_multigraphs())
@settings(max_examples=60, deadline=None)
def test_twin_symmetry_maps_flats_to_flats(spec):
    # the enumerator inserts each generator's image of a flat unchecked;
    # here every image must be closed: any edge added raises the rank
    full = _enumerate_by_covers(len(spec.edges), *_graph_oracle(spec), None, ())
    rank = graph_rank(spec.vertices, spec.edges)
    for g in _graph_symmetry(spec):
        for f in range(full.n):
            image = {g[e] for e in full.flat_elements(f)}
            r = rank(image)
            assert all(rank(image | {e}) > r for e in range(len(g)) if e not in image), (g, f)


@given(twin_multigraphs())
@settings(max_examples=60, deadline=None)
def test_every_twin_transposition_is_found(spec):
    # twins by definition: equal loop counts and equal multiplicity to every
    # other vertex.  The orbits of the symmetry-free lattice's flats under
    # all twin transpositions, each mapping the k-th edge between two
    # vertices to the k-th edge between their images, are the lattice's
    full = _enumerate_by_covers(len(spec.edges), *_graph_oracle(spec), None, ())
    index = {m: i for i, m in enumerate(full.flats)}
    slots = {}
    for e, (u, v) in enumerate(spec.edges):
        slots.setdefault(tuple(sorted((u, v))), []).append(e)
    mult = Counter(tuple(sorted(e)) for e in spec.edges)
    images = []
    for u, v in combinations(range(spec.vertices), 2):
        others = [w for w in range(spec.vertices) if w not in (u, v)]
        if mult[u, u] != mult[v, v] or any(
                mult[tuple(sorted((u, w)))] != mult[tuple(sorted((v, w)))] for w in others):
            continue
        swap = {u: v, v: u}
        g = list(range(len(spec.edges)))
        for (a, b), ids in slots.items():
            for e, t in zip(ids, slots[tuple(sorted((swap.get(a, a), swap.get(b, b))))]):
                g[e] = t
        images.append([index[sum(1 << g[e] for e in full.flat_elements(f))]
                       for f in range(full.n)])
    seen, orbits = set(), 0
    for f in range(full.n):
        if f not in seen:
            orbits += 1
            seen.add(f)
            stack = [f]
            while stack:
                x = stack.pop()
                for image in images:
                    if image[x] not in seen:
                        seen.add(image[x])
                        stack.append(image[x])
    assert enumerate_flats(spec).n_orbits == orbits, spec


def _root_vectors(kind: str, d: int) -> list:
    """e_i - e_j (type A), e_i +- e_j (type D), and those with every e_i
    (type B), in dimension d."""
    out = [tuple(int(k == i) for k in range(d)) for i in range(d)] if kind == "B" else []
    for i, j in combinations(range(d), 2):
        for sign in (-1,) if kind == "A" else (-1, 1):
            out.append(tuple(1 if k == i else sign if k == j else 0 for k in range(d)))
    return out


# orbits of their flats under all the signed coordinate permutations that
# keep each configuration: p(d) for type A and sum_{j <= d} p(j) for type B
ROOT_ORBITS = {("A", 2): 2, ("A", 3): 3, ("A", 4): 5, ("A", 5): 7,
               ("B", 1): 2, ("B", 2): 4, ("B", 3): 7, ("B", 4): 12, ("B", 5): 19,
               ("D", 2): 3, ("D", 3): 5, ("D", 4): 9, ("D", 5): 14}


def _scrambled(rnd: random.Random, kind: str, vectors) -> list:
    """The vectors under a random coordinate permutation, with random
    coordinate signs for types B and D (they keep the other two types but
    not type A, where _vectors_symmetry would find fewer symmetries), each
    vector scaled by one of +-1, +-2, +-3, in shuffled order."""
    d = len(vectors[0])
    coord = rnd.sample(range(d), d)
    signs = [1 if kind == "A" else rnd.choice((-1, 1)) for _ in range(d)]
    out = []
    for v in vectors:
        scale = rnd.choice((-3, -2, -1, 1, 2, 3))
        w = [0] * d
        for i, x in enumerate(v):
            w[coord[i]] = signs[i] * scale * x
        out.append(tuple(w))
    rnd.shuffle(out)
    return out


def test_orbit_path_equals_full_path_on_root_systems():
    rnd = random.Random(0)
    for (kind, d), orbits in ROOT_ORBITS.items():
        vectors = _root_vectors(kind, d)
        for vectors in [vectors, _scrambled(rnd, kind, vectors), _scrambled(rnd, kind, vectors)]:
            spec = LinearVectors(vectors)
            _assert_orbit_enumeration_is_full_enumeration(spec, _vectors_oracle(spec.vectors))
            lat = enumerate_flats(spec)
            assert lat.n_orbits == orbits, (kind, d, vectors)
            _assert_orbit_path_is_full_path(lat)


@st.composite
def scrambled_root_systems(draw):
    """(vectors, orbits): a type A, B or D configuration of dimension at
    most 4, scrambled, with 0-2 zero vectors and either every vector, one
    vector or none copied once more (each copy scaled on its own), in
    shuffled order.  orbits is the expected orbit count when the line
    multiplicities stay equal, else None.  From a seeded random source."""
    rnd = draw(st.randoms(use_true_random=False))
    kind, d = rnd.choice([key for key in ROOT_ORBITS if key[1] <= 4])
    vectors = _scrambled(rnd, kind, _root_vectors(kind, d))
    copies = rnd.choice(("all", "one", "none"))
    extra = vectors if copies == "all" else [rnd.choice(vectors)] if copies == "one" else []
    scales = rnd.choices((-2, -1, 1, 3), k=len(extra))
    vectors += [tuple(k * x for x in v) for v, k in zip(extra, scales)]
    vectors += [(0,) * d] * rnd.randint(0, 2)
    rnd.shuffle(vectors)
    return vectors, ROOT_ORBITS[kind, d] if copies != "one" else None


@given(scrambled_root_systems())
@settings(max_examples=40, deadline=None)
def test_orbit_path_equals_full_path_on_scrambled_root_systems(case):
    vectors, orbits = case
    spec = LinearVectors(vectors)
    _assert_orbit_enumeration_is_full_enumeration(spec, _vectors_oracle(spec.vectors))
    lat = enumerate_flats(spec)
    assert orbits is None or lat.n_orbits == orbits
    _assert_orbit_path_is_full_path(lat)


@given(scrambled_root_systems())
@settings(max_examples=30, deadline=None)
def test_vector_symmetry_maps_flats_to_flats(case):
    # the enumerator inserts each generator's image of a flat unchecked;
    # here every image must be closed: any element added raises the rank
    vectors, _ = case
    full = _enumerate_by_covers(len(vectors), *_vectors_oracle(vectors), None, ())

    def rank(elements):
        return bareiss_rank([vectors[e] for e in elements])

    for g in _vectors_symmetry(vectors):
        assert sorted(g) == list(range(len(vectors))), g
        for f in range(full.n):
            image = {g[e] for e in full.flat_elements(f)}
            r = rank(image)
            assert all(rank(image | {e}) > r for e in range(len(g)) if e not in image), (g, f)


def test_qvec_orbit_enumeration_equals_full_enumeration():
    for q, d_max in ((2, 6), (3, 4), (5, 2), (7, 2)):        # q^d <= 81
        for d in range(d_max + 1):
            vectors = [tuple(code // q ** k % q for k in range(d)) for code in range(1, q ** d)]
            oracle = _vectors_oracle(vectors, q)
            lat = _enumerate_by_covers(len(vectors), *oracle, None, _vectors_symmetry(vectors, q))
            full = _enumerate_by_covers(len(vectors), *oracle, None, ())
            assert (lat.flats, lat.ranks, lat.covers) == (full.flats, full.ranks, full.covers)
            assert lat.uppers() == full.uppers()
            assert d < 2 or lat.n_orbits < lat.n, (q, d)
            assert qvec_flats(q, d) == (len(vectors),
                                        tuple(frozenset(_bits(m)) for m in full.flats))


def _assert_walk_entry_points_agree(n, oracle, symmetry):
    """The enumerator gives the covers of one flat per orbit and leaves the
    orbit walk to map them; the same lattice rebuilt with every cover
    given, and the flat images computed, has the same covers, orbits and
    up-sets.  The cover oracle runs once per orbit."""
    bottom, covers_of = oracle
    calls = []

    def counted(mask, state):
        calls.append(mask)
        return covers_of(mask, state)

    lat = _enumerate_by_covers(n, bottom, counted, None, symmetry)
    assert None not in lat.covers
    again = FlatLattice(lat.flats, lat.ranks, lat.covers, lat.n_ground, lat.symmetry)
    assert (again.covers, again.orbit_rep, list(again.orbit_size.items())) == (
        lat.covers, lat.orbit_rep, list(lat.orbit_size.items()))
    assert again.uppers() == lat.uppers()
    assert len(calls) == lat.n_orbits


def test_walk_entry_points_agree_on_braid_typeb_and_f3():
    for nv in range(4, 9):
        spec = lattice_spec(BRAID, nv - 1)
        _assert_walk_entry_points_agree(len(spec.edges), _graph_oracle(spec),
                                        _graph_symmetry(spec))
    for d in range(6):
        vectors = lattice_spec(TYPE_B, d).vectors
        _assert_walk_entry_points_agree(len(vectors), _vectors_oracle(vectors),
                                        _vectors_symmetry(vectors))
    rnd = random.Random(3)
    f3 = [tuple(code // 3 ** k % 3 for k in range(3)) for code in range(27)]
    configurations = [[v[:d] for v in f3[1:3 ** d]] for d in range(4)]
    configurations += [rnd.choices(f3, k=rnd.randint(1, 12)) for _ in range(20)]
    for vectors in configurations:
        _assert_walk_entry_points_agree(len(vectors), _vectors_oracle(vectors, 3),
                                        _vectors_symmetry(vectors, 3))


@given(twin_multigraphs())
@settings(max_examples=60, deadline=None)
def test_walk_entry_points_agree_on_twin_multigraphs(spec):
    _assert_walk_entry_points_agree(len(spec.edges), _graph_oracle(spec), _graph_symmetry(spec))


def _assert_orbit_sweeps_are_full_sweeps(lat):
    """Mobius values, the Whitney number of every closed-formula profile,
    every closed-formula coefficient and the defining table of a lattice
    swept on orbits equal those of its flats given as ExplicitFlats, which
    carry no symmetry."""
    full = enumerate_flats(ExplicitFlats(lat.n_ground, [lat.flat_elements(f)
                                                        for f in range(lat.n)]))
    assert full.flats == lat.flats and full.n_orbits == full.n
    assert mobius_from_bottom(lat) == mobius_from_bottom(full)
    rk = lat.rk_total
    for i in range(1, rk // 2 + 2):
        for _, profile in _signed_profiles(i, rk):
            assert whitney_multi(lat, profile) == whitney_multi(full, profile), profile
        assert kl_coeff_closed(lat, i) == kl_coeff_closed(full, i), i
    assert _defining_table(lat) == _defining_table(full)


def test_orbit_sweeps_equal_full_sweeps_on_braid_and_uniform():
    for nv in range(4, 9):
        lat = enumerate_flats(lattice_spec(BRAID, nv - 1))
        assert lat.n_orbits < lat.n
        _assert_orbit_sweeps_are_full_sweeps(lat)
    for m in range(10):
        for d in range(10 - m):
            _assert_orbit_sweeps_are_full_sweeps(enumerate_flats(UniformSpec(m, d)))


@given(twin_multigraphs())
@settings(max_examples=60, deadline=None)
def test_orbit_sweeps_equal_full_sweeps_on_twin_multigraphs(spec):
    _assert_orbit_sweeps_are_full_sweeps(enumerate_flats(spec))


def test_k9_orbit_tables_equal_family():
    lat = enumerate_flats(lattice_spec(BRAID, 8))
    assert (lat.n, lat.n_orbits) == (21147, 30)
    tables = build_tables(BRAID, 8)
    P, Z = _p_table(lat)
    P_def, Z_def = _defining_table(lat)
    assert P[0] == P_def[0] == kl_family(tables, 8).coeffs
    assert Z[0] == Z_def[0] == z_family(tables, 8).coeffs

def test_typeb_d7_orbit_tables_equal_family():
    lat = enumerate_flats(lattice_spec(TYPE_B, 7))
    assert (lat.n, lat.n_orbits) == (28640, 45)         # sum_{j <= 7} p(j) = 45
    tables = build_tables(TYPE_B, 7)
    P, Z = _p_table(lat)
    P_def, Z_def = _defining_table(lat)
    assert P[0] == P_def[0] == kl_family(tables, 7).coeffs
    assert Z[0] == Z_def[0] == z_family(tables, 7).coeffs


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
