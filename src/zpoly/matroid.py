"""Lattices of flats: construction from several matroid encodings and the
poset computations everything else is built on (Mobius values, characteristic
polynomials, multi-indexed Whitney numbers).  One breadth-first cover
enumerator builds every encoding's lattice, explicit flat lists included;
one multichain counter serves plain and equivariant fixed-chain counts.
A symmetric lattice is built orbit by orbit, with the symmetry its
encoding shows: any permutation of a uniform matroid's ground set, and for
graphs and vector configurations one finder's permutations of coordinates
whose transpositions keep the slots of the ground set: a graph's twin
vertices, which keep the edges keyed by endpoints, and a configuration's
coordinates, with sign changes (scalings over F_p), that keep its lines.
The cover oracle runs at one flat per orbit, and the enumerator's walk of
each orbit, kept as the lattice's tree, gives the other flats the symmetry
images of the covers and up-sets of the flat they were reached from; each
such row, and each generator's permutation of the flats that maps it, is
built only when it is read.  Mobius values from the bottom, plain multichain
counts and P and Z are constant on orbits, so they solve at the orbit
positions of _orbit_rows, from the representatives' up-sets alone, each
counted by orbit once per lattice; a permutation's fixed-chain counts keep
one per flat it fixes.

Flats are ground-set bitmasks (Python ints), ordered by inclusion.  Closure
based enumeration always yields the geometric lattice of the simplification,
which is all the downstream computations care about: loops and parallel
elements need no special handling.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from itertools import combinations, compress, count, groupby
from math import gcd, inf, isqrt
from operator import index, itemgetter, mul
from typing import Iterable, Sequence, Union

from .polyarith import IntPolynomial


class FlatCapExceeded(ValueError):
    """Raised when enumeration would produce more flats than the caller allows."""


def _mask(elements: Iterable[int], n: int) -> int:
    m = 0
    for e in elements:
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside ground set of size {n}")
        m |= 1 << e
    return m


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list:
    """The set bits of mask, ascending: its binary digits, lowest first, as
    0/1 flags that select from the positions."""
    return [*compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))]


def _is_prime(n: int) -> bool:
    """Whether n is prime, with no search for a factor.  A prime base a <= 41
    that n does not divide and that fails (a^d != 1 and a^(d 2^r) != -1 mod
    n for every r < s, where n - 1 = d 2^s, d odd) proves n composite; a
    composite below 42 fails at a prime factor.  Passing every base proves n
    prime below psi_13 (Sorenson and Webster); above it, raises ValueError."""
    if n < 2:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    if not all(pow(a, n - 1 >> s, n) == 1 or any(pow(a, n - 1 >> s << r, n) == n - 1
                                                  for r in range(s))
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41) if a % n):
        return False
    if n >= 3317044064679887385961981:
        raise ValueError(f"cannot decide whether {n} is prime: passing every prime base up "
                         "to 41 proves primality only below 3317044064679887385961981")
    return True


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2: n if _is_prime(n), else by trial division."""
    return n if _is_prime(n) else next(k for k in range(2, isqrt(n) + 1) if n % k == 0)


def _integer(x) -> int:
    if type(x) is not int:          # int() would truncate 1.9 and read True as 1
        raise TypeError(f"{x!r} is not an integer")
    return x


@dataclass(frozen=True)
class UniformSpec:
    """Uniform matroid of rank d on m + d elements."""
    m: int
    d: int

    def __post_init__(self):
        if _integer(self.m) < 0 or _integer(self.d) < 0:
            raise ValueError("uniform matroid needs m >= 0 and d >= 0")


@dataclass(frozen=True)
class GraphSpec:
    """Graphic matroid; ground set is the edge list (loops and parallels allowed)."""
    vertices: int
    edges: tuple

    def __post_init__(self):
        if _integer(self.vertices) < 0:
            raise ValueError(f"vertices must be nonnegative, got {self.vertices}")
        object.__setattr__(self, "edges", tuple(tuple(map(_integer, e)) for e in self.edges))
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {list(e)} is not a pair of vertices")
            if not all(0 <= u < self.vertices for u in e):
                raise ValueError("edge ({},{}) outside vertex range".format(*e))


@dataclass(frozen=True)
class ExplicitBases:
    """Matroid given by its ground size and the list of bases."""
    ground: int
    bases: tuple

    def __post_init__(self):
        if _integer(self.ground) < 0:
            raise ValueError(f"ground must be nonnegative, got {self.ground}")
        object.__setattr__(self, "bases", tuple(frozenset(map(_integer, b)) for b in self.bases))
        if not self.bases:
            raise ValueError("at least one basis required")


@dataclass(frozen=True)
class LinearVectors:
    """Matroid of a list of integer vectors over Q (p = 0) or the prime field F_p."""
    vectors: tuple
    p: int = 0

    def __post_init__(self):
        p = _integer(self.p)
        if p and not _is_prime(p):
            raise ValueError(f"vectors need p = 0 (over Q) or a prime p, got p = {self.p}")
        vecs = tuple(tuple(map(_integer, v)) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if vecs and len({len(v) for v in vecs}) != 1:
            raise ValueError("vectors must share a common dimension")


@dataclass(frozen=True)
class ExplicitFlats:
    """Lattice given directly as the list of flats (subsets of the ground set)."""
    ground: int
    flats: tuple

    def __post_init__(self):
        if _integer(self.ground) < 0:
            raise ValueError(f"ground must be nonnegative, got {self.ground}")
        object.__setattr__(self, "flats", tuple(frozenset(map(_integer, f)) for f in self.flats))


MatroidSpec = Union[UniformSpec, GraphSpec, ExplicitBases, LinearVectors, ExplicitFlats]


_JSON_SPECS = {"bases": ExplicitBases, "graph": GraphSpec, "uniform": UniformSpec,
               "vectors": LinearVectors, "flats": ExplicitFlats}


def matroid_spec_from_json(obj: dict) -> MatroidSpec:
    """Decode the documented JSON matroid format (see README): the type names
    a spec class, and the other keys are the class's fields that have no
    default, all of them required.  Any other key is rejected, so a
    defaulted field (LinearVectors.p) is set from Python only.  The spec
    constructors reject numbers that are not integers."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("matroid JSON must be an object with a 'type' field")
    kind = obj["type"]
    spec = _JSON_SPECS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(f"unknown matroid type '{kind}' (expected {'|'.join(_JSON_SPECS)})")
    names = [f.name for f in fields(spec) if f.default is MISSING]
    for key in obj:
        if key != "type" and key not in names:
            raise ValueError(f"matroid JSON of type '{kind}' has unknown field {key!r}")
    try:
        return spec(*map(obj.__getitem__, names))
    except KeyError as exc:
        raise ValueError(f"matroid JSON of type '{kind}' is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"matroid JSON of type '{kind}' is malformed: {exc}") from exc


class FlatLattice:
    """The lattice of flats of a matroid.

    flats[i] is a ground-set bitmask; ids are assigned in (rank, mask) order,
    so id 0 is the bottom flat and id n-1 the top; they are given with
    ranks ascending.  Immutable after construction; the private cache only
    memoizes derived data.

    symmetry holds ground-set permutations that preserve flats, so lattice
    automorphisms.  tree = (parent, via, starts), when given, holds the
    enumerator's walk of each orbit and is trusted: the k-th orbit is given
    together from position starts[k] on, and each of its other flats y was
    reached from parent[y] by generator via[y]; only the first flat of an
    orbit needs its covers given.  Without a tree every flat's covers are
    given, the lattice walks the orbits itself (_orbit_walks), and an error
    names a flat a generator maps off the lattice.  covers is a _Rows: a
    walk root keeps its given covers, and any other row is the image of
    its tree parent's, made on first read, as is flat_permutations[j],
    generator j's permutation of the flat ids, that maps it.
    orbit_rep[f] is the last id in the orbit of flat f under the group
    they generate; the ids of an orbit share a rank, and without symmetry
    orbit_rep is range(n).  orbit_size maps each representative,
    ascending, to its orbit's size.  uppers() builds each row of a
    symmetric lattice on its first read, the up-set of g(F) as g's image
    of F's, so the orbit routes (_orbit_rows), which read only the
    representatives' rows, build no other.
    """

    __slots__ = ("flats", "ranks", "covers", "rk_total", "n_ground", "ground_mask", "symmetry",
                 "orbit_rep", "orbit_size", "flat_permutations", "_orbit_tree", "_cache")

    def __init__(self, flats: Sequence[int], ranks: Sequence[int], covers: Sequence[Sequence[int]],
                 n_ground: int, symmetry: Sequence[Sequence[int]] = (), tree=None):
        self.symmetry = symmetry = tuple(tuple(g) for g in symmetry)
        _check_permutations(n_ground, symmetry)
        if symmetry and tree is None:
            flats, ranks, covers, tree = _orbit_walks(flats, ranks, covers, symmetry)
        order, last = [], -inf              # new id -> given position
        for rank, run in groupby(range(len(flats)), ranks.__getitem__):
            if rank <= last:
                raise ValueError("flats must be given with ranks ascending")
            order += sorted(run, key=flats.__getitem__)
            last = rank
        n = len(order)
        old_to_new = [0] * n
        for new, old in enumerate(order):
            old_to_new[old] = new
        self.flats = flats = tuple(map(flats.__getitem__, order))
        self.ranks = tuple(map(ranks.__getitem__, order))
        self.rk_total = self.ranks[-1] if self.ranks else 0
        self.n_ground = n_ground
        self.ground_mask = flats[-1]
        ids = {}                            # mask -> id, filled on first use
        self._cache = {"ids": ids}          # the store below closes over ids, not self (a cycle)
        self.flat_permutations = _Rows(len(symmetry), None,
                                       scan=lambda j: _mask_image(flats, ids, symmetry[j]))
        if symmetry:
            parent, via, starts = tree
            self._orbit_tree = ([*map(old_to_new.__getitem__, map(parent.__getitem__, order))],
                                [*map(via.__getitem__, order)], self.flat_permutations)
            bounds, rep, size = [*starts, n], [], {}
            for s, e in zip(bounds, bounds[1:]):    # the orbits are given together
                top = max(old_to_new[s:e])
                size[top] = e - s
                rep += [top] * (e - s)
            self.orbit_rep = tuple(map(rep.__getitem__, order))
            self.orbit_size = dict(sorted(size.items()))
        else:
            starts = order
            self._orbit_tree = ()
            self.orbit_rep, self.orbit_size = range(n), dict.fromkeys(range(n), 1)
        self.covers = _Rows(n, self._orbit_tree, rows={
            old_to_new[old]: tuple(sorted(map(old_to_new.__getitem__, covers[old])))
            for old in starts})

    @property
    def n(self) -> int:
        return len(self.flats)

    @property
    def bottom_id(self) -> int:
        return 0

    @property
    def top_id(self) -> int:
        return len(self.flats) - 1

    def corank(self, fid: int) -> int:
        return self.rk_total - self.ranks[fid]

    def flats_of_rank(self, r: int):
        return [i for i, rk in enumerate(self.ranks) if rk == r]

    def flat_elements(self, fid: int):
        return sorted(_bits(self.flats[fid]))

    @property
    def n_orbits(self) -> int:
        return len(self.orbit_size)

    def uppers(self):
        """uppers()[i] = ids of flats strictly above flat i, ascending (= by
        rank), as a _Rows.  Without symmetry every row is merged at once
        from the covers' rows; with it, each row is built on its first read."""
        ups = self._cache.get("uppers")
        if ups is None:
            flats, ranks = self.flats, self.ranks
            def scan(f):            # the flats of later ranks whose masks hold f's
                mask = flats[f]
                return [g for g in range(bisect_left(ranks, ranks[f] + 1), len(flats))
                        if flats[g] & mask == mask]
            ups = self._cache["uppers"] = _Rows(self.n, self._orbit_tree, self.orbit_size, scan)
            if not self.symmetry:
                for f in reversed(range(self.n)):
                    cs = self.covers[f]
                    ups[f] = sorted(set(cs).union(*map(ups.__getitem__, cs)))
        return ups

    def validate(self):
        """Lattice check: the flats alone, rebuilt as an explicit list (meets,
        grading and cover partition checked cover by cover), must give these
        ranks and covers.  The elements outside the top join every flat,
        which keeps meets, covers and the id order."""
        rest = (1 << self.n_ground) - 1 & ~self.ground_mask
        full = _lattice_from_explicit_flats(
            ExplicitFlats(self.n_ground, [_bits(m | rest) for m in self.flats]), None)
        if (tuple(m ^ rest for m in full.flats), full.ranks) != (self.flats, self.ranks):
            raise ValueError("flat ranks are not the lengths of chains from the bottom")
        for f, (mine, true) in enumerate(zip(self.covers, full.covers)):
            if mine != true:
                raise ValueError(f"flat {f} lists covers {list(mine)}; they are {list(true)}")

    def _sublattice(self, member_ids, rank_offset: int) -> "FlatLattice":
        members = sorted(member_ids)
        old_to_new = {old: new for new, old in enumerate(members)}
        flats = [self.flats[i] for i in members]
        ranks = [self.ranks[i] - rank_offset for i in members]
        covers = [[old_to_new[c] for c in self.covers[i] if c in old_to_new] for i in members]
        return FlatLattice(flats, ranks, covers, self.n_ground)


class _Rows(dict):
    """Rows by flat id, read as the sequence of all rows (len, iteration, `in`,
    == and != against a list or tuple of rows); len(keys()) counts the
    rows built.  A missing row is built on its first read and kept: at a
    flat in stops, or a walk root (via None), by scan(flat); elsewhere as
    the sorted image under the permutation perms[via] of its tree parent's
    row, built first, of that row's type.  Without an orbit tree (parent,
    via, perms) every flat is a root."""

    __slots__ = ("plan",)

    def __init__(self, n: int, tree, stops=(), scan=None, rows=()):
        super().__init__(rows)
        self.plan = (n, *(tree or (None, [None] * n, None)), stops, scan)

    def __missing__(self, f):
        n, parent, via, perms, stops, scan = self.plan
        if not 0 <= f < n:          # as a tuple: from the end, else IndexError
            return self[range(n)[f]]
        chain, row = [], None
        while row is None and via[f] is not None and f not in stops:
            chain.append(f)
            f = parent[f]
            row = self.get(f)
        if row is None:
            row = self[f] = scan(f)
        for y in reversed(chain):
            row = self[y] = type(row)(sorted(map(perms[via[y]].__getitem__, row)))
        return row

    def __len__(self):
        return self.plan[0]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __contains__(self, row):    # else dict's, which looks up keys
        return row in list(self)

    def __eq__(self, other):
        return list(self) == list(other)

    def __ne__(self, other):        # else dict's, which compares keys and rows
        return not self == other


def _byte_tables(g) -> list:
    """(offset, table) pairs: a mask's image under g is the OR of
    table[mask >> offset & 255]."""
    tables = []
    for lo in range(0, len(g), 8):
        table = [0]
        for e in g[lo:lo + 8]:      # each bit doubles the table; the new half has its image
            image = 1 << e
            table += [t | image for t in table]
        tables.append((lo, table))
    return tables


def _flat_image(lat: FlatLattice, g, start: int = 0) -> list:
    """The ids of the images under g of the lattice's flats from id start on."""
    return _mask_image(lat.flats, lat._cache.setdefault("ids", {}), g, start)


def _mask_image(flats: tuple, ids: dict, g, start: int = 0) -> list:
    """The ids of the images under g of flats[start:]."""
    if not ids:                     # the lattice's mask -> id index, filled once
        ids.update(zip(flats, range(len(flats))))
    tables = _byte_tables(g)
    image = []
    for mask in flats[start:]:
        new = 0
        for lo, table in tables:
            new |= table[mask >> lo & 255]
        gid = ids.get(new)
        if gid is None:
            raise ValueError(f"permutation {tuple(g)} maps flat {sorted(_bits(mask))} "
                             "off the lattice")
        image.append(gid)
    return image


def _check_permutations(n: int, perms) -> None:
    for g in perms:
        if sorted(g) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {g}")


def _walk_orbit(mask: int, flats: list, index: dict, tree, generators, cap) -> None:
    """List the flat mask, which index lacks, then the rest of its orbit
    breadth first: each image under a generator, given as (j, _byte_tables)
    pairs, that index lacks is listed next, and index maps it to its
    position.  In tree (parent, via, starts) the walk starts at mask's
    position, and each other flat y is reached from parent[y] by generator
    via[y]; mask's parent is itself, its via None.  Stops once over cap
    flats are listed."""
    parent, via, starts = tree
    x = index[mask] = len(flats)
    starts.append(x)
    flats.append(mask)
    parent.append(x)
    via.append(None)
    orbit = [x] if x < cap else []  # positions, each the int object index holds
    for x in orbit:                 # grows while iterated
        source = flats[x]
        for j, byte_tables in generators:
            m = 0
            for lo, table in byte_tables:
                m |= table[source >> lo & 255]
            if m not in index:
                y = index[m] = len(flats)
                flats.append(m)
                parent.append(x)
                via.append(j)
                if y >= cap:
                    return
                orbit.append(y)


def _orbit_walks(flats, ranks, covers, symmetry):
    """(flats, ranks, covers, tree) relisted as the enumerator lists them, by
    _walk_orbit: by rank, each flat that no walk has reached starts one, by
    decreasing mask (so by decreasing id within the rank that holds its
    orbit).  Every flat's covers are given."""
    at = {m: i for i, m in enumerate(flats)}
    generators = [*enumerate(map(_byte_tables, symmetry))]
    walk, index, tree = [], {}, ([], [], [])
    for f in sorted(range(len(flats)), key=lambda i: (ranks[i], -flats[i])):
        if flats[f] not in index:
            _walk_orbit(flats[f], walk, index, tree, generators, len(flats))
    parent, via, _ = tree
    for y, m in enumerate(walk):    # the first off the lattice is reached from a flat
        if m not in at:
            raise ValueError(f"permutation {symmetry[via[y]]} maps flat "
                             f"{sorted(_bits(walk[parent[y]]))} off the lattice")
    return (walk, [ranks[at[m]] for m in walk],
            [[index[flats[c]] for c in covers[at[m]]] for m in walk], tree)


def contraction(lat: FlatLattice, fid: int) -> FlatLattice:
    """Lattice of the contraction at a flat: the upper interval [F, top]."""
    if not 0 <= (fid := index(fid)) < lat.n:
        raise ValueError(f"invalid flat id {fid}")
    members = [fid] + list(lat.uppers()[fid])
    return lat._sublattice(members, lat.ranks[fid])


def localization(lat: FlatLattice, fid: int) -> FlatLattice:
    """Lattice of the localization at a flat: the lower interval [bottom, F]."""
    if not 0 <= (fid := index(fid)) < lat.n:
        raise ValueError(f"invalid flat id {fid}")
    fmask = lat.flats[fid]
    members = [i for i, m in enumerate(lat.flats) if m & fmask == m]
    return lat._sublattice(members, 0)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_flats(spec: MatroidSpec, flat_cap: int | None = None) -> FlatLattice:
    """Enumerate all flats of the matroid described by spec.

    Every encoding, an explicit flat list too, runs one cover-oracle
    enumerator; a flat list is checked cover by cover as it runs.  flat_cap
    bounds the flat count, bottom included: FlatCapExceeded is raised as
    soon as one flat too many has been generated.  Vectors are taken over
    Q, or over F_p when spec.p is a prime.  Uniform, graph and vector
    lattices carry the symmetry their encoding shows (see _graph_symmetry
    and _vectors_symmetry); bases lattices carry none.
    """
    if isinstance(spec, ExplicitFlats):
        return _lattice_from_explicit_flats(spec, flat_cap)
    symmetry = ()
    if isinstance(spec, UniformSpec):
        n, oracle = spec.m + spec.d, _uniform_oracle(spec)
        symmetry = symmetric_generators(list(range(n)), n)
    elif isinstance(spec, GraphSpec):
        n, oracle = len(spec.edges), _graph_oracle(spec)
        symmetry = _graph_symmetry(spec)
    elif isinstance(spec, ExplicitBases):
        _check_basis_exchange(spec)
        n, oracle = spec.ground, _bases_oracle(spec)
    elif isinstance(spec, LinearVectors):
        n, oracle = len(spec.vectors), _vectors_oracle(spec.vectors, spec.p)
        symmetry = _vectors_symmetry(spec.vectors, spec.p)
    else:
        raise TypeError(f"not a matroid spec: {spec!r}")
    return _enumerate_by_covers(n, *oracle, flat_cap, symmetry)


def _check_cap(count: int, flat_cap: int | None, rank: int):
    if flat_cap is not None and count > flat_cap:
        raise FlatCapExceeded(f"flat count exceeds cap {flat_cap}: {count} flats up to rank {rank}")


def _enumerate_by_covers(n: int, bottom, covers_of, flat_cap: int | None,
                         symmetry) -> FlatLattice:
    """Breadth-first enumeration from a cover oracle, one orbit at a time.

    bottom is (mask, state) for the bottom flat; covers_of(mask, state)
    yields one (cover_mask, make_state) pair per cover of the flat, each
    cover once, and make_state() is called only the first time that cover
    is reached, so a state lives only while its flat is on the frontier.
    The covers of a flat F partition E - F, so an oracle needs one closure
    per cover, not one per element.

    symmetry holds ground permutations that map flats to flats, and the
    lattice carries it.  Each new flat's orbit is walked at once
    (_walk_orbit), so the oracle runs only at the first flat of each orbit;
    the other flats get covers None, and the walk's tree becomes the
    lattice's, which maps the first flat's covers to them when read.
    """
    generators = [*enumerate(map(_byte_tables, symmetry))]
    cap = inf if flat_cap is None else flat_cap
    flats, ranks, covers, index, tree = [], [], [], {}, ([], [], [])

    def reach(mask: int, rank: int) -> int:
        """Add a new flat and the rest of its orbit, which take the next
        ids breadth first; the new flat's id."""
        first = len(flats)
        _walk_orbit(mask, flats, index, tree, generators, cap)
        _check_cap(len(flats), flat_cap, rank)
        ranks.extend([rank] * (len(flats) - first))
        covers.extend([[]] + [None] * (len(flats) - first - 1))
        return first

    bmask, bstate = bottom
    frontier = [(reach(bmask, 0), bstate)]
    while frontier:
        new_frontier = []
        for fid, state in frontier:
            for gmask, make_state in covers_of(flats[fid], state):
                cid = index.get(gmask)
                if cid is None:
                    cid = reach(gmask, ranks[fid] + 1)
                    new_frontier.append((cid, make_state()))
                covers[fid].append(cid)
        frontier = new_frontier
    index.clear()                       # not needed by the lattice, which sorts the flats
    return FlatLattice(flats, ranks, covers, n, symmetry, tree)


def symmetric_generators(points: list, n: int) -> list:
    """A transposition and a cycle of the points, as permutations of
    range(n); together they generate the symmetric group on the points."""
    out = []
    if len(points) > 1:
        swap = list(range(n))
        swap[points[0]], swap[points[1]] = points[1], points[0]
        out.append(swap)
    if len(points) > 2:
        cycle = list(range(n))
        for a, b in zip(points, points[1:] + points[:1]):
            cycle[a] = b
        out.append(cycle)
    return out


def _coordinate_symmetry(n: int, slots: dict, support, permute, scale=None) -> list:
    """Ground permutations of range(n) induced by permutations of the
    coordinates 0..len(support)-1 that map each slot onto a slot of equal
    size.  slots maps a key to its element ids in order, support[i] lists
    the keys that involve coordinate i, permute(sigma) is the map of keys
    under the coordinate permutation sigma, and scale(c), when given, a
    further map of keys that involves only coordinate c.  Coordinates i and
    j are joined when their transposition keeps the slots; it moves only
    the keys in support[i] + support[j] and keeps how many keys involve
    each coordinate, so only pairs with equal counts are tried.  All
    transpositions inside a joined class are then in the group, so the
    class carries symmetric_generators, plus the scaling of its first
    coordinate when that keeps the slots.  A key map sends the k-th element
    of a slot to the k-th element of its image slot; identities are left
    out."""
    dim = len(support)

    def preserves(key_map, keys) -> bool:
        return all(len(slots.get(key_map(r), ())) == len(slots[r]) for r in keys)

    label = list(range(dim))    # the class of each coordinate joined so far
    for i, j in combinations(range(dim), 2):
        if len(support[i]) == len(support[j]) and label[i] != label[j]:
            swap = list(range(dim))
            swap[i], swap[j] = j, i
            if preserves(permute(swap), support[i] + support[j]):
                label = [label[i] if x == label[j] else x for x in label]
    classes = {}
    for i, x in enumerate(label):
        classes.setdefault(x, []).append(i)
    out = []
    for cls in classes.values():
        key_maps = list(map(permute, symmetric_generators(cls, dim)))
        if scale is not None and preserves(scale(cls[0]), support[cls[0]]):
            key_maps.append(scale(cls[0]))
        for key_map in key_maps:
            image = list(range(n))
            for key, ids in slots.items():
                for e, t in zip(ids, slots[key_map(key)]):
                    image[e] = t
            if image != list(range(n)):
                out.append(image)
    return out


def _graph_symmetry(spec: GraphSpec) -> list:
    """Edge permutations generating the permutations of twin vertices: the
    vertex transpositions that keep the edge slots, keyed by sorted
    endpoints (a loop at u by (u, u)).  Those are the twins, with equal
    loop counts and equal edge multiplicities to every other vertex."""
    slots = {}                  # sorted endpoints -> edge ids in order
    for idx, (u, v) in enumerate(spec.edges):
        slots.setdefault((min(u, v), max(u, v)), []).append(idx)
    support = [[] for _ in range(spec.vertices)]
    for uv in slots:            # in slot order at each endpoint, a loop once
        for v in {*uv}:
            support[v].append(uv)
    return _coordinate_symmetry(len(spec.edges), slots, support, lambda sigma: (
        lambda uv: tuple(sorted(map(sigma.__getitem__, uv)))))


def _vectors_symmetry(vectors, p: int = 0) -> list:
    """Ground permutations induced by coordinate permutations and by
    scalings of one coordinate (by -1 over Q, by a primitive root over
    F_p) that map each line of the configuration onto a line of equal
    multiplicity.  Such a map is a linear automorphism, hence a matroid
    automorphism; loops stay fixed.  The slots are the lines."""
    line = _line_of(p)
    slots = {}                  # line -> element ids in order
    for e, v in enumerate(vectors):
        r = line(v)
        if r is not None:
            slots.setdefault(r, []).append(e)
    dim = len(vectors[0]) if vectors else 0
    root = -1
    if p:                       # the least g with g^((p-1)/q) != 1 for each prime q | p - 1
        rest, primes = p - 1, []
        while rest > 1:
            primes.append(_least_prime_factor(rest))
            while rest % primes[-1] == 0:
                rest //= primes[-1]
        root = next((g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes)),
                    None)

    def permute(sigma, c=None):  # coordinate sigma[i] goes to i; then c is scaled by root
        def key_map(r):
            w = [r[i] for i in sigma]
            if c is not None:
                w[c] *= root
            return line(w)
        return key_map

    support = [[r for r in slots if r[i]] for i in range(dim)]
    scale = None if root is None else lambda c: permute(range(dim), c)
    return _coordinate_symmetry(len(vectors), slots, support, permute, scale)


def _uniform_oracle(spec: UniformSpec):
    """Every set of fewer than d elements is a flat, and its state is its
    rank.  A set S of rank below d - 1 is covered by each S + e; a set of
    rank d - 1 only by the whole ground set.  For d = 0 the ground set is
    the bottom."""
    d = spec.d
    full = (1 << (spec.m + d)) - 1

    def covers_of(fmask: int, rank: int):
        if rank == d - 1:
            yield full, lambda: d
        else:
            for e in _bits(full & ~fmask):
                yield fmask | 1 << e, lambda: rank + 1

    return (full if d == 0 else 0, 0), covers_of


def _graph_oracle(spec: GraphSpec):
    """A flat of a graphic matroid is the set of edges inside the blocks of
    a vertex partition whose blocks are connected; the state holds each
    block's mask of incident edges, and the loops are the bottom.  The
    edges between disjoint blocks A and B are inc[A] & inc[B], where a loop
    never shows up.  The covers merge two blocks joined by at least one
    edge, add those edges, and give the new block inc[A] | inc[B].  Two
    different merges add disjoint, nonempty edge sets, so no cover is
    yielded twice."""
    inc = [0] * spec.vertices
    loops = 0
    for idx, (u, v) in enumerate(spec.edges):
        inc[u] |= 1 << idx
        inc[v] |= 1 << idx
        if u == v:
            loops |= 1 << idx

    def merge(blocks: tuple, a: int, b: int) -> tuple:
        return tuple(bl for i, bl in enumerate(blocks) if i not in (a, b)) + (blocks[a] | blocks[b],)

    def covers_of(fmask: int, blocks: tuple):
        for a, inc_a in enumerate(blocks):
            for b in range(a + 1, len(blocks)):
                between = inc_a & blocks[b]
                if between:
                    yield fmask | between, lambda a=a, b=b: merge(blocks, a, b)

    return (loops, tuple(inc)), covers_of


def _check_basis_exchange(spec: ExplicitBases):
    """Exchange fails at a basis B1 and x in B1 iff some basis B2 misses
    A = {x} + {y : B1 - x + y is a basis}; each distinct A is checked once."""
    sizes = {len(b) for b in spec.bases}
    if len(sizes) != 1:
        raise ValueError(f"bases have unequal cardinalities {sorted(sizes)}")
    masks = {_mask(b, spec.ground) for b in spec.bases}
    full = (1 << spec.ground) - 1
    missed_by = {}                      # A -> a basis disjoint from A, or None
    for b1 in masks:
        outside = [1 << y for y in _bits(full & ~b1)]
        for x in _bits(b1):
            rest = b1 & ~(1 << x)
            a = sum(y for y in outside if rest | y in masks) | 1 << x
            if a not in missed_by:
                missed_by[a] = next((b2 for b2 in masks if not b2 & a), None)
            if missed_by[a] is not None:
                raise ValueError("basis exchange fails: B1=%s B2=%s x=%s"
                                 % (sorted(_bits(b1)), sorted(_bits(missed_by[a])), x))


def _bases_oracle(spec: ExplicitBases):
    """Covers from a basis B of each flat.  An element outside cl(B) extends
    B to an independent set and so to a basis; hence cl(B) is B together
    with every element that no basis containing B contains.  The state of a
    flat is (B, the bases containing B)."""
    n = spec.ground
    full = (1 << n) - 1

    def closure(b: int, above) -> int:
        union = 0
        for bm in above:
            union |= bm
        return b | (full & ~union)

    def covers_of(fmask: int, state):
        b, above = state
        rest = full & ~fmask
        while rest:
            e = rest & -rest
            be = b | e
            sub = [bm for bm in above if bm & e]
            gmask = closure(be, sub)
            rest &= ~gmask
            yield gmask, lambda be=be, sub=sub: (be, sub)

    base_masks = [_mask(b, n) for b in spec.bases]
    return (closure(0, base_masks), (0, base_masks)), covers_of


def _primitive(v: tuple):
    """v over the gcd of its entries with its first nonzero entry positive;
    None for the zero vector."""
    g = gcd(*v)
    if g and next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v) if g else None


def _line_of(p: int):
    """The representative of a vector's line, None for the zero vector:
    primitive with first nonzero entry positive over Q (p = 0), first
    nonzero entry 1 over F_p."""
    if not p:
        return _primitive

    def line(v):
        lead = next((x for x in v if x % p), 0)
        if lead:
            scale = pow(lead, -1, p)
            return tuple(x * scale % p for x in v)
    return line


def _vectors_oracle(vectors, p: int = 0):
    """Covers by residual directions, over Q (p = 0) or over the prime field
    F_p.  The state of a flat F maps every element outside F to its residual
    modulo span(F), the image under a fraction-free elimination map whose
    kernel is span(F), scaled to one representative per line: primitive with
    first nonzero entry positive over Q, first nonzero entry 1 over F_p.  So
    x lies in cl(F + e) iff x and e have the same residual, and the covers
    of F are the classes of equal residual."""
    line = _line_of(p)
    bottom, res = 0, {}
    for e, v in enumerate(vectors):
        r = line(v)
        if r is None:
            bottom |= 1 << e
        else:
            res[e] = r

    def eliminate(res: dict, d: tuple) -> dict:
        # one fraction-free step on the first nonzero column c of d, taken
        # once per distinct residual
        c = next(i for i, x in enumerate(d) if x)
        dc = d[c]
        image = {r: r if not r[c] else line(tuple(dc * a - r[c] * b for a, b in zip(r, d)))
                 for r in set(res.values()) if r != d}
        return {e: image[r] for e, r in res.items() if r != d}

    def covers_of(fmask: int, res: dict):
        classes = {}
        for e, r in res.items():
            classes[r] = classes.get(r, 0) | 1 << e
        for d, members in classes.items():
            yield fmask | members, lambda d=d: eliminate(res, d)

    return (bottom, res), covers_of


def bareiss_rank(rows) -> int:
    """Rank over Q of an integer matrix: the number of fraction-free
    elimination steps (the vector oracle's) that empty the residuals of
    its rows."""
    (_, res), covers_of = _vectors_oracle(rows)
    rank = 0
    while res:
        _, make_state = next(covers_of(0, res))
        res = make_state()
        rank += 1
    return rank


def _lattice_from_explicit_flats(spec: ExplicitFlats, flat_cap: int | None) -> FlatLattice:
    """A listed family as a cover oracle: the state of a flat F is the listed
    flats over F by (size, mask), and the bottom's is the whole list.  Each
    scanned m must meet F, and each cover g found before it, in F or g (else
    the meet is unlisted); it is a cover if it holds no such g.  Then the
    lattice must be graded, and the covers of each F must cover E - F.

    Sound: each e outside F then lies in one cover G, and a listed A over F
    that holds e holds G, so cl(F + e) = G.  (From the top down: were A
    scanned before G, it would hold an earlier cover G1; the cover of G that
    holds a point of G1 holds G1 and, strictly, G1's cover that holds e, so
    it is two ranks above G1, not one.)  A maximal reached flat inside a
    listed A, or in A & B, that were not all of it would have a cover inside
    it too; so every listed flat is reached, and every meet is listed.
    """
    n = spec.ground
    listed = sorted({_mask(f, n) for f in spec.flats}, key=lambda m: (m.bit_count(), m))
    if len(listed) != len(spec.flats):
        raise ValueError("duplicate flats in explicit list")
    if not listed or listed[-1] != (1 << n) - 1:
        raise ValueError("explicit flats must contain the full ground set")

    def covers_of(fmask: int, above: list):
        found = [fmask]             # F, then the covers found so far
        for m in above[1:]:
            for g in found:
                if m & g not in (fmask, g):
                    raise ValueError(f"explicit flats not closed under intersection: "
                                     f"{sorted(_bits(g))} ^ {sorted(_bits(m))}")
            if not any(m & g == g != fmask for g in found):
                found.append(m)
                yield m, lambda m=m: [x for x in above if x & m == m]

    lat = _enumerate_by_covers(n, (listed[0], listed), covers_of, flat_cap, ())
    if any(lat.ranks[c] != r + 1 for r, cs in zip(lat.ranks, lat.covers) for c in cs):
        raise ValueError("explicit flats do not form a graded lattice")
    for a, cs in zip(lat.flats, lat.covers):
        # the scan made the covers meet in a, so their rests are disjoint
        if a + sum(lat.flats[c] ^ a for c in cs) != listed[-1]:
            raise ValueError(f"explicit flats violate the cover partition axiom: the covers "
                             f"of {sorted(_bits(a))} do not partition the rest of the ground set")
    return lat


# ---------------------------------------------------------------------------
# poset computations


def _orbit_rows(lat: FlatLattice) -> tuple:
    """(ranks, rows, slot): the orbits by position in orbit_size order, so
    by rank, with their ranks; rows[k], built on first read, the k-th
    representative's up-set counted by orbit, as (position, count) pairs
    by ascending position, the bottom's row included; slot[f] the position
    of flat f's orbit.  Without symmetry, lat.ranks, lat.uppers() (rows of
    flat ids) and range(n).  The numbering and its rows are built once per
    lattice, from uppers() through slot."""
    if not lat.symmetry:
        return lat.ranks, lat.uppers(), range(lat.n)
    numbering = lat._cache.get("orbits")
    if numbering is None:
        reps, ups = [*lat.orbit_size], lat.uppers()
        slot = [*map(dict(zip(reps, count())).__getitem__, lat.orbit_rep)]
        rows = _Rows(len(reps), None, scan=lambda k: sorted(
            Counter(map(slot.__getitem__, ups[reps[k]])).items()))
        numbering = lat._cache["orbits"] = [*map(lat.ranks.__getitem__, reps)], rows, slot
    return numbering


def mobius_from_bottom(lat: FlatLattice) -> tuple:
    """mu(bottom, F) for every flat, cached: constant on orbits as every
    symmetry fixes the bottom, so one sweep over the orbit positions H by
    increasing rank.  Each G adds |O_G| mu(bottom, G) at the orbit of every
    H' > G, once per orbit of its count row; as |O_G| #{H' in O_H : G < H'}
    = |O_H| #{G' in O_G : G' < H}, that leaves -|O_H| mu(bottom, H) at H,
    which |O_H| must divide."""
    if "mobius" in lat._cache:
        return lat._cache["mobius"]
    _, rows, slot = _orbit_rows(lat)
    acc = [0] * len(rows)
    acc[0] = -1                     # the bottom's orbit is first
    at = []
    for h, (f, k) in enumerate(lat.orbit_size.items()):
        w = -acc[h]                 # complete: positions are in rank order
        if w % k:
            raise RuntimeError(f"mobius value {w}/{k} on the orbit of flat {f} is not "
                               "an integer: the orbits are not those of the symmetry")
        at.append(w // k)
        if w and lat.symmetry:
            for g, c in rows[h]:
                acc[g] += w * c
        elif w:
            for g in rows[h]:
                acc[g] += w
    return lat._cache.setdefault("mobius", tuple(map(at.__getitem__, slot)))


def characteristic_polynomial(lat: FlatLattice) -> IntPolynomial:
    """chi(t) = sum_F mu(bottom, F) t^{crk F}; monic of degree rk."""
    mu = mobius_from_bottom(lat)
    out = [0] * (lat.rk_total + 1)
    for f, m in enumerate(mu):
        out[lat.corank(f)] += m
    return IntPolynomial(out)


_first, _second = itemgetter(0), itemgetter(1)


def _multichain_counts(rk: int, ranks, rows, memo: dict, profile: tuple):
    """counts[a] of the multichains of the given corank profile (the top
    has rank rk) whose lowest flat contains entry a of a space: the orbit
    positions of _orbit_rows for plain counts, a permutation's fixed flats
    for its fixed chains.  Entries are in rank order, ranks[a] the rank of
    a, rows[a] the entries above it: ascending ids, or, in the count rows
    of a symmetric lattice, (position, count) pairs by ascending position;
    the bottom's row tells which, once per profile counted.  Memoized per
    profile suffix in `memo`; the Whitney recursion over contractions
    shares suffixes."""
    vec = memo.get(profile)
    if vec is not None:
        return vec
    if not profile:
        vec = [1] * len(ranks)
    else:
        # a memoized suffix, the usual case, needs no call
        prev = memo.get(profile[1:]) or _multichain_counts(rk, ranks, rows, memo, profile[1:])
        target = rk - profile[0]            # rank of flats with corank profile[0]
        # entries are in rank order, so the target rank is a range [lo, hi)
        # and every row meets it in one slice; entries in it keep their count
        lo = bisect_left(ranks, target)
        hi = bisect_left(ranks, target + 1)
        if (head := rows[0]) and type(head[0]) is tuple:
            vec = [sum(map(mul, map(prev.__getitem__, map(_first, cut)), map(_second, cut)))
                   for row in map(rows.__getitem__, range(lo))
                   for cut in [row[bisect_left(row, (lo,)):bisect_left(row, (hi,))]]]
        else:
            vec = [sum(map(prev.__getitem__, row[bisect_left(row, lo):bisect_left(row, hi)]))
                   for row in map(rows.__getitem__, range(lo))]
        vec += prev[lo:hi] + [0] * (len(ranks) - hi)
    memo[profile] = vec
    return vec


def _plain_chains(lat: FlatLattice) -> tuple:
    """(ranks, rows, memo) of the plain counts, at the orbit positions: the
    numbering's ranks and rows, so the count rows of a symmetric lattice."""
    if "whitney" not in lat._cache:
        lat._cache["whitney"] = (*_orbit_rows(lat)[:2], {})
    return lat._cache["whitney"]


def whitney_multi(lat: FlatLattice, profile) -> int:
    """Number of multichains F_r <= ... <= F_1 with crk F_j = profile[r-j].

    The profile is given corank-major, [i_r, ..., i_1]; entries may be any
    integers (impossible coranks yield 0); the empty profile counts 1.
    """
    return _multichain_counts(lat.rk_total, *_plain_chains(lat), tuple(map(index, profile)))[0]
