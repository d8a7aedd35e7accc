"""Equivariant Whitney machinery.

For an arbitrary finite permutation group acting on the ground set and
preserving flats, the multichain counts refine to permutation characters
(fixed-point counts), and the closed formula for Kazhdan-Lusztig coefficients
refines to a virtual character.  Characters are class functions, so the
fixed chains are counted once per conjugacy class, at its representative,
by the multichain counter over the flats it fixes alone; a permutation that
fixes every flat, the identity among them, reads the plain counts.  The
fixed flats of a permutation, and its chain counts at them alone, are kept
on the lattice, so every character of every group reads one count.

Two actions of a symmetric group are recognised from their generators and
need no element list, since their classes are the vertex cycle types: the
natural action of Sym(n) (Jordan's theorem), and Sym(m), m >= 5, acting on
the C(m, 2) edges of K_m.  The edge action is found through the "shares a
vertex" relation, an orbital of the group on point pairs; in that relation
the m stars (the edges at one vertex) are the cliques of size m - 1, and
each edge lies in two of them.  Recognition is then verified, which makes
it sound whatever the search found: every generator g maps stars onto
stars and equals the permutation of edges induced by its star permutation
sigma_g, and the sigma_g pass Jordan's test.  The group is then the image of
Sym(m), and the image is faithful for m >= 3, so it has order m! and its
classes are the images of the cycle types.  Any other group is listed by
closure.

For uniform matroids with the full symmetric group the characters are
written exactly in the h-basis of symmetric functions, with Schur expansion
through Kostka numbers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import permutations
from math import factorial, isqrt
from operator import and_, index, or_

from .klz import _closed_sum
from .matroid import (FlatLattice, _bits, _check_permutations, _flat_image, _multichain_counts,
                      _plain_chains, symmetric_generators)

_GROUP_CAP = 10 ** 6
_SCHUR_DEGREE_CAP = 12


def partition(parts) -> tuple:
    """Normalize to a partition: sorted descending, zero parts dropped."""
    out = []
    for p in parts:
        p = index(p)
        if p < 0:
            raise ValueError("partition parts must be nonnegative")
        if p:
            out.append(p)
    return tuple(sorted(out, reverse=True))


class SymFunction:
    """Homogeneous integer combination of basis elements indexed by
    partitions of `degree`; basis is 'h' (complete homogeneous) or 's'
    (Schur).  Zero coefficients are never stored."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: str, degree: int, terms=None):
        if basis not in ("h", "s"):
            raise ValueError("basis must be 'h' or 's'")
        self.basis = basis
        self.degree = degree
        clean = {}
        for lam, c in (terms or {}).items():
            lam = partition(lam)
            if sum(lam) != degree:
                raise ValueError(f"partition {lam} is not of size {degree}")
            c = index(c)
            if c:
                clean[lam] = clean.get(lam, 0) + c
        self.terms = {lam: c for lam, c in clean.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymFunction):
            return NotImplemented
        return (self.basis == other.basis and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.basis, self.degree, tuple(sorted(self.terms.items()))))

    def _combine(self, other, sign: int):
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("can only combine same basis and degree")
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            terms[lam] = terms.get(lam, 0) + sign * c
        return SymFunction(self.basis, self.degree, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return SymFunction(self.basis, self.degree,
                           {lam: -c for lam, c in self.terms.items()})

    def __mul__(self, scalar: int):
        return SymFunction(self.basis, self.degree,
                           {lam: c * scalar for lam, c in self.terms.items()})

    __rmul__ = __mul__

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in sorted(self.terms, reverse=True):
            c = self.terms[lam]
            body = f"{self.basis}[{','.join(map(str, lam))}]"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            if not bits:
                bits.append(("-" if c < 0 else "") + mag + body)
            else:
                bits.append(("- " if c < 0 else "+ ") + mag + body)
        return " ".join(bits)


def h_product(parts) -> SymFunction:
    """The single h-basis element h_lambda for the sorted positive parts
    (zero parts are the unit and drop out)."""
    lam = partition(parts)
    return SymFunction("h", sum(lam), {lam: 1})


@lru_cache(maxsize=None)
def _kostka(mu: tuple, lam: tuple) -> int:
    """Number of semistandard tableaux of shape mu and content lam, by
    peeling horizontal strips for the largest entry."""
    if sum(mu) != sum(lam):
        return 0
    if not lam:
        return 1 if not mu else 0
    size = lam[-1]
    rest = lam[:-1]
    total = 0
    for nu in _horizontal_strip_removals(mu, size):
        total += _kostka(nu, rest)
    return total


def _horizontal_strip_removals(mu: tuple, size: int):
    """All partitions nu with nu <= mu, |mu| - |nu| = size, and mu/nu a
    horizontal strip (mu_{i+1} <= nu_i <= mu_i)."""
    rows = len(mu)

    def rec(i, remaining, prefix):
        if i == rows:
            if remaining == 0:
                yield partition(prefix)
            return
        low = max(mu[i + 1] if i + 1 < rows else 0, mu[i] - remaining)
        for nu_i in range(mu[i], low - 1, -1):
            yield from rec(i + 1, remaining - (mu[i] - nu_i), prefix + [nu_i])

    yield from rec(0, size, [])


def kostka_number(mu, lam) -> int:
    return _kostka(partition(mu), partition(lam))


def h_to_schur(f: SymFunction) -> SymFunction:
    """Expand an h-basis element in the Schur basis: h_lam = sum_mu
    K_{mu lam} s_mu.  Degrees above the tableau-enumeration cap error out."""
    if f.basis != "h":
        raise ValueError("expected an h-basis symmetric function")
    if f.degree > _SCHUR_DEGREE_CAP:
        raise ValueError(f"degree {f.degree} beyond Schur expansion cap "
                         f"{_SCHUR_DEGREE_CAP}")
    out = {}
    for lam, c in f.terms.items():
        for mu in _partitions_of(f.degree):
            k = _kostka(mu, lam)
            if k:
                out[mu] = out.get(mu, 0) + c * k
    return SymFunction("s", f.degree, out)


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple:
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return tuple(out)


def _hook_length_dimension(lam: tuple, n: int) -> int:
    """Number of standard Young tableaux of shape lam (hook lengths)."""
    if not lam:
        return 1 if n == 0 else 0
    conj = [0] * lam[0]
    for part in lam:
        for j in range(part):
            conj[j] += 1
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    num, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError(f"hook length formula gives no integer for {lam}")
    return num


def dimension(f: SymFunction, n: int):
    """Dimension of the (virtual) symmetric-group representation with
    Frobenius characteristic f: multinomials for h, tableau counts for s."""
    if f.degree != n:
        raise ValueError(f"degree {f.degree} does not match n={n}")
    total = 0
    for lam, c in f.terms.items():
        if f.basis == "h":
            d = factorial(n)
            for part in lam:
                d //= factorial(part)
        else:
            d = _hook_length_dimension(lam, n)
        total += c * d
    return total


def character_value(f: SymFunction, g) -> int:
    """Value at the permutation g of the (virtual) character with h-basis
    Frobenius characteristic f: h_lam counts the ways to share g's cycles
    out among ordered blocks of sizes lam."""
    if f.basis != "h" or f.degree != len(g):
        raise ValueError("expected an h-basis function of degree len(g)")
    cycles = [c.bit_count() for c in _cycles(g)]

    @lru_cache(maxsize=None)
    def fill(k, room):      # room sorted: the count depends only on its multiset
        if k == len(cycles):
            return 1
        return sum(fill(k + 1, tuple(sorted(room[:b] + (r - cycles[k],) + room[b + 1:])))
                   for b, r in enumerate(room) if r >= cycles[k])

    return sum(c * fill(0, tuple(sorted(lam))) for lam, c in f.terms.items())


def is_schur_positive(f: SymFunction) -> bool:
    g = f if f.basis == "s" else h_to_schur(f)
    return all(c >= 0 for c in g.terms.values())


# ---------------------------------------------------------------------------
# uniform matroids: exact h-basis characters


def equivariant_whitney_uniform(m: int, d: int, profile) -> SymFunction:
    """Frobenius characteristic of the permutation action of S_{m+d} on
    corank-profile multichains of flats of U_{m,d}:
    s[d-i_r] s[i_r - i_{r-1}] ... s[m + i_1] for positive coranks.

    Corank-0 entries force the top flat and are dropped; a non-monotone or
    out-of-range profile has no chains and gives the zero function.
    """
    if m < 0 or d < 0:
        raise ValueError("need m >= 0 and d >= 0")
    n = m + d
    prof = list(map(index, profile))
    if any(prof[j] < prof[j + 1] for j in range(len(prof) - 1)):
        return SymFunction("h", n)
    if any(i < 0 or i > d for i in prof):
        return SymFunction("h", n)
    pos = [i for i in prof if i > 0]
    if not pos:
        return h_product([n])
    parts = [d - pos[0]]
    for j in range(len(pos) - 1):
        parts.append(pos[j] - pos[j + 1])
    parts.append(m + pos[-1])
    return h_product(parts)


def equivariant_c_uniform(m: int, d: int, i: int) -> SymFunction:
    """Virtual S_{m+d}-character of the i-th Kazhdan-Lusztig coefficient of
    U_{m,d}: the closed formula over the h-product Whitney characters."""
    return _closed_sum(i, d, lambda profile: equivariant_whitney_uniform(m, d, profile),
                       SymFunction("h", m + d))


# ---------------------------------------------------------------------------
# arbitrary permutation groups: fixed-point counting


def _cycles(g):
    """The cycles of the permutation g, fixed points included, as bitmasks
    of their points, in the order of their least points."""
    seen = 0
    for start in range(len(g)):
        if not seen >> start & 1:
            c, x = 0, start
            while not c >> x & 1:
                c |= 1 << x
                x = g[x]
            seen |= c
            yield c


def _smallest_of_cycle_type(lam) -> tuple:
    """The first permutation in sorted order with cycle type lam: cycles
    over consecutive points, shortest first."""
    perm = []
    for part in sorted(lam):
        start = len(perm)
        perm.extend(range(start + 1, start + part))
        perm.append(start)
    return tuple(perm)


def _closure(n: int, gens, cap: int):
    """The set of all products of the permutations gens, or None once it
    exceeds cap elements."""
    elements = {tuple(range(n))}
    queue = list(elements)
    for h in queue:                 # appended to as it is walked: breadth first
        for g in gens:
            gh = tuple(g[x] for x in h)
            if gh not in elements:
                elements.add(gh)
                queue.append(gh)
                if len(elements) > cap:
                    return None
    return elements


def _find(parent: list, x: int) -> int:
    """The root of x in a union-find forest, halving the path walked."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _generates_symmetric(n: int, gens) -> bool:
    """True only if the generators generate Sym(n).  A generator with one
    2-cycle (a b) and otherwise odd cycles has the transposition (a b) as a
    power, so every conjugate (g(a) g(b)) is in the group too; transpositions
    whose graph connects all n points generate Sym(n).  The components of
    that graph form the finest generator-invariant partition joining a and
    b, found by Atkinson's union-find; a primitive group containing a
    transposition always gives the whole set (Jordan's theorem).  Sound, not
    complete: False leaves the decision to the closure."""
    if n <= 1:
        return True
    for g in gens:
        lengths = [c.bit_count() for c in _cycles(g)]
        if lengths.count(2) == 1 and all(k % 2 for k in lengths if k != 2):
            break
    else:
        return False
    a = next(x for x in range(n) if g[g[x]] == x != g[x])
    parent = list(range(n))
    parent[g[a]] = a
    pairs = [(a, g[a])]
    for x, y in pairs:          # grows while iterated: one pair per merge
        for h in gens:
            u, v = _find(parent, h[x]), _find(parent, h[y])
            if u != v:
                parent[v] = u
                pairs.append((u, v))
    return len(pairs) == n - 1


def _edge_labels(n: int, gens):
    """The vertex pair (a, b), a < b, of every point, if the generators act
    as Sym(m), m >= 5, on the n = C(m, 2) edges of K_m; else None.  Each
    orbital (union-find over the unordered point pairs) of size n(m - 2),
    the size of "shares a vertex", is tried in turn.  In that relation the
    star through adjacent p and q is p, q and every common neighbour
    adjacent to another common neighbour; the other common neighbour, the
    edge joining the far ends, is adjacent to none.  The stars number m,
    have m - 1 points each and cover every point twice.  Sound, not
    complete: a labelling is returned only if each generator is the action
    induced by a star permutation and those permutations pass Jordan's
    test."""
    m = (1 + isqrt(1 + 8 * n)) // 2
    if m < 5 or m * (m - 1) // 2 != n:
        return None
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    parent = list(range(n * n))         # pair {p, q}, p < q, is p * n + q
    for g in gens:
        for p, q in pairs:
            u = _find(parent, p * n + q)
            v = _find(parent, min(g[p], g[q]) * n + max(g[p], g[q]))
            if u != v:
                parent[v] = u
    orbitals = {}
    for p, q in pairs:
        orbitals.setdefault(_find(parent, p * n + q), []).append((p, q))
    for orbital in orbitals.values():
        if len(orbital) != n * (m - 2):
            continue
        adj = [0] * n
        for p, q in orbital:
            adj[p] |= 1 << q
            adj[q] |= 1 << p
        stars = set()
        for p, q in orbital:
            common = adj[p] & adj[q]
            stars.add(sum(1 << x for x in _bits(common) if adj[x] & common)
                      | 1 << p | 1 << q)
        stars = sorted(stars)
        if len(stars) != m or any(s.bit_count() != m - 1 for s in stars):
            continue
        labels = tuple(tuple(i for i, s in enumerate(stars) if s >> p & 1) for p in range(n))
        if any(len(lab) != 2 for lab in labels) or len(set(labels)) != n:
            continue
        star_id = {s: i for i, s in enumerate(stars)}
        index = {lab: p for p, lab in enumerate(labels)}
        sigmas = []
        for g in gens:
            sigma = [star_id.get(sum(1 << g[p] for p in _bits(s))) for s in stars]
            if None in sigma or g != tuple(index[tuple(sorted((sigma[a], sigma[b])))]
                                         for a, b in labels):
                break
            sigmas.append(sigma)
        else:
            if _generates_symmetric(m, sigmas):
                return labels
    return None


class PermGroup:
    """A permutation group on {0..n-1}.  A group given by its elements, or
    by generators whose closure it is, stores the sorted element list.  A
    group given as Sym(m) acting through point labels (point p is the vertex
    set labels[p], moved as a set) lists its elements only when asked: its
    order is m!, and its classes are the images of the cycle types of
    Sym(m), each represented by the image of the first permutation of that
    type.  Without labels (elements None) it is the natural action of
    Sym(n), the only case that `is_symmetric` names.  `from_generators`
    recognises the natural action by Jordan's test and the action on the
    edges of K_m, m >= 5, by its stars, verified as in the module notes.

    Given elements, the constructor raises ValueError unless each is a
    permutation of 0..n-1 and together they are exactly the closure of the
    generators; with no generators the elements serve as generators."""

    def __init__(self, n: int, elements=None, generators=(), labels=None):
        self.n = n
        self.is_symmetric = elements is None and labels is None
        self._elements = None if elements is None else tuple(sorted(set(elements)))
        self._labels = None
        if elements is None:
            self._labels = labels or tuple((p,) for p in range(n))
            self._label_index = {key: p for p, lab in enumerate(self._labels)
                                 for key in permutations(lab)}
            self._label_columns = tuple(zip(*self._labels))
            self._vertices = len({v for lab in self._labels for v in lab})
        self.generators = tuple(generators) or self.elements
        if elements is not None:
            _check_permutations(n, self._elements)
            if _closure(n, self.generators, len(self._elements)) != set(self._elements):
                raise ValueError("elements are not the closure of the generators")
        self._classes = None

    def __len__(self):
        return len(self._elements) if self._labels is None else factorial(self._vertices)

    @property
    def identity(self):
        return tuple(range(self.n))

    @property
    def elements(self) -> tuple:
        """All elements in sorted order (for a labelled action, the images
        of Sym(m), computed once; the natural action's are Sym(n) itself)."""
        if self._elements is None:
            sigmas = permutations(range(self._vertices))
            self._elements = (tuple(sigmas) if self.is_symmetric
                              else tuple(sorted(map(self._induced, sigmas))))
        return self._elements

    def _induced(self, sigma) -> tuple:
        """The permutation of points induced by the vertex permutation sigma:
        p goes to the point labelled sigma(labels[p]), read column by column
        from an index that holds every label in every order."""
        images = (map(sigma.__getitem__, col) for col in self._label_columns)
        return tuple(map(self._label_index.__getitem__, zip(*images)))

    @classmethod
    def from_generators(cls, n: int, generators, cap: int = _GROUP_CAP) -> "PermGroup":
        gens = [tuple(map(index, g)) for g in generators]
        _check_permutations(n, gens)
        labels = None
        if _generates_symmetric(n, gens) or (labels := _edge_labels(n, gens)):
            group = cls(n, None, gens, labels)
            if len(group) > cap:
                raise ValueError(f"group order {len(group)} exceeds cap {cap}")
            return group
        elements = _closure(n, gens, cap)
        if elements is None:
            raise ValueError(f"group closure exceeds cap {cap}")
        return cls(n, elements, gens)

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        return cls.from_generators(n, symmetric_generators(list(range(n)), n))

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls(n, [tuple(range(n))])

    def classes(self) -> tuple:
        """The conjugacy classes, each a tuple of this group's own element
        tuples with its representative first; computed once and cached.
        A class is an orbit under conjugation by the generators, which
        generate the group, so the orbit is the whole class.  Listed groups
        start each orbit at the first element not yet seen, labelled actions
        at each of `class_representatives()`."""
        if self._classes is None:
            elements = self.elements
            index = {h: k for k, h in enumerate(elements)}
            seen = [False] * len(elements)
            classes = []
            starts = (range(len(elements)) if self._labels is None
                      else map(index.__getitem__, self.class_representatives()))
            for start in starts:
                if seen[start]:
                    continue
                seen[start] = True
                orbit = [start]
                for k in orbit:
                    for c in map(index.__getitem__, self._conjugates(elements[k])):
                        if not seen[c]:
                            seen[c] = True
                            orbit.append(c)
                classes.append(tuple(elements[k] for k in orbit))
            self._classes = tuple(classes)
        return self._classes

    def class_representatives(self) -> tuple:
        """The first member of each of `classes()`, in the same order (the
        identity first); for a labelled action the sorted images of the
        first permutation of each cycle type, with no element list; computed once."""
        return self._representatives

    @cached_property
    def _representatives(self) -> tuple:
        if self._labels is not None:
            return tuple(sorted(self._induced(_smallest_of_cycle_type(lam))
                                for lam in _partitions_of(self._vertices)))
        return tuple(cls[0] for cls in self.classes())

    def conjugacy_respects(self, values: dict) -> bool:
        """True iff the table is constant on conjugacy classes (it suffices
        to test conjugation by the generators)."""
        for h in self.elements:
            if any(values[c] != values[h] for c in self._conjugates(h)):
                return False
        return True

    @cached_property
    def _conjugators(self) -> tuple:
        """(g, g^-1) for each generator g, the inverse as a list."""
        return tuple((g, sorted(range(self.n), key=g.__getitem__)) for g in self.generators)

    def _conjugates(self, h):
        """g h g^-1 for each generator g, in generator order."""
        return [tuple([g[h[x]] for x in inv]) for g, inv in self._conjugators]


@dataclass
class ClassFunctionTable:
    """Integer-valued class function on a group (a virtual character):
    `class_values` maps each of the group's class representatives to its
    value.  `values`, the table on every element in the order of
    `group.classes()`, is expanded from it on first use."""
    group: PermGroup
    class_values: dict = field(default_factory=dict)

    @cached_property
    def values(self) -> dict:
        out = {}
        for cls in self.group.classes():
            out.update(dict.fromkeys(cls, self.class_values[cls[0]]))
        return out

    def at_identity(self) -> int:
        return self.class_values[self.group.identity]

    def __eq__(self, other):
        if not isinstance(other, ClassFunctionTable):
            return NotImplemented
        return self.values == other.values


def _check_action(lat: FlatLattice, group: PermGroup):
    """Raise unless the group acts on the ground set by flat-preserving
    permutations.  Checking the generators suffices: flat-preserving
    permutations are closed under composition.  Each flat is the meet of the
    hyperplanes above it, so a permutation that maps them and the top onto
    flats preserves every flat.  The lattice remembers the generators that
    passed."""
    if group.n != lat.n_ground:
        raise ValueError("group degree does not match ground set size")
    checked = lat._cache.setdefault("actions", set())
    for g in map(tuple, group.generators):
        if g not in checked:
            _flat_image(lat.flats, lat._cache["ids"], g, bisect_left(lat.ranks, lat.rk_total - 1))
            checked.add(g)


def _fixed_flags(lat: FlatLattice, g):
    """((ranks, rows, slot), anchors, memo), the space in which the chains g
    fixes are counted.  g fixes a flat iff each nontrivial cycle of g lies
    inside it or outside it: with the flats holding each element as a bitset
    of ids, kept on the lattice, those in the AND over the cycle or not in
    the OR.  A g that fixes every flat reads the plain counts; any other g's
    k fixed flats are ids 0..k-1, each row the fixed flats above it."""
    fixed = full = (1 << lat.n) - 1
    for c in _cycles(g):
        if c & c - 1:
            if "members" not in lat._cache:     # transposed: one string per element
                columns = zip(*(format(m, f"0{lat.n_ground}b") for m in reversed(lat.flats)))
                lat._cache["members"] = [int("".join(col), 2) for col in columns][::-1]
            held = [*map(lat._cache["members"].__getitem__, _bits(c))]
            fixed &= reduce(and_, held) | ~reduce(or_, held)
    if fixed == full:
        slot, anchors, memo = _plain_chains(lat)
        return (lat.ranks, lat.uppers(), slot), anchors, memo
    ids = _bits(fixed)
    local = dict(zip(ids, range(len(ids))))     # the bottom, 0, is above no flat
    rows = [[*filter(None, map(local.get, row))] for row in map(lat.uppers().__getitem__, ids)]
    return ([*map(lat.ranks.__getitem__, ids)], rows, None), range(len(ids)), {}


def _chain_character(lat: FlatLattice, group: PermGroup,
                     value) -> ClassFunctionTable:
    """The class function g -> value(count), where count(profile) is the
    number of g-fixed multichains with that corank profile, evaluated once
    per conjugacy class at its representative.  The space of g's fixed
    chains and its profile memo depend only on g and the lattice, so the
    lattice keeps them for every later character."""
    _check_action(lat, group)
    chains = lat._cache.setdefault("fixed_chains", {})
    values = {}
    for g in group.class_representatives():
        if g not in chains:
            chains[g] = _fixed_flags(lat, g)
        space, anchors, memo = chains[g]
        values[g] = value(lambda profile: _multichain_counts(
            lat.rk_total, *space, anchors, memo, profile)[0])
    return ClassFunctionTable(group, values)


def equivariant_whitney_character(lat: FlatLattice, group: PermGroup,
                                  profile) -> ClassFunctionTable:
    """Permutation character of the group action on corank-profile
    multichains: each element maps to its number of fixed multichains."""
    profile = tuple(map(index, profile))
    return _chain_character(lat, group, lambda count: count(profile))


def equivariant_c_character(lat: FlatLattice, group: PermGroup,
                            i: int) -> ClassFunctionTable:
    """Virtual character of the i-th Kazhdan-Lusztig coefficient: the closed
    formula over each class representative's fixed-chain counts.  Its value
    at the identity is the plain coefficient."""
    return _chain_character(lat, group,
                            lambda count: _closed_sum(i, lat.rk_total, count, 0))
