"""Equivariant Whitney machinery.

For an arbitrary finite permutation group acting on the ground set and
preserving flats, the multichain counts refine to permutation characters
(fixed-point counts), and the closed formula for Kazhdan-Lusztig coefficients
refines to a virtual character.  Characters are class functions, so the
fixed chains are counted once per conjugacy class, at its representative.
For uniform matroids with the full symmetric group the characters are
written exactly in the h-basis of symmetric functions, with Schur expansion
through Kostka numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

from .klz import enumerate_index_tuples, t_index
from .matroid import FlatLattice

_GROUP_CAP = 10 ** 6
_SCHUR_DEGREE_CAP = 12


def partition(parts) -> tuple:
    """Normalize to a partition: sorted descending, zero parts dropped."""
    out = []
    for p in parts:
        p = int(p)
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
            c = int(c)
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

    def to_json(self):
        return [{"coeff": c, "partition": list(lam)}
                for lam, c in sorted(self.terms.items(), reverse=True)]


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
    prof = [int(i) for i in profile]
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
    U_{m,d}, as the signed sum of h-products over the index tuples."""
    if i < 1:
        raise ValueError("equivariant coefficient needs i >= 1")
    n = m + d
    result = SymFunction("h", n)
    for tup in enumerate_index_tuples(i, d):
        a, s, r = tup.a, tup.subset, tup.r
        parts = [m + a[t_index(1, s, r)]]
        for j in range(1, r + 1):
            if j in s:
                parts.append(a[j] - a[j - 1])
            else:
                parts.append(a[t_index(j + 1, s, r)] - a[j - 1])
        result = result + tup.sign * h_product(parts)
    return result


# ---------------------------------------------------------------------------
# arbitrary permutation groups: fixed-point counting


class PermGroup:
    """A permutation group on {0..n-1}, stored as the full element list
    closed under composition (breadth-first from the generators)."""

    def __init__(self, n: int, elements, generators=()):
        self.n = n
        self.elements = tuple(sorted(set(elements)))
        self.generators = tuple(generators) or self.elements
        identity = tuple(range(n))
        if identity not in set(self.elements):
            raise ValueError("identity missing from group closure")
        self._classes = None

    def __len__(self):
        return len(self.elements)

    @property
    def identity(self):
        return tuple(range(self.n))

    @classmethod
    def from_generators(cls, n: int, generators, cap: int = _GROUP_CAP) -> "PermGroup":
        gens = [tuple(int(x) for x in g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n - 1}: {g}")
        identity = tuple(range(n))
        elements = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in gens:
                for h in frontier:
                    gh = tuple(g[x] for x in h)
                    if gh not in elements:
                        elements.add(gh)
                        nxt.append(gh)
                        if len(elements) > cap:
                            raise ValueError(f"group closure exceeds cap {cap}")
            frontier = nxt
        return cls(n, elements, gens)

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        if n <= 1:
            return cls(n, [tuple(range(n))])
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        return cls.from_generators(n, [swap, cycle])

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls(n, [tuple(range(n))])

    def classes(self) -> tuple:
        """The conjugacy classes, each a tuple of this group's own element
        tuples with its representative first; computed once and cached.
        A class is an orbit under conjugation by the generators, which
        generate the group, so the orbit is the whole class."""
        if self._classes is None:
            elements = self.elements
            index = {h: k for k, h in enumerate(elements)}
            conjugators = []
            for g in self.generators:
                inv = [0] * self.n
                for x, gx in enumerate(g):
                    inv[gx] = x
                conjugators.append((g, inv))
            seen = [False] * len(elements)
            classes = []
            for start in range(len(elements)):
                if seen[start]:
                    continue
                seen[start] = True
                orbit = [start]
                for k in orbit:
                    h = elements[k]
                    for g, inv in conjugators:
                        c = index[tuple(g[h[inv[x]]] for x in range(self.n))]
                        if not seen[c]:
                            seen[c] = True
                            orbit.append(c)
                classes.append(tuple(elements[k] for k in orbit))
            self._classes = tuple(classes)
        return self._classes

    def conjugacy_respects(self, values: dict) -> bool:
        """True iff the table is constant on conjugacy classes (it suffices
        to test conjugation by the generators)."""
        for g in self.generators:
            inv = [0] * self.n
            for x, gx in enumerate(g):
                inv[gx] = x
            for h in self.elements:
                conj = tuple(g[h[inv[x]]] for x in range(self.n))
                if values[conj] != values[h]:
                    return False
        return True


@dataclass
class ClassFunctionTable:
    """Integer-valued function on group elements (a virtual character given
    by its values); constant on conjugacy classes.  `values` holds every
    element, but the character functions below evaluate one representative
    per class and copy its value to the rest of the class."""
    group: PermGroup
    values: dict = field(default_factory=dict)

    def at_identity(self) -> int:
        return self.values[self.group.identity]

    def __eq__(self, other):
        if not isinstance(other, ClassFunctionTable):
            return NotImplemented
        return self.values == other.values


def _flat_permutation(lat: FlatLattice, g) -> list:
    """The permutation of flat ids induced by the ground permutation g,
    or raise if some flat image is not a flat."""
    image = []
    for fid, mask in enumerate(lat.flats):
        m = mask
        new = 0
        e = 0
        while m:
            if m & 1:
                new |= 1 << g[e]
            m >>= 1
            e += 1
        try:
            image.append(lat.id_of_mask(new))
        except KeyError:
            raise ValueError(
                f"permutation {g} maps flat {sorted(lat.flat_elements(fid))} "
                f"off the lattice") from None
    return image


def _check_action(lat: FlatLattice, group: PermGroup):
    """Raise unless the group acts on the ground set by flat-preserving
    permutations.  Checking the generators suffices: flat-preserving
    permutations are closed under composition."""
    if group.n != lat.n_ground:
        raise ValueError("group degree does not match ground set size")
    for g in group.generators:
        _flat_permutation(lat, g)


def _fixed_chain_count(lat: FlatLattice, fixed, anchors, profile: tuple,
                       memo: dict):
    """Chain counts restricted to fixed flats: same suffix recursion as the
    plain Whitney count.  Values are only needed at fixed flats (the chain
    members) and at the bottom anchor, so only those are computed."""
    vec = memo.get(profile)
    if vec is not None:
        return vec
    if not profile:
        # the anchor flat is only a lower bound, not part of the chain
        vec = dict.fromkeys(anchors, 1)
    else:
        head, rest = profile[0], profile[1:]
        prev = _fixed_chain_count(lat, fixed, anchors, rest, memo)
        ups = lat.uppers()
        ranks = lat.ranks
        target = lat.rk_total - head
        vec = {}
        for f in anchors:
            total = 0
            if ranks[f] == target and fixed[f]:
                total += prev[f]
            for g in ups[f]:
                if ranks[g] == target and fixed[g]:
                    total += prev[g]
            vec[f] = total
    memo[profile] = vec
    return vec


def _fixed_flags(lat: FlatLattice, g):
    fmap = _flat_permutation(lat, g)
    fixed = [fmap[f] == f for f in range(lat.n)]
    anchors = [f for f in range(lat.n) if fixed[f]]
    if not fixed[lat.bottom_id]:
        anchors.insert(0, lat.bottom_id)
    return fixed, anchors


def _chain_character(lat: FlatLattice, group: PermGroup,
                     terms) -> ClassFunctionTable:
    """The class function g -> sum of sign * (number of g-fixed multichains
    with the given corank profile) over the (sign, profile) terms, counted
    once per conjugacy class at its representative."""
    _check_action(lat, group)
    values = {}
    for cls in group.classes():
        fixed, anchors = _fixed_flags(lat, cls[0])
        memo = {}
        total = 0
        for sign, profile in terms:
            total += sign * _fixed_chain_count(lat, fixed, anchors, profile,
                                               memo)[lat.bottom_id]
        values.update(dict.fromkeys(cls, total))
    return ClassFunctionTable(group, values)


def equivariant_whitney_character(lat: FlatLattice, group: PermGroup,
                                  profile) -> ClassFunctionTable:
    """Permutation character of the group action on corank-profile
    multichains: each element maps to its number of fixed multichains."""
    profile = tuple(int(i) for i in profile)
    return _chain_character(lat, group, [(1, profile)])


def equivariant_c_character(lat: FlatLattice, group: PermGroup,
                            i: int) -> ClassFunctionTable:
    """Virtual character of the i-th Kazhdan-Lusztig coefficient: the signed
    sum of the Whitney permutation characters over the index tuples.  Its
    value at the identity is the plain coefficient."""
    if i < 1:
        raise ValueError("equivariant coefficient needs i >= 1")
    tuples = enumerate_index_tuples(i, lat.rk_total)
    return _chain_character(lat, group,
                            [(tup.sign, tup.profile()) for tup in tuples])
