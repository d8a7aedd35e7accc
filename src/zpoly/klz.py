"""Kazhdan-Lusztig polynomials P(t) and Z-polynomials of a lattice of flats,
by four routes that must agree:

  * the defining functional equation (read coefficients off its tail),
  * Mobius inversion of the Z-polynomial assembly,
  * the palindromicity recursion expressing c(i) through contractions,
  * the closed alternating sum of multi-indexed Whitney numbers.

One solver, _pz_solve, turns the sum of t^{rk G} P_G over the flats G
above a flat into its P and Z by palindromicity.  It runs over Whitney rows
in the family recursion (families.py), and on a lattice in the cached
table, at the orbit positions of matroid._orbit_rows, whose rows count each
representative's up-set by orbit once per lattice.  z_polynomial,
kl_via_mobius and kl_coeff_new_recursion read the table; kl_defining never
does: it solves and checks the functional equation at the same positions
with its own P and Z.  Each sums once per (orbit, count) pair; the
verifier's bottom row and kl_via_mobius add each orbit once, weighted by
its size.

The closed formula is one sum, _closed_sum, over any Whitney source: lattice
multichains, family tables, h-products, or one class's fixed chains.

All arithmetic is exact big-integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, repeat
from operator import index

from .matroid import FlatLattice, _orbit_rows, mobius_from_bottom, whitney_multi
from .polyarith import IntPolynomial


class KlMethod(Enum):
    DEFINING = "defining"
    MOBIUS_INVERSION = "mobius"
    NEW_RECURSION = "recursion"
    CLOSED_FORMULA = "closed"


def t_index(j: int, subset, r: int) -> int:
    """t_j(S) = min{k : k >= j and k not in S}, for S a subset of {1..r}.

    j may run up to r+1; since S contains nothing above r the value always
    lands in {1, ..., r+1}.
    """
    k = j
    while k in subset:
        k += 1
    return k


@dataclass(frozen=True)
class IndexTuple:
    """One summand index of the closed formula: r, S subset of {1..r}, and the
    pinned strictly increasing sequence a_0 < ... < a_{r+1}."""
    r: int
    subset: frozenset
    a: tuple

    def __post_init__(self):
        a = self.a
        if len(a) != self.r + 2:
            raise ValueError("a must have r+2 entries")
        if a[0] != 0:
            raise ValueError("a_0 must be 0")
        if any(a[i] >= a[i + 1] for i in range(self.r + 1)):
            raise ValueError("a must be strictly increasing")
        if any(not 1 <= s <= self.r for s in self.subset):
            raise ValueError("S must be a subset of {1..r}")

    def profile(self) -> tuple:
        """Whitney profile [a_{t_r(S)}+a_{r-1}, ..., a_{t_1(S)}+a_0]."""
        a, s, r = self.a, self.subset, self.r
        return tuple(a[t_index(j, s, r)] + a[j - 1] for j in range(r, 0, -1))

    @property
    def sign(self) -> int:
        return -1 if len(self.subset) % 2 else 1


def enumerate_index_tuples(i: int, rk: int) -> list:
    """All index tuples of the closed formula for c(i) on a rank-rk matroid.

    Empty when rk <= 2i; otherwise there are exactly 2 * 3^(i-1) of them.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if rk <= 2 * i:
        return []
    out = []
    for r in range(1, i + 1):
        for interior in combinations(range(1, i), r - 1):
            a = (0,) + interior + (i, rk - i)
            for bits in range(1 << r):
                s = frozenset(j + 1 for j in range(r) if bits >> j & 1)
                out.append(IndexTuple(r, s, a))
    return out


def closed_formula_terms(lat: FlatLattice, i: int) -> list:
    """The signed Whitney terms of the closed formula, for inspection:
    a list of (sign, profile, value) triples."""
    return [(sign, profile, whitney_multi(lat, profile))
            for sign, profile in _signed_profiles(i, lat.rk_total)]


# ---------------------------------------------------------------------------
# the P/Z table: palindromicity of every Z_F, one solve per orbit


def _pz_solve(keys, corank, rows, P, Z):
    """Fill P[f] and Z[f] for each f of keys in turn.  rows(f) yields (g, k)
    pairs, g solved before f: S = sum of k t^{crk f - crk g} P[g] is the sum
    over flats G above F of t^{rk G - rk F} P_G.  Z = P + S is palindromic
    and deg P < crk / 2, so P[j] = S[crk - j] - S[j]."""
    for f in keys:
        d = corank[f]
        S = [0] * (d + 1)
        for g, k in rows(f):
            for j, c in enumerate(P[g], d - corank[g]):
                S[j] += k * c
        p = [1] + [S[d - j] - S[j] for j in range(1, (d + 1) // 2)]
        while p[-1] == 0:
            p.pop()
        for j, c in enumerate(p):
            S[j] += c
        P[f] = tuple(p)
        Z[f] = tuple(S)


def _p_table(lat: FlatLattice):
    """(P, Z) of every upper interval [F, top], keyed by flat id, cached.

    _pz_solve runs the recursion of kl_coeff_new_recursion at the orbit
    positions of _orbit_rows, top first; each flat reads its orbit's answer
    through slot.  A row is the numbering's: with symmetry the
    representative's up-set as (position, count) pairs, the bottom's
    holding the other orbits with their sizes; without, flat ids, each
    counted once.
    """
    table = lat._cache.get("pz")
    if table is not None:
        return table
    ranks, ups, slot = _orbit_rows(lat)
    if lat.symmetry:
        rows = ups.__getitem__
    else:
        rows = lambda f: zip(ups[f], repeat(1))
    P, Z = [None] * len(ranks), [None] * len(ranks)
    _pz_solve(reversed(range(len(ranks))), [lat.rk_total - r for r in ranks], rows, P, Z)
    table = (tuple(map(P.__getitem__, slot)), tuple(map(Z.__getitem__, slot)))
    lat._cache["pz"] = table
    return table


def z_polynomial(lat: FlatLattice) -> IntPolynomial:
    """Z(t) = sum over flats F of t^{rk F} P_{M^F}(t)."""
    return IntPolynomial(_p_table(lat)[1][lat.bottom_id])


def kl_via_mobius(lat: FlatLattice) -> IntPolynomial:
    """P(t) assembled as sum_F mu(bottom,F) t^{rk F} Z_{M^F}(t); exact
    inverse of the Z-polynomial definition.  A nonzero coefficient at a
    degree j >= 1 with 2j >= rk breaks the degree bound: an error."""
    Z = _p_table(lat)[1]
    mu = mobius_from_bottom(lat)
    rk = lat.rk_total
    out = [0] * (rk + 1)
    for f, k in lat.orbit_size.items():     # Z and mu are constant on orbits
        for j, c in enumerate(Z[f], lat.ranks[f]):
            out[j] += k * mu[f] * c
    for j in range(max(1, (rk + 1) // 2), rk + 1):
        if out[j]:
            raise RuntimeError(f"Mobius inversion leaves {out[j]} at degree {j}, "
                               f"above the degree bound of rank {rk}")
    return IntPolynomial(out)


def kl_coeff_new_recursion(lat: FlatLattice, i: int) -> int:
    """c(i) via c(i) = sum_{F>bottom} c_{M^F}(crk F - i) - sum_{F>bottom}
    c_{M^F}(i - rk F), grounded only in c(0) = 1 and the degree bound.

    The P/Z table applies exactly this recursion at every flat, bottom last.
    """
    if (i := index(i)) < 0:
        raise ValueError("coefficient index must be nonnegative")
    p = _p_table(lat)[0][lat.bottom_id]
    return p[i] if i < len(p) else 0


# ---------------------------------------------------------------------------
# the defining functional equation, as an independent verifier


def _defining_table(lat: FlatLattice):
    """(P, Z) of every upper interval from the defining equation alone.

    For each flat F, working down the lattice,
        R_F = sum over G >= F of chi_{[F,G]} P_G = sum over H >= F of mu(F,H) Z_H
    must equal t^{crk} P_F(1/t).  Its tail gives
        P_F[i] = S_F[crk - i] + sum over H > F of mu(F,H) Z_H[crk - i],
    and its low half (degrees <= crk/2) must vanish.  It is solved and
    checked at the orbit positions of _orbit_rows; each flat reads its
    orbit's answer through slot.  Without symmetry, mu(F, .) comes from a
    scalar sweep over chains F <= H <= G.  With it, automorphisms keep
    N[H][O], the number of flats of orbit O above H, so F's row is N[F],
    the (O, N[F][O]) pairs of its count row in _orbit_rows, and sums over
    orbits: S of N[F][O] P_O, and T of M[O] Z_O, where M[O] sums mu(F, H)
    over the H of O above F.  Since
    mu(F, .) sums to 0 on every [F, G], M[O'] = -N[F][O'] - sum over O of
    M[O] N[O][O'], pushed by rank.  The bottom's row adds each other orbit
    once, by its size, as mu(bottom, .) is constant on orbits; mu comes
    from mobius_from_bottom, a lattice input shared with kl_via_mobius.
    Shares nothing with _p_table; keeps no P or Z.
    """
    ranks, ups, slot = _orbit_rows(lat)
    rk_total = lat.rk_total
    P, Z = [None] * len(ranks), [None] * len(ranks)
    acc = [0] * len(ranks)
    for f in reversed(range(len(ranks))):
        rank_f = ranks[f]
        crk = rk_total - rank_f
        if crk == 0:
            P[f] = Z[f] = (1,)
            continue
        S = [0] * (crk + 1)         # sum over G > F of t^{rk G - rk F} P_G
        T = [0] * (crk + 1)         # sum over H > F of mu(F, H) Z_H
        if f == 0:                  # the bottom's orbit is first
            mu = mobius_from_bottom(lat)
            for h, (g, k) in enumerate([*lat.orbit_size.items()][1:], 1):
                for j, c in enumerate(P[h]):
                    S[ranks[h] + j] += k * c
                for j, c in enumerate(Z[h]):
                    T[j] += k * mu[g] * c
        elif lat.symmetry:
            for h, k in ups[f]:         # by rank: acc[h] is complete
                for j, c in enumerate(P[h], ranks[h] - rank_f):
                    S[j] += k * c
                m = -k - acc[h]         # sum of mu(F, H) over the H > F of orbit h
                acc[h] = 0
                if m:
                    for g, kg in ups[h]:
                        acc[g] += m * kg
                    for j, c in enumerate(Z[h]):
                        T[j] += m * c
        else:
            ups_f = ups[f]
            for g in ups_f:
                acc[g] += 1
                base = ranks[g] - rank_f
                for j, c in enumerate(P[g]):
                    S[base + j] += c
            for h in ups_f:         # by increasing rank: acc[h] is complete
                m = -acc[h]
                acc[h] = 0
                if m:
                    for g in ups[h]:
                        acc[g] += m
                    for j, c in enumerate(Z[h]):
                        T[j] += m * c
        if S[crk] + T[crk] != 1:
            raise RuntimeError("functional equation must have leading tail 1")
        p = [1] + [S[crk - i] + T[crk - i] for i in range(1, (crk + 1) // 2)]
        while p[-1] == 0:
            p.pop()
        for j, c in enumerate(p):
            S[j] += c
        if any(S[j] + T[j] for j in range(crk // 2 + 1)):
            raise RuntimeError("functional equation fails in low degrees")
        P[f] = tuple(p)
        Z[f] = tuple(S)
    return [*map(P.__getitem__, slot)], [*map(Z.__getitem__, slot)]


def kl_defining(lat: FlatLattice) -> IntPolynomial:
    """P(t) characterized by P = 1 in rank 0, deg P < rk/2, and the
    chi-twisted functional equation over all flats."""
    return IntPolynomial(_defining_table(lat)[0][lat.bottom_id])


# ---------------------------------------------------------------------------
# the closed formula over Whitney numbers


@lru_cache(maxsize=None)
def _signed_profiles(i: int, rk: int) -> tuple:
    """(sign, profile) of every index tuple of c(i) on a rank-rk matroid."""
    return tuple((tup.sign, tup.profile()) for tup in enumerate_index_tuples(i, rk))


def _closed_sum(i: int, rk: int, whitney, zero):
    """The closed formula for c(i) of a rank-rk matroid, over any Whitney
    source: zero plus sign * whitney(profile) for every index tuple, where
    whitney maps a corank profile to a multichain count or character.
    Empty (hence zero) when rk <= 2i."""
    if i < 1:
        raise ValueError("closed formula applies for i >= 1")
    total = zero
    for sign, profile in _signed_profiles(i, rk):
        total = total + sign * whitney(profile)
    return total


def kl_coeff_closed(lat: FlatLattice, i: int) -> int:
    """c(i) as the signed sum of multi-indexed Whitney numbers over the
    index tuples; empty (hence 0) when rk <= 2i."""
    return _closed_sum(i, lat.rk_total, lambda profile: whitney_multi(lat, profile), 0)


def kl_by_method(lat: FlatLattice, method: KlMethod) -> IntPolynomial:
    """The full P(t) by any of the four methods (coefficient methods are
    assembled degree by degree up to the bound)."""
    if method is KlMethod.DEFINING:
        return kl_defining(lat)
    if method is KlMethod.MOBIUS_INVERSION:
        return kl_via_mobius(lat)
    coeff = kl_coeff_new_recursion if method is KlMethod.NEW_RECURSION else kl_coeff_closed
    return IntPolynomial([1] + [coeff(lat, i) for i in range(1, (lat.rk_total + 1) // 2)])
