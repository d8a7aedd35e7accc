"""Kazhdan-Lusztig polynomials P(t) and Z-polynomials of a lattice of flats,
by four independent routes that must agree:

  * the defining functional equation (read coefficients off its tail),
  * Mobius inversion of the Z-polynomial assembly,
  * the palindromicity recursion expressing c(i) through contractions,
  * the closed alternating sum of multi-indexed Whitney numbers.

All arithmetic is exact big-integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .matroid import FlatLattice, mobius_from_bottom, whitney_multi
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
    return [(tup.sign, tup.profile(), whitney_multi(lat, tup.profile()))
            for tup in enumerate_index_tuples(i, lat.rk_total)]


# ---------------------------------------------------------------------------
# method 1: the defining functional equation


def _p_table(lat: FlatLattice):
    """P of every upper interval [F, top], keyed by flat id.

    For each flat F, working down the lattice, form
        R_F(t) = sum over G > F of chi_{[F,G]}(t) * P_G(t)
    and read the coefficients of P_F off the high-degree tail of R_F.
    The Mobius values mu(F, .) and the chi contributions are accumulated in
    one fused sweep over chains F <= H <= G.  That sweep grows with the
    number of 3-chains and dominates the cost on large lattices such as the
    partition lattice of braid d=8.
    """
    table = lat._cache.get("ptable")
    if table is not None:
        return table
    n = lat.n
    ranks = lat.ranks
    rk_total = lat.rk_total
    ups = lat.uppers()
    P = [None] * n
    acc = [0] * n
    for f in sorted(range(n), key=lambda x: -ranks[x]):
        crk = rk_total - ranks[f]
        if crk == 0:
            P[f] = (1,)
            continue
        ups_f = ups[f]
        R = [0] * (crk + 1)
        rank_f = ranks[f]
        # H = F contributes mu = 1 to every chain starting at F.
        for g in ups_f:
            acc[g] += 1
            base = ranks[g] - rank_f
            for j, c in enumerate(P[g]):
                R[base + j] += c
        # H > F: by increasing rank, so acc[h] is complete when read.
        for h in ups_f:
            m = -acc[h]
            if m:
                rank_h = ranks[h]
                for j, c in enumerate(P[h]):
                    R[j] += m * c
                for g in ups[h]:
                    acc[g] += m
                    base = ranks[g] - rank_h
                    for j, c in enumerate(P[g]):
                        R[base + j] += m * c
        for h in ups_f:
            acc[h] = 0
        if R[crk] != 1:
            raise RuntimeError("functional equation must have leading tail 1")
        coeffs = [1]
        for i in range(1, (crk + 1) // 2):
            coeffs.append(R[crk - i])
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        P[f] = tuple(coeffs)
    table = tuple(P)
    lat._cache["ptable"] = table
    return table


def kl_defining(lat: FlatLattice) -> IntPolynomial:
    """P(t) characterized by P = 1 in rank 0, deg P < rk/2, and the
    chi-twisted functional equation over all flats."""
    return IntPolynomial(_p_table(lat)[lat.bottom_id])


def z_polynomial(lat: FlatLattice) -> IntPolynomial:
    """Z(t) = sum over flats F of t^{rk F} P_{M^F}(t)."""
    P = _p_table(lat)
    out = [0] * (lat.rk_total + 1)
    for f in range(lat.n):
        base = lat.ranks[f]
        for j, c in enumerate(P[f]):
            out[base + j] += c
    return IntPolynomial(out)


def _z_of_interval(lat: FlatLattice, fid: int, P) -> list:
    rank_f = lat.ranks[fid]
    out = [0] * (lat.rk_total - rank_f + 1)
    for g in [fid] + list(lat.uppers()[fid]):
        base = lat.ranks[g] - rank_f
        for j, c in enumerate(P[g]):
            out[base + j] += c
    return out


def kl_via_mobius(lat: FlatLattice) -> IntPolynomial:
    """P(t) assembled as sum_F mu(bottom,F) t^{rk F} Z_{M^F}(t); exact
    inverse of the Z-polynomial definition."""
    P = _p_table(lat)
    mu = mobius_from_bottom(lat)
    out = [0] * (lat.rk_total + 1)
    for f in range(lat.n):
        m = mu[f]
        if not m:
            continue
        base = lat.ranks[f]
        for j, c in enumerate(_z_of_interval(lat, f, P)):
            out[base + j] += m * c
    return IntPolynomial(out)


# ---------------------------------------------------------------------------
# method 3: the recursion extracted from palindromicity


def kl_coeff_new_recursion(lat: FlatLattice, i: int) -> int:
    """c(i) via c(i) = sum_{F>bottom} c_{M^F}(crk F - i) - sum_{F>bottom}
    c_{M^F}(i - rk F), grounded only in c(0) = 1 and the degree bound.

    Out-of-range inner requests return 0; the descent is strict in both rank
    and coefficient index, so memoization over (flat, i) terminates.
    """
    if i < 0:
        raise ValueError("coefficient index must be nonnegative")
    memo = lat._cache.setdefault("c_recursion", {})
    ranks = lat.ranks
    rk_total = lat.rk_total
    ups = lat.uppers()

    def c(fid: int, j: int) -> int:
        if j == 0:
            return 1
        crk = rk_total - ranks[fid]
        if j < 0 or 2 * j >= crk:
            return 0
        key = (fid, j)
        val = memo.get(key)
        if val is not None:
            return val
        rank_f = ranks[fid]
        total = 0
        for g in ups[fid]:
            crk_g = rk_total - ranks[g]
            total += c(g, crk_g - j) - c(g, j - (ranks[g] - rank_f))
        memo[key] = total
        return total

    return c(lat.bottom_id, i)


# ---------------------------------------------------------------------------
# method 4: the closed formula over Whitney numbers


def kl_coeff_closed(lat: FlatLattice, i: int) -> int:
    """c(i) as the signed sum of multi-indexed Whitney numbers over the
    index tuples; empty (hence 0) when rk <= 2i."""
    if i < 1:
        raise ValueError("closed formula applies for i >= 1")
    total = 0
    for tup in enumerate_index_tuples(i, lat.rk_total):
        total += tup.sign * whitney_multi(lat, tup.profile())
    return total


def kl_by_method(lat: FlatLattice, method: KlMethod) -> IntPolynomial:
    """The full P(t) by any of the four methods (coefficient methods are
    assembled degree by degree up to the bound)."""
    if method is KlMethod.DEFINING:
        return kl_defining(lat)
    if method is KlMethod.MOBIUS_INVERSION:
        return kl_via_mobius(lat)
    rk = lat.rk_total
    coeffs = [1]
    for i in range(1, (rk + 1) // 2):
        if method is KlMethod.NEW_RECURSION:
            coeffs.append(kl_coeff_new_recursion(lat, i))
        else:
            coeffs.append(kl_coeff_closed(lat, i))
    return IntPolynomial(coeffs)
