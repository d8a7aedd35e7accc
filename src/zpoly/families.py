"""Fast big-integer engine for the four contraction-closed families: braid,
type-B reflection arrangement, uniform U_{m,d}, and the full vector matroid
over F_q.

Whitney tables W_d(k) / w_d(k) are filled by corank k.  Braid, type B and
F_q are supersolvable with chi_d(t) = prod_{i<d} (t - r(i)), and one row
recurrence in the exponents r(i) fills all three: r(i) = 1 + m i for the
Dowling lattices Q_d(G) of a group of order m = 1 and m = 2 (Dowling, A
class of geometric lattices based on finite groups, JCTB 14, 1973), r(i) =
q^i for F_q (q-Pascal).  U_{m,d} has one signed row per rank, w_d(k) =
(-1)^{d-k} C(d+m, k+m) = +-W_d(k) for k >= 1, closed by chi(1) = 0.
P_d and Z_d then come from the family recursion, never touching a lattice:
the P/Z table's solver (klz._pz_solve) with one row per rank, since the
W_d(k) flats of corank k each contract to the rank-k member.
Every entry point checks d against the tables' range.  Everything
cross-validates against the lattice-based computations at small rank:
lattice_spec gives each rank-d member as one spec for enumerate_flats, the
F_q member (q prime) as LinearVectors of all nonzero vectors over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import index

from .klz import _closed_sum, _pz_solve
from .matroid import (GraphSpec, LinearVectors, MatroidSpec, UniformSpec, _bits,
                      _integer, _is_prime, enumerate_flats)
from .polyarith import IntPolynomial


def binomial(n: int, k: int) -> int:
    """C(n, k), 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, 0 outside the triangle."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind:
    t(t-1)...(t-n+1) = sum_k s(n,k) t^k.  0 outside the triangle."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return stirling1_signed(n - 1, k - 1) - (n - 1) * stirling1_signed(n - 1, k)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """q-binomial coefficient by the q-Pascal recurrence
    C_q(n,k) = C_q(n-1,k-1) + q^k C_q(n-1,k); 0 outside the triangle.
    The F_q Whitney tables do not use it, so it checks them independently."""
    if n < 0 or k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q ** k * gaussian_binomial(n - 1, k, q)


def narayana(n: int, k: int) -> int:
    """Narayana number N(n, k) = C(n,k) C(n,k-1) / n; 0 out of range."""
    if not 1 <= k <= n:
        return 0
    num, rem = divmod(binomial(n, k) * binomial(n, k - 1), n)
    if rem:
        raise ArithmeticError(f"N({n}, {k}) is not an integer")
    return num


def _is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and k >= 1, with no search for a
    factor: p is q's exact integer k-th root, found by Newton's method from
    above, and _is_prime decides it."""
    if q < 2:
        return False
    for k in range(q.bit_length() - 1, 0, -1):     # 2^k <= p^k
        r = 1 << -(-q.bit_length() // k)
        while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
            r = s
        if r ** k == q and _is_prime(r):
            return True
    return False


@dataclass(frozen=True)
class NiceFamily:
    """One of the four contraction-closed families.

    kind is 'braid', 'typeb', 'uniform' (param = m >= 1) or 'qvec'
    (param = prime power q >= 2).
    """
    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind in ("braid", "typeb"):
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.kind == "uniform":
            if self.param is None or _integer(self.param) < 1:
                raise ValueError("uniform family needs m >= 1")
        elif self.kind == "qvec":
            if self.param is None or not _is_prime_power(_integer(self.param)):
                raise ValueError("qvec family needs a prime power q >= 2")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def __str__(self):
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"


BRAID = NiceFamily("braid")
TYPE_B = NiceFamily("typeb")


def uniform_family(m: int) -> NiceFamily:
    return NiceFamily("uniform", m)


def qvec_family(q: int) -> NiceFamily:
    return NiceFamily("qvec", q)


def parse_family(text: str) -> NiceFamily:
    """Parse 'braid', 'typeb', 'uniform:m', 'qvec:q'."""
    kind, _, param = text.strip().lower().partition(":")
    if not param:
        return NiceFamily(kind)
    try:
        value = int(param)
    except ValueError:
        raise ValueError(f"family {text!r}: parameter {param!r} is not an integer") from None
    return NiceFamily(kind, value)


@dataclass
class WhitneyTables:
    """Precomputed W_d(k) (flat counts by corank) and w_d(k) (characteristic
    polynomial coefficients) for 0 <= k <= d <= d_max."""
    family: NiceFamily
    d_max: int
    W: list
    w: list
    _pz: tuple = field(default_factory=lambda: ([], []), repr=False)

    def _check_rank(self, d: int) -> None:
        """Raise TypeError unless d is an int, ValueError unless the tables
        reach the rank-d member."""
        if not 0 <= _integer(d) <= self.d_max:
            raise ValueError(f"d={d} outside table range 0..{self.d_max}")

    def W_val(self, d: int, k: int) -> int:
        if 0 <= k <= d <= self.d_max:
            return self.W[d][k]
        return 0

    def w_val(self, d: int, k: int) -> int:
        if 0 <= k <= d <= self.d_max:
            return self.w[d][k]
        return 0


# |G| of the Dowling lattice Q_d(G) that is each family's rank-d member
_DOWLING_ORDER = {"braid": 1, "typeb": 2}


def _exponent_rows(r: list, d_max: int):
    """W and w, by corank k, of a supersolvable family whose rank-d member
    has chi_d(t) = prod_{i<d} (t - r[i]), for d <= d_max:
    W_d(k) = W_{d-1}(k-1) + r[k] W_{d-1}(k), and
    w_d(k) = w_{d-1}(k-1) - r[d-1] w_{d-1}(k)."""
    W, w = [[1]], [[1]]
    for d in range(1, d_max + 1):
        Wp, wp, root = W[-1], w[-1], r[d - 1]
        W.append([x + rk * y for rk, x, y in zip(r, [0] + Wp, Wp + [0])])
        w.append([x - root * y for x, y in zip([0] + wp, wp + [0])])
    return W, w


def build_tables(family: NiceFamily, d_max: int) -> WhitneyTables:
    """Fill the Whitney tables: braid and typeb by the exponents 1 + m i of
    the Dowling lattice with m = 1 and m = 2 (Dowling 1973), qvec by the
    exponents q^i (q-Pascal), uniform from one signed row per rank whose
    entry at corank 0 makes chi(1) = 0."""
    if _integer(d_max) < 0:
        raise ValueError("d_max must be nonnegative")
    kind, p = family.kind, family.param
    if kind != "uniform":
        m = _DOWLING_ORDER.get(kind)
        r = [1 + m * i if m else p ** i for i in range(d_max + 1)]
        return WhitneyTables(family, d_max, *_exponent_rows(r, d_max))
    W, w = [[1]], [[1]]
    for d in range(1, d_max + 1):
        row = [(-1) ** (d - k) * comb(d + p, k + p) for k in range(1, d + 1)]
        W.append([1] + list(map(abs, row)))
        w.append([-sum(row)] + row)     # chi(1) = 0 for d >= 1
    return WhitneyTables(family, d_max, W, w)


def _pz(tables: WhitneyTables, d: int) -> tuple:
    """(P_d, Z_d) coefficient tuples, memoized over ranks 0..d.

    The flats above the bottom of the rank-n member are W_n(k) flats of
    each corank k < n, each contracting to the rank-k member: the rows of
    klz._pz_solve, with the rank as corank.
    """
    tables._check_rank(d)
    P, Z = tables._pz
    n = len(P)
    if n <= d:      # the memo takes the new ranks only once all are solved
        P, Z = P + [None] * (d + 1 - n), Z + [None] * (d + 1 - n)
        W = tables.W
        _pz_solve(range(n, d + 1), list(range(d + 1)), lambda r: enumerate(W[r][:r]), P, Z)
        tables._pz = P, Z
    return P[d], Z[d]


def kl_family(tables: WhitneyTables, d: int) -> IntPolynomial:
    """P_d(t) by the family recursion; no lattice involved."""
    return IntPolynomial(_pz(tables, d)[0])


def z_family(tables: WhitneyTables, d: int) -> IntPolynomial:
    """Z_d(t) = sum_k W_d(k) t^{d-k} P_k(t)."""
    return IntPolynomial(_pz(tables, d)[1])


def p_from_z_inversion(tables: WhitneyTables, d: int) -> IntPolynomial:
    """P_d(t) = sum_k w_d(k) t^{d-k} Z_k(t): the inverse half of the
    transform between the P and Z generating sequences."""
    tables._check_rank(d)
    out = [0] * (d + 1)
    for k in range(d + 1):
        wdk = tables.w[d][k]
        if wdk == 0:
            continue
        for j, c in enumerate(_pz(tables, k)[1], d - k):
            out[j] += wdk * c
    return IntPolynomial(out)


def whitney_multi_family(tables: WhitneyTables, d: int, profile) -> int:
    """Multi-indexed Whitney number of the rank-d family member:
    W_d(i_r,...,i_1) = prod_j W_{i_{j+1}}(i_j) with i_{r+1} = d.

    The profile is corank-major, [i_r, ..., i_1], as everywhere else.
    """
    tables._check_rank(d)
    chain = [index(i) for i in reversed(list(profile))] + [d]
    return prod(map(tables.W_val, chain[1:], chain))


def kl_closed_family(tables: WhitneyTables, d: int, i: int) -> int:
    """c_d(i) by the closed formula over whitney_multi_family: each index
    tuple's chain ends at a_{r+1} + a_r = d, so its term is the product of
    W_{a_{t_{j+1}(S)}+a_j}(a_{t_j(S)}+a_{j-1})."""
    tables._check_rank(d)
    return _closed_sum(i, d, lambda profile: whitney_multi_family(tables, d, profile), 0)


def q_shift_check(q: int, d_max: int) -> bool:
    """Exactly verify Z_d(t) = Z_{d-1}(qt) + t Z_{d-1}(t) for 1 <= d <= d_max
    in the F_q vector-matroid family; vacuously True for d_max = 0."""
    if q < 2:
        raise ValueError(f"need q >= 2, got q = {q}")
    tables = build_tables(qvec_family(q), d_max)
    for d in range(1, d_max + 1):
        zd = z_family(tables, d)
        zprev = z_family(tables, d - 1)
        scaled = IntPolynomial([c * q ** j for j, c in enumerate(zprev.coeffs)])
        if zd != scaled + zprev.shift(1):
            return False
    return True


# ---------------------------------------------------------------------------
# generating-function identities


def _times(a: list, b: list) -> list:
    """Product of two coefficient lists of one length n + 1, truncated at x^n."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def series_identity_check(family: NiceFamily, order: int) -> bool:
    """Verify, to the given order, the exponential generating-function
    identities of the braid and type-B families, the Dowling lattices with
    m = 1 and m = 2, in the one variable x = tu:

      * the closed forms of g_k (EGF of w_d(k)) and G_k (EGF of W_d(k)),
          G_k = e^x ((e^{mx} - 1) / m)^k / k!,
          g_k = (1 + mx)^{-1/m} (log(1 + mx) / m)^k / k!,
        as exact Taylor coefficients: d! [x^d] G_k = W_d(k), d! [x^d] g_k = w_d(k);
      * P(t,u) = sum_k t^{-k} Z_k(t) g_k(tu) and
        Z(t,u) = sum_k t^{-k} P_k(t) G_k(tu).  u enters only through g_k
        and G_k, so their u^d coefficients are the polynomial identities
        P_d = sum_k w_d(k) t^{d-k} Z_k (p_from_z_inversion) and
        Z_d = sum_k W_d(k) t^{d-k} P_k.
    """
    if not 0 <= order <= 16:
        raise ValueError(f"order must be in 0..16 (capped at 16), got {order}")
    m = _DOWLING_ORDER.get(family.kind)
    if m is None:
        raise ValueError("series identities are implemented for braid and typeb")
    tables = build_tables(family, order)
    # Taylor coefficients of e^x, (e^{mx} - 1)/m, log(1 + mx)/m and, by the
    # binomial series, (1 + mx)^{-1/m}: G_0 and g_0, then the k-th power factors
    js = range(1, order + 1)
    G = [Fraction(1, factorial(j)) for j in range(order + 1)]
    expm1 = [0] + [Fraction(m ** (j - 1), factorial(j)) for j in js]
    logm = [0] + [Fraction((-1) ** (j + 1) * m ** (j - 1), j) for j in js]
    g = [Fraction(1)]
    for j in range(order):
        g.append(g[j] * (-1 - m * j) / (j + 1))
    for k in range(order + 1):
        if k:
            G = [c / k for c in _times(G, expm1)]
            g = [c / k for c in _times(g, logm)]
        if any(factorial(d) * G[d] != tables.W_val(d, k)
               or factorial(d) * g[d] != tables.w_val(d, k) for d in range(order + 1)):
            return False
    return all(kl_family(tables, d) == p_from_z_inversion(tables, d)
               and z_family(tables, d) == sum((c * kl_family(tables, k).shift(d - k)
                                               for k, c in enumerate(tables.W[d])),
                                              IntPolynomial())
               for d in range(order + 1))


# ---------------------------------------------------------------------------
# lattice realizations for cross-validation


def lattice_spec(family: NiceFamily, d: int) -> MatroidSpec:
    """A matroid spec whose lattice of flats realizes the rank-d member."""
    if _integer(d) < 0:
        raise ValueError("rank must be nonnegative")
    kind, p = family.kind, family.param
    if kind == "braid":
        nv = d + 1
        return GraphSpec(nv, tuple((u, v) for u in range(nv) for v in range(u + 1, nv)))
    if kind == "typeb":
        vectors = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            vectors.append(tuple(e))
        for i in range(d):
            for j in range(i + 1, d):
                for sgn in (-1, 1):
                    e = [0] * d
                    e[i] = 1
                    e[j] = sgn
                    vectors.append(tuple(e))
        return LinearVectors(tuple(vectors))
    if kind == "uniform":
        return UniformSpec(p, d)
    if not _is_prime(p):
        raise ValueError("lattice realization needs q prime")
    return LinearVectors(tuple(tuple(code // p ** k % p for k in range(d))
                               for code in range(1, p ** d)), p)


def _spec_elements(family: NiceFamily, d: int) -> int:
    """The number of elements lattice_spec(family, d) lists, without listing them."""
    kind, q = family.kind, family.param
    if kind == "braid":
        return d * (d + 1) // 2
    if kind == "typeb":
        return d * d
    return q + d if kind == "uniform" else q ** d - 1


def qvec_flats(q: int, d: int):
    """(ground size, flats) of the matroid of all nonzero vectors of F_q^d,
    with flats the subspaces: the lattice of lattice_spec(qvec_family(q), d),
    for prime q.  Element i is the vector whose base-q digits, least
    significant first, are those of i + 1; the Whitney tables cover general
    prime powers."""
    lat = enumerate_flats(lattice_spec(qvec_family(q), d))
    return lat.n_ground, tuple(frozenset(_bits(m)) for m in lat.flats)
