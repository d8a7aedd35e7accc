"""Slow, independent reference implementations used as test oracles.

Everything here is deliberately naive (direct definitions, brute-force
enumeration) and shares no code path with the library internals it checks.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from zpoly import IntPolynomial


# --- poset oracles on lists of frozensets ordered by inclusion


def lattice_as_sets(lat):
    return [frozenset(lat.flat_elements(i)) for i in range(lat.n)]


def mobius_naive(sets):
    """mu(bottom, F) straight from the defining recursion."""
    bottom = min(sets, key=len)
    memo = {}

    def mu(F):
        if F == bottom:
            return 1
        if F in memo:
            return memo[F]
        val = -sum(mu(G) for G in sets if G < F or (len(G) < len(F) and G <= F))
        memo[F] = val
        return val

    return {F: mu(F) for F in sets}


def _ranks_by_chains(members):
    ranks = {}
    for F in sorted(members, key=len):
        below = [G for G in members if G != F and G <= F]
        ranks[F] = 1 + max((ranks[G] for G in below), default=-1)
    return ranks


def chi_naive(members):
    """Characteristic polynomial coefficients of an interval, low to high."""
    ranks = _ranks_by_chains(members)
    top_rank = max(ranks.values())
    mu = mobius_naive(list(members))
    coeffs = [0] * (top_rank + 1)
    for F in members:
        coeffs[top_rank - ranks[F]] += mu[F]
    return coeffs


def kl_naive_sets(members):
    """P(t) coefficients by the defining properties: build
    R = sum_{F > bottom} chi([bottom, F]) P([F, top]) and read the tail."""
    members = sorted(members, key=len)
    ranks = _ranks_by_chains(members)
    rk = max(ranks.values())
    if rk == 0:
        return [1]
    bottom = members[0]
    R = [0] * (rk + 1)
    for F in members:
        if F == bottom:
            continue
        lower = [G for G in members if G <= F]
        upper = [G for G in members if F <= G]
        chi = chi_naive(lower)
        pf = kl_naive_sets(upper)
        for i, a in enumerate(chi):
            for j, b in enumerate(pf):
                R[i + j] += a * b
    coeffs = [1]
    for i in range(1, (rk + 1) // 2):
        coeffs.append(R[rk - i])
    return coeffs


def kl_naive(lat):
    return IntPolynomial(kl_naive_sets(lattice_as_sets(lat)))


def z_naive(lat):
    """Z(t) directly from its definition, with naive-oracle P's."""
    sets = lattice_as_sets(lat)
    out = [0] * (lat.rk_total + 1)
    for i, F in enumerate(sets):
        upper = [G for G in sets if F <= G]
        for j, c in enumerate(kl_naive_sets(upper)):
            out[lat.ranks[i] + j] += c
    return IntPolynomial(out)


def chain_count_naive(lat, profile):
    """Multichain count by brute-force iteration over flat tuples."""
    sets = lattice_as_sets(lat)
    coranks = [lat.rk_total - lat.ranks[i] for i in range(lat.n)]
    layers = [[sets[i] for i in range(lat.n) if coranks[i] == c] for c in profile]
    count = 0
    for chain in product(*layers):
        if all(chain[j] <= chain[j + 1] for j in range(len(chain) - 1)):
            count += 1
    return count


# --- flat enumeration oracles


def rank_by_fractions(vectors):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_mod_p(vectors, p):
    """Rank over F_p (p prime) by Gaussian elimination with inverses
    pow(x, -1, p)."""
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [a * inv % p for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def bases_by_fractions(vectors):
    """Every maximal independent subset of the vectors, as index tuples."""
    r = rank_by_fractions(vectors)
    return [s for s in combinations(range(len(vectors)), r)
            if rank_by_fractions([vectors[e] for e in s]) == r]


def satisfies_basis_exchange(bases):
    """The basis exchange axiom, checked directly on frozensets."""
    bs = {frozenset(b) for b in bases}
    return all(any(b1 - {x} | {y} in bs for y in b2 - b1)
               for b1 in bs for b2 in bs for x in b1 - b2)


def graph_rank(vertices, edges):
    """rank(S) = vertices - components of (V, S), by union-find."""
    def rank(s):
        parent = list(range(vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        joined = 0
        for e in s:
            a, b = find(edges[e][0]), find(edges[e][1])
            if a != b:
                parent[a] = b
                joined += 1
        return joined
    return rank


def flats_by_naive_closure(n, rank):
    """(flats, ranks, covers) in FlatLattice's id order, from a rank function
    on frozensets: the flats are cl(S) = {x : rank(S + x) = rank(S)} for
    every subset S, and G covers F when F < G and rank(G) = rank(F) + 1."""
    subsets = [frozenset(s) for k in range(n + 1) for s in combinations(range(n), k)]
    rk = {s: rank(s) for s in subsets}
    flats = {frozenset(x for x in range(n) if rk[s | {x}] == rk[s]) for s in subsets}
    order = sorted(flats, key=lambda f: (rk[f], sum(1 << e for e in f)))
    covers = tuple(tuple(j for j, g in enumerate(order) if f < g and rk[g] == rk[f] + 1)
                   for f in order)
    return (tuple(sum(1 << e for e in f) for f in order), tuple(rk[f] for f in order), covers)


def is_flat_family(n, family):
    """The flat axioms on frozensets over range(n), straight from the
    definition: the ground set is listed, the family is closed under
    pairwise intersection, and for every F the minimal strict supersets,
    less F, partition the rest of the ground set."""
    sets = set(family)
    ground = frozenset(range(n))
    if ground not in sets or any(a & b not in sets for a in sets for b in sets):
        return False
    for F in sets:
        over = [G for G in sets if F < G]
        rests = [G - F for G in over if not any(H < G for H in over)]
        if sum(map(len, rests)) != len(ground - F) or frozenset().union(*rests) != ground - F:
            return False
    return True


def subspaces_by_brute_force(q, d):
    """Every subset of F_q^d - {0} closed under addition and scaling (q
    prime).  Such a set is a union of scaling classes {cv : c != 0}, so the
    search runs over every union of classes."""
    vectors = [v for v in product(range(q), repeat=d) if any(v)]
    classes = list({frozenset(tuple(c * x % q for x in v) for c in range(1, q))
                    for v in vectors})
    out = set()
    for pick in product((False, True), repeat=len(classes)):
        s = frozenset().union(*(cl for cl, p in zip(classes, pick) if p))
        sums = (tuple((a + b) % q for a, b in zip(x, y)) for x in s for y in s)
        if all(w in s or not any(w) for w in sums):
            out.add(s)
    return out


# --- combinatorial number oracles


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [first]] + p[i + 1:]
        yield p + [[first]]


def stirling2_by_enumeration(n, k):
    """Count set partitions of an n-set into k blocks, directly."""
    if n == 0:
        return 1 if k == 0 else 0
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def falling_factorial_coeffs(n):
    """Coefficients of t(t-1)...(t-n+1), low to high, multiplied out term by
    term."""
    coeffs = [1]
    for i in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] += -i * c
        coeffs = nxt
    return coeffs


def stirling1_by_polynomial(n, k):
    """Coefficient of t^k in t(t-1)...(t-n+1)."""
    coeffs = falling_factorial_coeffs(n)
    return coeffs[k] if 0 <= k < len(coeffs) else 0


def stirling2_by_inclusion_exclusion(n, k):
    """Surjections of an n-set onto a k-set, counted by inclusion-exclusion,
    divided by k!."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def typeb_whitney_by_double_sums(d_max):
    """(W, w) of the type-B arrangement for d <= d_max by the classical double
    sums over Stirling numbers:
        W_d(k) = sum_j 2^{j-k} C(d, j) S(j, k),
        w_d(k) = (-1)^{d-k} sum_j (-2)^{d-j} C(j, k) s(d, j)."""
    S = [[stirling2_by_inclusion_exclusion(j, k) for k in range(j + 1)]
         for j in range(d_max + 1)]
    W, w = [], []
    for d in range(d_max + 1):
        s = falling_factorial_coeffs(d)
        W.append([sum(2 ** (j - k) * comb(d, j) * S[j][k] for j in range(k, d + 1))
                  for k in range(d + 1)])
        w.append([(-1) ** (d - k) * sum((-2) ** (d - j) * comb(j, k) * s[j]
                                        for j in range(k, d + 1))
                  for k in range(d + 1)])
    return W, w


def uniform_whitney_by_binomials(m, d_max):
    """(W, w) of U(m, d) for d <= d_max by counting subsets: the flats of
    corank k >= 1 are the (d-k)-subsets of the d + m elements, each a Boolean
    interval, and mu(bottom, top) is the alternating sum
        w_d(0) = sum_{j=0}^{m} (-1)^{d+j} C(d+m, d+j)."""
    W, w = [], []
    for d in range(d_max + 1):
        W.append([1 if k == 0 else comb(d + m, k + m) for k in range(d + 1)])
        w.append([(-1) ** (d - k) * comb(d + m, k + m) if k > 0 or d == 0
                  else sum((-1) ** (d + j) * comb(d + m, d + j) for j in range(m + 1))
                  for k in range(d + 1)])
    return W, w


def narayana_by_dyck_paths(n, k):
    """Number of Dyck paths of semilength n with exactly k peaks."""
    def paths(ups, downs, height):
        if ups == 0 and downs == 0:
            yield ""
            return
        if ups > 0:
            for p in paths(ups - 1, downs, height + 1):
                yield "U" + p
        if downs > 0 and height > 0:
            for p in paths(ups, downs - 1, height - 1):
                yield "D" + p

    return sum(1 for p in paths(n, n, 0) if p.count("UD") == k)


def gaussian_by_product(n, k, q):
    """q-binomial via the product formula, evaluated exactly."""
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


# --- root-counting oracles


def sign_changes_on_grid(coeffs, lo, hi, steps=400):
    """Sign changes of the polynomial on a rational grid over [lo, hi];
    equals the root count when the roots are simple and the grid separates
    them."""
    p = IntPolynomial(coeffs)
    lo, hi = Fraction(lo), Fraction(hi)
    step = (hi - lo) / steps
    prev = 0
    changes = 0
    x = lo
    for _ in range(steps + 1):
        v = p(x)
        s = (v > 0) - (v < 0)
        if s != 0:
            if prev != 0 and s != prev:
                changes += 1
            prev = s
        x += step
    return changes


def poly_from_roots(roots):
    """Integer polynomial with the given roots: product of (t - r)."""
    p = IntPolynomial([1])
    for r in roots:
        p = p * IntPolynomial([-r, 1])
    return p


def gcd_by_roots(f_roots, g_roots):
    """gcd of the polynomials with the given root multisets: the product of
    (t - r) over the shared roots, with multiplicity; monic."""
    return poly_from_roots((Counter(f_roots) & Counter(g_roots)).elements())


def interlace_by_sorted_roots(f_roots, g_roots):
    """Verdict from known root multisets: 'strict' | 'weak' | 'none'."""
    a = sorted(f_roots)
    b = sorted(g_roots)
    assert len(a) == len(b) + 1
    if not all(a[i] <= b[i] <= a[i + 1] for i in range(len(b))):
        return "none"
    strict = all(a[i] < b[i] < a[i + 1] for i in range(len(b)))
    return "strict" if strict else "weak"


def interlace_witness_by_sorted_roots(f_roots, g_roots):
    """Witness of a non-interlacing pair from known root multisets, None
    when the pair interlaces.  Drops the roots f and g share, with
    multiplicity, labels the remaining distinct roots in increasing order by
    the polynomial they belong to, and returns the first position where the
    labels stop alternating f, g, f, ...; failing that, the position of the
    first multiple root of f, else of g."""
    common = Counter(f_roots) & Counter(g_roots)
    f_left = Counter(f_roots) - common
    g_left = Counter(g_roots) - common
    merged = sorted(set(f_left) | set(g_left))
    for k, r in enumerate(merged):
        if (r in f_left) != (k % 2 == 0):
            return k
    for left in (f_left, g_left):
        for k, r in enumerate(merged):
            if left[r] >= 2:
                return k
    return None


# --- symmetric function oracle (Pieri rule)


def pieri_multiply(mu, r):
    """s_mu * h_r as the list of shapes nu with nu/mu a horizontal strip."""
    mu = list(mu)
    n = len(mu)
    padded = mu + [0]

    def rec(i, remaining, prefix):
        if i == n + 1:
            if remaining == 0:
                yield tuple(x for x in prefix if x > 0)
            return
        lo = padded[i]
        hi = lo + remaining if i == 0 else min(mu[i - 1], lo + remaining)
        for v in range(lo, hi + 1):
            yield from rec(i + 1, remaining - (v - lo), prefix + [v])

    yield from rec(0, r, [])


def schur_expand_h_by_pieri(parts):
    """Expand h_lambda in the Schur basis by repeated Pieri multiplication."""
    state = {(): 1}
    for r in parts:
        if r == 0:
            continue
        nxt = {}
        for mu, c in state.items():
            for nu in pieri_multiply(mu, r):
                nxt[nu] = nxt.get(nu, 0) + c
        state = nxt
    return state
