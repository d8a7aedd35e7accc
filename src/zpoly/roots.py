"""Exact decision procedures for root questions about Z-polynomials:
negative-real-rootedness, isolating-interval certificates, interlacing, and
log-concavity.

Every decision reads sign variations of a signed remainder sequence
S_0 = f, S_1 = g, S_{k+1} = -(S_{k-1} mod S_k), whose last member is
gcd(f, g) up to a nonzero factor.  At a point x with f(x) != 0 the count
V(x) of sign changes along the sequence gives the Cauchy index of g/f as
V(a) - V(b) over (a, b) (Sturm-Hermite; Basu-Pollack-Roy, Algorithms in
Real Algebraic Geometry, ch. 2), and V(-inf), V(0) need only the leading
and constant coefficients.

* Root counts: with g = f' the index over (-inf, 0) is the number of
  distinct negative roots of f; deflating by the sequence's gcd and
  repeating recovers multiplicities.
* Interlacing: for deg f = n, deg g = n - 1 and f(0) != 0, the index of
  g/f over (-inf, 0) is +-n exactly when f has n distinct negative roots
  and the roots of g strictly separate them.  One sequence per pair so
  certifies both polynomials and STRICT interlacing with no bisection.
  Otherwise the sequence's last member h = gcd(f, g) deflates the pair, and
  since a coprime pair interlaces only strictly, the index of (f/h, g/h)
  tells WEAK from NONE.  Only NONE isolates roots, once, for its witness.
* Half degree: Z-polynomials are palindromic (Proudfoot-Xu-Young), so
  Z_d = t^m Q_d(s) for d = 2m and (1 + t) t^m Q_d(s) for d = 2m + 1, with
  s = t + 1/t.  s increases on (-inf, -1), so (Z_d, Z_{d-1}) interlaces
  strictly exactly when (Q_d, Q_{d-1}) does left of s = -2, the roots
  t = -1 of the odd one lying in between; one sequence of degree about
  d/2 decides it.  interlaces and the sweep share one decision, which
  tries this first when both inputs are palindromic of their own degrees
  d, d - 1 and Q_d(-2) != 0; other pairs, and answers short of STRICT,
  take the full-degree sequence.
* Certificates: isolating intervals from bisection; check_certificate
  re-checks one with its own sign evaluation and division, sharing no code
  with the sequence routines.

Sequence members are kept as primitive integer polynomials: each
pseudo-remainder is divided by its content (a positive rational factor never
changes a sign), which stops the coefficient blowup that plain rational
sequences suffer at degree 20-40.  All interval endpoints are dyadic
rationals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .families import NiceFamily, build_tables, z_family
from .polyarith import IntPolynomial

# --- primitive integer polynomial helpers (low degree first, no trailing 0s)


def _strip(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs):
    """Divide by the content; sign of the polynomial is preserved."""
    g = 0
    for c in cs:
        g = gcd(g, c)
        if g == 1:
            return list(cs)
    if g == 0:
        return []
    return [c // g for c in cs]


def _normalized(cs):
    """Primitive, with positive leading coefficient."""
    out = _primitive(cs)
    if out and out[-1] < 0:
        out = [-c for c in out]
    return out


def _derivative(cs):
    return [i * c for i, c in enumerate(cs)][1:]


def _neg_prem_primitive(f, g):
    """Primitive part of -(f mod g), with the sign of the true rational
    remainder.  Each reduction step multiplies the running remainder by the
    leading coefficient of g; the accumulated sign is compensated at the end
    so Sturm sign counting stays exact."""
    r = list(f)
    lg = g[-1]
    dg = len(g) - 1
    sign = 1
    while len(r) - 1 >= dg and r:
        lr = r[-1]
        k = len(r) - 1 - dg
        r = [c * lg for c in r]
        for i, gc in enumerate(g):
            r[i + k] -= lr * gc
        _strip(r)
        if lg < 0:
            sign = -sign
    r = _primitive(r)
    if sign > 0:
        r = [-c for c in r]
    return r


def _remainder_sequence(f, g):
    """Signed remainder sequence f, g, -(f mod g), ... (g nonzero), up to
    its last nonzero member, which is gcd(f, g) up to a nonzero factor."""
    seq = [f, g]
    while True:
        r = _neg_prem_primitive(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append(r)


def _sturm_chain(cs):
    """Signed remainder sequence of (p, p') for an integer polynomial p: its
    Sturm chain, whose last member is gcd(p, p') up to a nonzero factor."""
    p = _primitive(list(cs))
    d = _strip(_derivative(p))
    return _remainder_sequence(p, _primitive(d)) if d else [p]


def _sign_at(cs, num: int, den: int) -> int:
    """Sign of p(num/den) with den > 0: integer Horner on den^deg * p."""
    value = 0
    power = 1
    for c in reversed(cs):
        value = value * num + c * power
        power *= den
    return (value > 0) - (value < 0)


def _variations(signs) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain, point: Fraction) -> int:
    num, den = point.numerator, point.denominator
    return _variations([_sign_at(cs, num, den) for cs in chain])


def _negative_index(seq) -> int:
    """V(-inf) - V(0), the Cauchy index of seq[1]/seq[0] over (-inf, 0)
    when seq[0](0) != 0, read off the leading and constant coefficients."""
    at_neg_inf = [(1 if cs[-1] > 0 else -1) * (-1) ** (len(cs) - 1) for cs in seq]
    at_zero = [(cs[0] > 0) - (cs[0] < 0) for cs in seq]
    return _variations(at_neg_inf) - _variations(at_zero)


def _count_in(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct roots in (lo, hi]."""
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def _exact_div(f, h):
    """f / h for integer polynomials; ValueError unless h divides f with an
    integer quotient."""
    r = _strip(list(f))
    dh = len(h) - 1
    lead = h[-1]
    q = [0] * max(len(r) - dh, 0)
    for k in range(len(q) - 1, -1, -1):
        # a step that is not exact leaves its remainder in r[k + dh]
        c = q[k] = r[k + dh] // lead
        for i, hc in enumerate(h):
            r[i + k] -= c * hc
    if any(r):
        raise ValueError("division is not exact")
    return q


def _squarefree(cs):
    g = _normalized(_sturm_chain(cs)[-1])
    return _normalized(cs if len(g) == 1 else _exact_div(cs, g))


def _cauchy_strict(f, g):
    """One remainder sequence decides STRICT interlacing.

    f, g are integer coefficient lists with deg f = deg g + 1 and f(0) != 0.
    Returns (strict, h).  strict is True iff the Cauchy index of g/f over
    (-inf, 0) is +-deg f, that is iff f has deg f distinct negative roots
    and the roots of g strictly separate them (so g is negative-real-rooted
    and coprime to f too).  h is gcd(f, g), primitive with positive leading
    coefficient.
    """
    seq = _remainder_sequence(f, g)
    return abs(_negative_index(seq)) == len(f) - 1, _normalized(seq[-1])


@lru_cache(maxsize=2)
def _half_degree(cs: tuple):
    """Q with cs = t^m Q(u) for d = 2m, or (1 + t) t^m Q(u) for d = 2m + 1,
    where d = deg cs and u = t + 1/t + 2; None unless cs is palindromic of
    degree d.  Q is the sum of the middle-out coefficients w_{m+j} of the
    even part times the Dickson polynomials D_j(s) = t^j + t^-j (D_0 = 2,
    D_1 = s, D_{j+1} = s D_j - D_{j-1}), run at s = u - 2.  It keeps its
    last two lists, which callers must not change: a serial sweep's cell d
    asks for Q_{d-1}, which cell d - 1 built, then for Q_d."""
    if cs != cs[::-1]:
        return None
    w = list(cs) if len(cs) % 2 else _exact_div(cs, [1, 1])
    m = (len(w) - 1) // 2
    q = [w[m]]
    prev, cur = [2], [-2, 1]
    for c in w[m + 1:]:
        q = [a + c * b for a, b in zip(q + [0], cur)]
        prev, cur = cur, [a - 2 * b - e for a, b, e in
                          zip([0] + cur, cur + [0], prev + [0, 0])]
    return q


def _half_degree_strict(f, g) -> bool:
    """True iff f, g (integer lists of degrees d and d - 1, palindromic of
    their own degrees, Q_f(0) != 0) interlace strictly, decided on Q_f, Q_g
    over u < 0; False for every other pair.

    Even d: deg Q_f = deg Q_g + 1, which is _cauchy_strict.  Odd d: both have
    degree m, and |Ind(Q_g/Q_f)| = m says Q_f has m distinct negative roots,
    a root of Q_g in each gap and one more real root x of Q_g outside them.
    The jump at Q_f's largest root a counts sign(Q_g(a) Q_f'(a)), so x > a
    iff Ind = -m sign(lc Q_f lc Q_g), and x < 0 iff sign Q_g(0) = sign lc Q_g.
    """
    if len(f) != len(g) + 1:
        return False
    qg, qf = _half_degree(tuple(g)), _half_degree(tuple(f))
    if qf is None or qg is None or qf[0] == 0:
        return False
    if len(qf) != len(qg):
        return _cauchy_strict(qf, qg)[0]
    index = _negative_index(_remainder_sequence(qf, qg))
    lead = 1 if qf[-1] * qg[-1] > 0 else -1
    return index * lead == 1 - len(qf) and qg[0] * qg[-1] > 0


# --- public surface


@dataclass(frozen=True)
class SturmCertificate:
    """Certificate of root locations: the square-free part, its Sturm chain
    (primitive integer polynomials), and disjoint dyadic intervals (lo, hi]
    each holding exactly one root."""
    squarefree: IntPolynomial
    chain: tuple
    isolating: tuple


class InterlaceKind(Enum):
    STRICT = "strict"
    WEAK = "weak"
    NONE = "none"


@dataclass(frozen=True)
class InterlaceVerdict:
    """Outcome of an interlacing test of (f, g).  witness is None unless
    kind is NONE.  Then it is a 0-based position in the increasing order of
    the distinct roots of f/h and g/h, h = gcd(f, g): the first position
    where the roots stop alternating f, g, f, ..., or, when they alternate,
    the position of the first multiple root of f/h, which then has one.
    Every verdict is truthy, NONE included: read kind."""
    kind: InterlaceKind
    witness: int | None = None


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), an integer polynomial that is primitive with positive
    leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free part")
    return IntPolynomial(_squarefree(list(p.coeffs)))


def count_negative_real_roots(p: IntPolynomial) -> tuple:
    """(distinct, with multiplicity) count of roots in (-inf, 0).

    Requires p(0) != 0.  One remainder sequence of (p, p') per deflation
    level: its index counts the distinct roots (every member shares the
    factor gcd(p, p'), which does not vanish at 0), and its last member is
    that gcd, whose roots are those of p of multiplicity >= 2, one less each.
    """
    if p.is_zero() or p.coefficient(0) == 0:
        raise ValueError("polynomial must not vanish at 0")
    distinct = None
    total = 0
    cs = _primitive(list(p.coeffs))
    while len(cs) > 1:
        seq = _sturm_chain(cs)
        cnt = _negative_index(seq)
        if distinct is None:
            distinct = cnt
        total += cnt
        cs = _normalized(seq[-1])
    return (distinct or 0, total)


def is_negative_real_rooted(p: IntPolynomial) -> bool:
    """True iff all deg(p) roots (with multiplicity) are negative reals."""
    if p.degree == 0:
        return True
    _, with_mult = count_negative_real_roots(p)
    return with_mult == p.degree


def _cauchy_bound(cs) -> int:
    lead = abs(cs[-1])
    worst = max(abs(c) for c in cs[:-1]) if len(cs) > 1 else 0
    return 1 + -(-worst // lead)


def _isolate(sf):
    """Sturm chain of the square-free sf and disjoint dyadic intervals
    (lo, hi], sorted, one root each; ValueError unless all deg sf roots are
    distinct negative reals.  One Cauchy index counts them, and Sturm-count
    guided bisection of (-B, 0) separates them."""
    chain = _sturm_chain(sf)
    deg = len(sf) - 1
    total = _negative_index(chain)
    if total != deg:
        raise ValueError(
            f"expected {deg} distinct negative real roots, Sturm counts {total}")
    if total == 0:
        return chain, []
    bound = Fraction(-_cauchy_bound(sf))
    v_lo = _variations_at(chain, bound)
    v_hi = _variations_at(chain, Fraction(0))
    if v_lo - v_hi != total:
        raise RuntimeError(f"root bound {bound} misses roots: {v_lo - v_hi} of {total}")
    out = []
    stack = [(bound, Fraction(0), v_lo, v_hi)]
    while stack:
        lo, hi, vl, vh = stack.pop()
        k = vl - vh
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vm = _variations_at(chain, mid)
        stack.append((lo, mid, vl, vm))
        stack.append((mid, hi, vm, vh))
    out.sort()
    return chain, out


def certify_roots(p: IntPolynomial) -> SturmCertificate:
    """Isolate all roots of p, which must be distinct negative reals
    (after squarefree reduction); errors report the Sturm count otherwise."""
    if p.is_zero() or p.coefficient(0) == 0:
        raise ValueError("polynomial must not vanish at 0")
    sf = _squarefree(list(p.coeffs))
    chain, intervals = _isolate(sf)
    return SturmCertificate(
        squarefree=IntPolynomial(sf),
        chain=tuple(IntPolynomial(cs) for cs in chain),
        isolating=tuple(intervals),
    )


def isolate_roots(p: IntPolynomial) -> list:
    """Isolating intervals for the distinct roots of p; see certify_roots."""
    return list(certify_roots(p).isolating)


def _divides(d, p) -> bool:
    """Whether the nonzero polynomial d divides p, by rational long division."""
    r = [Fraction(c) for c in p]
    while len(r) >= len(d):
        q = r[-1] / d[-1]
        k = len(r) - len(d)
        for i, c in enumerate(d):
            r[i + k] -= q * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return not r


def check_certificate(p: IntPolynomial, cert: SturmCertificate) -> bool:
    """Check a certify_roots certificate for p with code of its own: the
    square-free part and its derivative evaluated at the dyadic endpoints
    (IntPolynomial's Horner), and rational division.

    True iff p(0) != 0; the intervals (lo, hi] are sorted, disjoint and
    inside (-inf, 0]; the square-free part s changes sign on each one: s(hi)
    is 0 or differs in sign from s just right of lo (the sign of s(lo), or
    of s'(lo) where lo is a root); there are deg s of them; and s divides p
    while p divides s^(deg p - deg s + 1).  Then each interval holds exactly
    one root of s, and the roots of p are exactly those of s, all negative
    reals.
    """
    s, ds, cs = cert.squarefree, cert.squarefree.derivative(), p.coeffs
    if s.is_zero() or not cs or cs[0] == 0 or len(cert.isolating) != s.degree:
        return False
    prev_hi = None
    for lo, hi in cert.isolating:
        if not lo < hi <= 0 or (prev_hi is not None and lo < prev_hi):
            return False
        right_of_lo = s(lo) or ds(lo)       # has the sign of s just right of lo
        if right_of_lo == 0 or s(hi) * right_of_lo > 0:
            return False
        prev_hi = hi
    if not _divides(s.coeffs, cs):
        return False
    power = IntPolynomial([1])
    for _ in range(p.degree - s.degree + 1):
        power = power * s
    return _divides(cs, power.coeffs)


def _none_witness(f, g):
    """The witness of NONE for a coprime pair of negative-real-rooted
    integer lists with a non-strict Cauchy index.  One isolation of the
    product of their square-free parts orders the distinct roots, and
    counting on the chain of f's square-free part labels each interval."""
    sf_f = _squarefree(f)
    _, intervals = _isolate(list((IntPolynomial(sf_f)
                                  * IntPolynomial(_squarefree(g))).coeffs))
    chain_f = _sturm_chain(sf_f)
    for k, (lo, hi) in enumerate(intervals):
        if _count_in(chain_f, lo, hi) != 1 - k % 2:  # f's roots at even k
            return k
    # with deg f simple roots, f would alternate with deg f - 1 distinct
    # roots of g, which then interlace strictly: the index says otherwise
    if len(sf_f) == len(f):
        raise RuntimeError("alternating coprime roots with a non-strict Cauchy index")
    multiple = _sturm_chain(_squarefree(_exact_div(f, sf_f)))
    return next(k for k in range(0, len(intervals), 2)
                if _count_in(multiple, *intervals[k]))


def _interlace(f, g):
    """The decision behind interlaces and the sweep, on integer coefficient
    lists: an InterlaceVerdict, or None when f or g is not
    negative-real-rooted.  ValueError when f vanishes at 0, when g does
    with f negative-real-rooted, and when deg f != deg g + 1 with both.

    A pair is STRICT when the half-degree step or the Cauchy index of
    (f, g) says so.  Otherwise h = gcd(f, g) is the last member of that
    sequence; f/h and g/h are coprime, and a coprime pair interlaces only
    strictly, so their own index tells WEAK from NONE.  When it is strict,
    f/h and g/h are negative-real-rooted, so f and g are exactly when h
    is: WEAK counts roots once, on h.  Every other pair counts the roots
    of f and g, and only NONE isolates roots, for its witness.
    """
    paired = len(f) == len(g) + 1 and f[0] != 0
    f_h, g_h = f, g
    if paired:
        if _half_degree_strict(f, g):
            return InterlaceVerdict(InterlaceKind.STRICT)
        strict, h = _cauchy_strict(f, g)
        if strict:
            return InterlaceVerdict(InterlaceKind.STRICT)
        if len(h) > 1:
            f_h, g_h = _exact_div(f, h), _exact_div(g, h)
            if _cauchy_strict(f_h, g_h)[0]:
                rooted = is_negative_real_rooted(IntPolynomial(h))
                return InterlaceVerdict(InterlaceKind.WEAK) if rooted else None
    if not is_negative_real_rooted(IntPolynomial(f)):
        return None
    if not is_negative_real_rooted(IntPolynomial(g)):
        return None
    if not paired:
        raise ValueError("need deg f = deg g + 1 with g nonzero")
    return InterlaceVerdict(InterlaceKind.NONE, _none_witness(f_h, g_h))


def interlaces(f: IntPolynomial, g: IntPolynomial) -> InterlaceVerdict:
    """Decide whether the roots of g separate the roots of f.

    Requires deg f = deg g + 1 and both inputs negative-real-rooted.  Every
    verdict is read off Cauchy indices: STRICT from the half-degree pair of
    palindromic inputs or from one remainder sequence of (f, g); WEAK or
    NONE from the index of the pair deflated by their gcd, the last member
    of that sequence.  Only NONE isolates roots, for its witness (see
    InterlaceVerdict).
    """
    if g.is_zero() or f.degree != g.degree + 1:
        raise ValueError("need deg f = deg g + 1 with g nonzero")
    verdict = _interlace(f.coeffs, g.coeffs)
    if verdict is None:
        raise ValueError("interlacing requires negative-real-rooted inputs")
    return verdict


def is_log_concave(p: IntPolynomial) -> bool:
    """Nonnegative coefficients with c_i^2 >= c_{i-1} c_{i+1} throughout."""
    cs = p.coeffs
    if any(c < 0 for c in cs):
        return False
    return all(cs[i] * cs[i] >= cs[i - 1] * cs[i + 1] for i in range(1, len(cs) - 1))


# ---------------------------------------------------------------------------
# conjecture sweep


def _sweep_cell(args):
    family_str, d, z_coeffs, z_prev_coeffs, want_cert = args
    start = time.perf_counter()
    zd = IntPolynomial(z_coeffs)
    found = _interlace(z_coeffs, z_prev_coeffs)
    # None: Z_d or Z_{d-1} is not negative-real-rooted
    rooted = found is not None or is_negative_real_rooted(zd)
    verdict = "none" if found is None else found.kind.value
    row = {
        "family": family_str,
        "d": d,
        "negative_real_rooted": rooted,
        "interlace": verdict,
        "max_coeff_digits": max(len(str(abs(c))) for c in z_coeffs),
        "millis": (time.perf_counter() - start) * 1000.0,
    }
    if want_cert or not rooted or verdict == "none":
        try:
            cert = certify_roots(zd)
        except ValueError as exc:
            row["certificate"] = {"error": str(exc)}
        else:
            if not check_certificate(zd, cert):
                raise RuntimeError(f"{family_str} d={d}: root certificate fails its check")
            row["certificate"] = {
                "isolating": [[str(lo), str(hi)] for lo, hi in cert.isolating],
            }
    return row


def conjecture_sweep(family: NiceFamily, d_max: int,
                     threads: int | None = None,
                     include_certificates: bool = False) -> list:
    """For d = 1..d_max check negative-real-rootedness of Z_d and the
    interlacing of (Z_d, Z_{d-1}); one report row per d, failures carry an
    isolating-interval certificate.

    threads > 1 fans the independent d-cells out to a process pool
    (ZPOLY_THREADS is read by the CLI, not here).
    """
    tables = build_tables(family, d_max)
    zs = [z_family(tables, d) for d in range(d_max + 1)]
    jobs = [(str(family), d, zs[d].coeffs, zs[d - 1].coeffs, include_certificates)
            for d in range(1, d_max + 1)]
    if threads and threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_sweep_cell, jobs))
    return [_sweep_cell(job) for job in jobs]
