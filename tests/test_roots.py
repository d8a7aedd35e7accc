import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (interlace_by_sorted_roots, interlace_witness_by_sorted_roots,
                     poly_from_roots, sign_changes_on_grid)
from zpoly import (BRAID, TYPE_B, IntPolynomial, InterlaceKind, InterlaceVerdict,
                   SturmCertificate, build_tables, certify_roots, check_certificate,
                   conjecture_sweep, count_negative_real_roots, interlaces,
                   is_log_concave, is_negative_real_rooted, is_palindromic,
                   isolate_roots, parse_family, qvec_family, squarefree_part,
                   uniform_family, z_family)
from zpoly import roots

# distinct small negative integer roots
neg_root_sets = st.sets(st.integers(-20, -1), min_size=1, max_size=5)


def test_squarefree_examples():
    assert squarefree_part(IntPolynomial([1, 2, 1])).coeffs == (1, 1)
    p = IntPolynomial([1, 3, 1])
    assert squarefree_part(p).coeffs == (1, 3, 1)
    assert squarefree_part(IntPolynomial([0, 0, 0, 1])).coeffs == (0, 1)
    with pytest.raises(ValueError):
        squarefree_part(IntPolynomial())


def test_count_examples():
    assert count_negative_real_roots(IntPolynomial([1, 3, 1])) == (2, 2)
    assert count_negative_real_roots(IntPolynomial([1, 0, 1])) == (0, 0)
    assert count_negative_real_roots(IntPolynomial([1, 3, 3, 1])) == (1, 3)
    with pytest.raises(ValueError):
        count_negative_real_roots(IntPolynomial([0, 1]))


def test_rooted_examples():
    assert is_negative_real_rooted(IntPolynomial([1, 3, 1]))
    assert not is_negative_real_rooted(IntPolynomial([1, 1, 1]))
    assert is_negative_real_rooted(IntPolynomial([1]))
    assert not is_negative_real_rooted(IntPolynomial([1, -3, 1]))  # positive roots


@given(neg_root_sets, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_count_against_grid_oracle(roots, rep):
    # repeat one root to exercise multiplicity counting
    multiset = sorted(roots) + [max(roots)] * (rep - 1)
    p = poly_from_roots(multiset)
    distinct, with_mult = count_negative_real_roots(p)
    assert distinct == len(roots)
    assert with_mult == len(multiset)
    lo = min(multiset) - 1
    assert sign_changes_on_grid(squarefree_part(p).coeffs, lo, 0,
                                steps=800) == len(roots)


def test_isolation_examples():
    p = IntPolynomial([1, 3, 1])
    iso = isolate_roots(p)
    assert len(iso) == 2
    r1 = Fraction(-2618, 1000)
    r2 = Fraction(-382, 1000)
    assert iso[0][0] < r1 < iso[0][1]
    assert iso[1][0] < r2 < iso[1][1]
    assert isolate_roots(IntPolynomial([1, 1]))[0][0] < -1 <= isolate_roots(
        IntPolynomial([1, 1]))[0][1]
    iso = isolate_roots(IntPolynomial([1, 2]))
    assert iso[0][0] < Fraction(-1, 2) <= iso[0][1]
    with pytest.raises(ValueError, match="Sturm counts"):
        isolate_roots(IntPolynomial([1, 0, 1]))
    with pytest.raises(ValueError, match="must not vanish at 0"):
        certify_roots(IntPolynomial([0, 1, 1]))


def test_certificate_structure():
    p = poly_from_roots([-1, -2, -5])
    cert = certify_roots(p)
    assert cert.chain[0] == cert.squarefree
    # chain[1] is the derivative up to a positive content factor
    deriv = cert.squarefree.derivative()
    ratio = deriv.coeffs[-1] / cert.chain[1].coeffs[-1]
    assert ratio > 0
    assert cert.chain[1] * ratio == deriv
    # each interval holds exactly one sign change of the square-free part
    for lo, hi in cert.isolating:
        slo = cert.squarefree(lo)
        shi = cert.squarefree(hi)
        assert slo != 0 and (slo > 0) != (shi > 0)
    # intervals sorted and pairwise disjoint
    for (a, b), (c, d) in zip(cert.isolating, cert.isolating[1:]):
        assert b <= c


@given(neg_root_sets)
@settings(max_examples=60, deadline=None)
def test_isolation_separates_known_roots(roots):
    p = poly_from_roots(sorted(roots))
    iso = isolate_roots(p)
    assert len(iso) == len(roots)
    for (lo, hi), r in zip(iso, sorted(roots)):
        assert lo < r <= hi


def test_interlace_examples():
    v = interlaces(IntPolynomial([1, 3, 1]), IntPolynomial([1, 2]))
    assert v.kind is InterlaceKind.STRICT
    v = interlaces(IntPolynomial([1, 2, 1]), IntPolynomial([1, 1]))
    assert v.kind is InterlaceKind.WEAK
    v = interlaces(IntPolynomial([1, 6, 6, 1]), IntPolynomial([1, 3, 1]))
    assert v.kind is InterlaceKind.STRICT


def test_every_verdict_is_truthy():
    # NONE is a verdict like the others; only _interlace's None means "not rooted"
    for kind in InterlaceKind:
        assert InterlaceVerdict(kind)
    v = interlaces(poly_from_roots([-1, -4, -5]), poly_from_roots([-2, -3]))
    assert v and v.kind is InterlaceKind.NONE


def test_interlace_errors():
    with pytest.raises(ValueError):
        interlaces(IntPolynomial([1, 3, 1]), IntPolynomial([1, 3, 1]))
    with pytest.raises(ValueError):
        interlaces(IntPolynomial([1, 1, 1]), IntPolynomial([1, 1]))


def test_interlace_none_with_witness():
    f = poly_from_roots([-1, -4, -5])
    g = poly_from_roots([-2, -3])
    v = interlaces(f, g)
    assert v.kind is InterlaceKind.NONE
    assert v.witness == 1  # roots -5 f, -4 f, -3 g, -2 g, -1 f


@given(st.sets(st.integers(-12, -1), min_size=2, max_size=5), st.data())
@settings(max_examples=80, deadline=None)
def test_interlace_against_root_oracle(f_roots, data):
    f_sorted = sorted(f_roots)
    g_roots = [data.draw(st.integers(f_sorted[i], f_sorted[i + 1]),
                         label=f"g{i}")
               for i in range(len(f_sorted) - 1)]
    jitter = data.draw(st.booleans(), label="scramble")
    if jitter and len(g_roots) >= 2:
        g_roots[0], g_roots[-1] = g_roots[-1] - 1, g_roots[0]
    expected = interlace_by_sorted_roots(f_sorted, sorted(g_roots))
    v = interlaces(poly_from_roots(f_sorted), poly_from_roots(g_roots))
    assert v.kind.value == expected


def test_interlace_with_repeated_roots():
    cases = [
        ([-2, -1, -1], [-3, -1], "none"),
        ([-3, -1, -1], [-2, -1], "weak"),
        ([-2, -2, -1], [-2, -2], "weak"),
        ([-3, -2, -1], [-2, -2], "weak"),
        ([-5, -1, -1], [-2, -1], "weak"),
        ([-3, -2, -2, -1], [-2, -2, -1], "weak"),
        ([-4, -2, -2], [-3, -1], "none"),
    ]
    for f_roots, g_roots, expected in cases:
        assert interlace_by_sorted_roots(f_roots, g_roots) == expected, \
            (f_roots, g_roots)
        v = interlaces(poly_from_roots(f_roots), poly_from_roots(g_roots))
        assert v.kind.value == expected, (f_roots, g_roots)


# (roots of f, roots of g, sign of g, kind, witness): shared roots, multiple
# roots in f and in g, breaks at every position and multiple-root witnesses
PINNED_VERDICTS = [
    ([-5, -4, -1], [-3, -2], 1, "none", 1),
    ([-5, -4, -1], [-3, -2], -1, "none", 1),
    ([-2, -1, -1], [-3, -1], 1, "none", 0),
    ([-4, -2, -2], [-3, -1], -1, "none", 2),
    ([-3, -2, -1], [-5, -4], -1, "none", 0),
    ([-3, -2, -1], [-5, -1], 1, "none", 0),
    ([-5, -2, -2], [-3, -1], 1, "none", 2),
    ([-5, -5, -2], [-3, -1], 1, "none", 0),
    ([-7, -5, -3, -3], [-6, -4, -1], -1, "none", 4),
    ([-7, -5, -5, -1], [-6, -6, -2], -1, "none", 2),
    ([-7, -5, -3, -1], [-6, -6, -4], 1, "none", 5),
    ([-6, -3, -1], [-4, -4], -1, "none", 3),
    ([-3, -3, -3], [-2, -2], 1, "none", 0),
    ([-3, -3, -3], [-3, -1], -1, "none", 0),
    ([-4, -3, -2, -1], [-4, -4, -1], 1, "none", 0),
    ([-4, -2], [-1], 1, "none", 1),
    ([-3, -1, -1, -1], [-2, -2, -1], -1, "none", 2),
    ([-8, -8, -1, -1, -1], [-2, -2, -2, -2], 1, "none", 0),
    ([-6, -5, -2, -2, -1], [-7, -3, -2, -2], -1, "none", 0),
    ([-7, -7, -4, -4, -2], [-5, -5, -3, -1], 1, "none", 0),
    ([-6, -6, -6, -2], [-7, -4, -4], -1, "none", 0),
    ([-8, -6, -4, -2, -1], [-7, -5, -3, -1], -1, "weak", None),
    ([-2, -2, -1, -1], [-2, -1, -1], 1, "weak", None),
    ([-8, -1, -1, -1, -1], [-1, -1, -1, -1], -1, "weak", None),
    ([-6, -5, -2, -2, -1], [-5, -3, -2, -2], 1, "weak", None),
    ([-1], [], -1, "strict", None),
]


def test_pinned_verdicts_and_witnesses():
    for f_roots, g_roots, sign, kind, witness in PINNED_VERDICTS:
        v = interlaces(poly_from_roots(f_roots),
                       poly_from_roots(g_roots) * IntPolynomial([sign]))
        assert (v.kind.value, v.witness) == (kind, witness), (f_roots, g_roots, sign)
        assert interlace_by_sorted_roots(f_roots, g_roots) == kind
        assert interlace_witness_by_sorted_roots(f_roots, g_roots) == witness


def test_interlace_error_contract():
    # the degree check comes first, then f (vanishing at 0, then rooted),
    # then g
    cases = [
        ((1, 3, 1), (1, 3, 1), "need deg f = deg g \\+ 1 with g nonzero"),
        ((1, 1, 1), (1, 3, 1), "need deg f = deg g"),
        ((0, 3, 1), (1,), "need deg f = deg g"),
        ((1, 3, 1), (), "need deg f = deg g"),
        ((0, 3, 1), (1, 1), "^polynomial must not vanish at 0$"),
        ((0, 1, 1), (1, -1), "vanish at 0"),
        ((1, 1, 1), (1, 1), "^interlacing requires negative-real-rooted inputs$"),
        ((1, 1, 1), (0, 1), "negative-real-rooted"),
        ((2, 3, 1), (1, -1), "negative-real-rooted"),
        ((2, 3, 1, 0, 1), (1, 0, 1, 1), "negative-real-rooted"),
        ((2, 3, 1), (0, 1), "vanish at 0"),
        # (t^2+4t+3)(t^2+1), (t+2)(t^2+1): strict once deflated by
        # h = t^2+1, which has no real roots
        ((3, 4, 4, 4, 1), (2, 1, 2, 1), "negative-real-rooted"),
    ]
    for f, g, message in cases:
        with pytest.raises(ValueError, match=message):
            interlaces(IntPolynomial(f), IntPolynomial(g))
    # a sweep cell counts the roots of both before it compares degrees
    row = roots._sweep_cell(("test", 2, (1, 3, 1), (1, 1, 1), False))
    assert (row["negative_real_rooted"], row["interlace"]) == (True, "none")
    with pytest.raises(ValueError, match="deg f = deg g"):
        roots._sweep_cell(("test", 2, (1, 3, 1), (1, 3, 1), False))
    row = roots._sweep_cell(("test", 4, (3, 4, 4, 4, 1), (2, 1, 2, 1), False))
    assert (row["negative_real_rooted"], row["interlace"]) == (False, "none")


# sha256 of the conjecture_sweep rows without "millis", json.dumps with
# sorted keys: to d = 30 without certificates, to d = 16 with them
PINNED_SWEEPS = {
    "braid": ("80641ce8d1addf073c5dccfd84d1254b35c6c3bb76ca6fd8e0d59023116cf8ce",
              "97e6ae3b51c59ece5424d6f06627950b457758775d446291e74f5b21800bc51b"),
    "typeb": ("43e947b4319a16e85f0e87a66f9258199976181ff49f0ce7cebf995a3eb74dec",
              "71e081fec4be29412c9066688933965960481139a2755d1fa1b58100456c4c41"),
    "uniform:1": ("cbce47269ccf221b89812c826e4c0bfeb563a9c28d4aa812f39a7235134f59c6",
                  "3830e86b293dc603b373df7d5030cc32ce52f4cfea4cfcf6f0ff711a74421057"),
    "uniform:2": ("225367c5ae5afd931a174cf76ff647336ee93ed82555f7545552f83c1521f0ce",
                  "c77f6eb7f3783f536d33162886b9375808c0af0033092b8a4dff5945f9e49add"),
    "uniform:3": ("9d7bde502e22ce603220e2b9999264f6a49a250ac6efc399a34bb90a143a36ad",
                  "37e3ff76c34080ba9dd14b893749435e42615dc587ad6e23c3967b7e8898acbe"),
    "uniform:10": ("50d3b85fe194d14abc0ea0fe3720dfa23a7335907f7a68a48ae5c890c62c3448",
                   "940f622b9ff9d53dcb054cb9bbf093405a7d946c1df64f08f303829578767eb1"),
    "qvec:2": ("ffd4fe2d459c88dc09e020f8057c4116448bda9a90dfc06f66015cde2d2e4d4a",
               "fa310ad7ffde89b4ee6cd72dd244c56dd745bcd0433c81e70c1eb6c9f4ca0073"),
    "qvec:3": ("568fc9dcd54c1d8bb34579529ff52aff0b6eb8e943e1b59f3880ae6c0bdfb4ef",
               "5075abbdebdcaceaa833cd83739509339d71cccb17630795ff1a2deab43e61e3"),
}


def test_pinned_sweep_rows():
    def digest(rows):
        rows = [{k: v for k, v in row.items() if k != "millis"} for row in rows]
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    for name, (rows_30, certified_16) in PINNED_SWEEPS.items():
        family = parse_family(name)
        rows = conjecture_sweep(family, 30)
        assert all(row["interlace"] == "strict" for row in rows), name
        assert digest(rows) == rows_30, name
        assert digest(conjecture_sweep(family, 16, include_certificates=True)) \
            == certified_16, name


def test_strict_implies_trivial_gcd():
    from zpoly.roots import _rat_gcd
    f = poly_from_roots([-1, -3, -7])
    g = poly_from_roots([-2, -5])
    assert interlaces(f, g).kind is InterlaceKind.STRICT
    assert len(_rat_gcd(list(f.coeffs), list(g.coeffs))) == 1


def _pair_roots(draw):
    """Root lists for f (n roots) and g (n - 1 roots): alternating, touching
    or scrambled, or drawn freely with shared and repeated roots."""
    pool = draw(st.lists(st.integers(-12, -1), min_size=1, max_size=4))
    root = st.one_of(st.sampled_from(pool), st.integers(-12, -1))
    f_roots = draw(st.lists(root, min_size=1, max_size=6))
    if draw(st.booleans(), label="alternate"):
        f_roots = fs = sorted(2 * r for r in set(f_roots))  # room between roots
        inside = draw(st.booleans(), label="inside")
        g_roots = [draw(st.integers(a + 1, b - 1) if inside and b - a >= 2 else
                        st.integers(a, b)) for a, b in zip(fs, fs[1:])]
        if draw(st.booleans(), label="scramble") and len(g_roots) >= 2:
            g_roots[0], g_roots[-1] = g_roots[-1] - 1, g_roots[0]
    else:
        g_roots = draw(st.lists(st.one_of(st.sampled_from(f_roots), root),
                                min_size=len(f_roots) - 1, max_size=len(f_roots) - 1))
    return f_roots, g_roots


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_cauchy_index_against_isolation_route(data):
    f_roots, g_roots = _pair_roots(data.draw)
    flip = data.draw(st.sampled_from([1, -1]), label="sign of g")
    f = poly_from_roots(f_roots)
    g = poly_from_roots(g_roots) * IntPolynomial([flip])
    strict, h = roots._cauchy_strict(f.coeffs, g.coeffs)
    expected = interlace_by_sorted_roots(f_roots, g_roots)
    assert strict == (expected == "strict")
    assert h == roots._rat_gcd(list(f.coeffs), list(g.coeffs))
    v = interlaces(f, g)
    assert v.kind.value == expected
    assert v.witness == interlace_witness_by_sorted_roots(f_roots, g_roots)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cauchy_index_never_strict_off_the_negative_axis(data):
    f_roots, g_roots = _pair_roots(data.draw)
    # a non-real pair or a positive root in f or in g
    bad = data.draw(st.sampled_from(["complex f", "complex g", "positive f", "positive g"]))
    c = data.draw(st.integers(1, 9), label="c")
    b = data.draw(st.sampled_from([b for b in range(-5, 6) if b * b < 4 * c]), label="b")
    other = IntPolynomial([c, b, 1])
    if bad == "complex f":
        f, g = poly_from_roots(f_roots) * other, poly_from_roots(g_roots + [-1, -2])
    elif bad == "complex g":
        f, g = poly_from_roots(f_roots + [-1, -2]), poly_from_roots(g_roots) * other
    elif bad == "positive f":
        f, g = poly_from_roots(f_roots[1:] + [data.draw(st.integers(1, 9))]), \
            poly_from_roots(g_roots)
    else:
        f, g = poly_from_roots(f_roots + [-1]), \
            poly_from_roots(g_roots + [data.draw(st.integers(1, 9))])
    assert not roots._cauchy_strict(f.coeffs, g.coeffs)[0]
    with pytest.raises(ValueError, match="negative-real-rooted"):
        interlaces(f, g)


def _reciprocal(r):
    """(t - r)(t - 1/r) scaled to integers, positive leading coefficient:
    palindromic of degree 2."""
    r = Fraction(r)
    pair = (IntPolynomial([-r.numerator, r.denominator])
            * IntPolynomial([-r.denominator, r.numerator]))
    return pair if pair.coefficient(2) > 0 else -pair


def _palindromic_pair(draw):
    """Palindromic f, g of degrees d and d - 1, built from reciprocal pairs
    with roots r = k/2 <= -1 and the root t = -1 that odd degree forces.
    Returns f, g and their root lists, or None for the lists when a factor
    is non-real or positive.  The pairs of f and g alternate, touch, or are drawn freely
    (shared pairs, repeated pairs, r = -1); for odd d the extra pair of g
    sits right or wrong of f's, at t = -1, or is non-real or positive.  One
    pair anywhere may also be non-real."""
    m = draw(st.integers(0, 4), label="pairs of f")
    odd = m == 0 or draw(st.booleans(), label="odd d")
    n_g = m if odd else m - 1
    extra = None
    if m and draw(st.booleans(), label="alternate"):
        f_keys = [2 * k for k in sorted(draw(st.sets(st.integers(-12, -2),
                                                     min_size=m, max_size=m)))]
        inside = draw(st.booleans(), label="inside")
        g_keys = [draw(st.integers(a + 1, b - 1) if inside else st.integers(a, b))
                  for a, b in zip(f_keys, f_keys[1:])]
        if odd:
            side = draw(st.sampled_from(
                ["right", "touch", "wrong", "t = -1", "non-real", "positive"]))
            if side == "right":
                g_keys.append(draw(st.integers(f_keys[-1] + 1, -3)))
            elif side == "touch":
                g_keys.append(f_keys[-1])
            elif side == "wrong":
                g_keys.append(draw(st.integers(f_keys[0] - 6, f_keys[0] - 1)))
            elif side == "t = -1":
                g_keys.append(-2)
            else:
                extra = side
    else:
        pool = draw(st.lists(st.integers(-12, -2), min_size=1, max_size=3))
        key = st.one_of(st.sampled_from(pool), st.integers(-12, -2))
        f_keys = draw(st.lists(key, min_size=m, max_size=m))
        g_keys = draw(st.lists(key, min_size=n_g, max_size=n_g))
    f_pairs = [_reciprocal(Fraction(k, 2)) for k in f_keys]
    g_pairs = [_reciprocal(Fraction(k, 2)) for k in g_keys]
    real = True
    if extra is None and draw(st.integers(0, 3), label="non-real anywhere") == 0:
        pairs = f_pairs if draw(st.booleans(), label="in f") or not g_pairs else g_pairs
        if pairs:
            extra = "non-real"
            pairs.pop(draw(st.integers(0, len(pairs) - 1), label="replaced"))
    if extra == "non-real":
        c = draw(st.integers(1, 5), label="c")
        pair = IntPolynomial([c, draw(st.integers(1 - 2 * c, 2 * c - 1), label="b"), c])
        (f_pairs if len(f_pairs) < m else g_pairs).append(pair)
        real = False
    elif extra == "positive":
        g_pairs.append(_reciprocal(Fraction(draw(st.integers(2, 12)), 2)))
        real = False
    one_plus_t = IntPolynomial([1, 1])
    f = one_plus_t if odd else IntPolynomial([1])
    g = IntPolynomial([1]) if odd else one_plus_t
    for pair in f_pairs:
        f = f * pair
    for pair in g_pairs:
        g = g * pair
    f = f * IntPolynomial([draw(st.sampled_from([1, -1]), label="sign of f")])
    g = g * IntPolynomial([draw(st.sampled_from([1, -1]), label="sign of g")])
    if not real:
        return f, g, None
    pair_roots = lambda keys: [x for k in keys for x in (Fraction(k, 2), Fraction(2, k))]
    return f, g, (pair_roots(f_keys) + [-1] * odd, pair_roots(g_keys) + [-1] * (not odd))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_half_degree_against_isolation_route(data):
    f, g, known = _palindromic_pair(data.draw)
    assert f.degree == g.degree + 1
    assert is_palindromic(f, f.degree) and is_palindromic(g, g.degree)
    half = roots._half_degree_strict(f.coeffs, g.coeffs)
    if known is None:
        # a non-real or positive pair: no STRICT, and interlaces rejects it
        assert not half
        with pytest.raises(ValueError, match="negative-real-rooted"):
            interlaces(f, g)
        return
    expected = interlace_by_sorted_roots(*known)
    assert half == (expected == "strict")
    v = interlaces(f, g)
    assert v.kind.value == expected
    assert v.witness == interlace_witness_by_sorted_roots(*known)


def test_half_degree_even_root_at_minus_one_takes_the_old_route(monkeypatch):
    # Z_d(-1) = 0 at even d puts a root of Q_d at u = 0: the reduction does
    # not apply, and interlaces answers from the full-degree pair
    f = _reciprocal(-1) * _reciprocal(-4)  # roots -4, -1, -1, -1/4
    g = IntPolynomial([1, 1]) * _reciprocal(-2)  # roots -2, -1, -1/2
    assert f(-1) == 0 and roots._half_degree(f.coeffs)[0] == 0
    assert not roots._half_degree_strict(f.coeffs, g.coeffs)
    calls = []
    real = roots._cauchy_strict
    monkeypatch.setattr(roots, "_cauchy_strict",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    known = ([-4, -1, -1, Fraction(-1, 4)], [-2, -1, Fraction(-1, 2)])
    assert interlace_by_sorted_roots(*known) == "weak"
    assert interlace_witness_by_sorted_roots(*known) is None
    assert interlaces(f, g).kind is InterlaceKind.WEAK
    assert interlaces(f, g).witness is None
    assert calls[0] == (f.coeffs, g.coeffs)


def test_half_degree_examples():
    # braid Z_3 = 1 + 7t + 7t^2 + t^3 = (1 + t)(1 + 6t + t^2): Q = u + 4
    assert roots._half_degree((1, 7, 7, 1)) == [4, 1]
    assert roots._half_degree((1, 3, 1)) == [1, 1]  # t^2 + 3t + 1 = t(s + 3)
    assert roots._half_degree((1, 2)) is None
    # only deg f = deg g + 1 is decided in half the degree
    assert not roots._half_degree_strict((1, 3, 1), (1, 3, 1))
    assert not roots._half_degree_strict((1, 2), (1, 3, 1))
    tables = build_tables(BRAID, 12)
    z = [z_family(tables, d).coeffs for d in range(13)]
    for d in range(1, 13):
        assert roots._half_degree_strict(z[d], z[d - 1]), d
        qf, qg = roots._half_degree(z[d]), roots._half_degree(z[d - 1])
        if d % 2:
            # equal degrees m, positive leading coefficients: Ind = -m
            assert roots._negative_index(roots._remainder_sequence(qf, qg)) == 1 - len(qf)


def test_serial_sweep_reduces_each_z_once():
    # cell d asks for Q_{d-1}, which cell d - 1 built, then for Q_d
    roots._half_degree.cache_clear()
    conjecture_sweep(BRAID, 20, threads=1)
    assert roots._half_degree.cache_info().misses == 21     # Z_0, ..., Z_20


def test_sweep_cell_falls_back(monkeypatch):
    calls = []
    real = roots._cauchy_strict
    monkeypatch.setattr(roots, "_cauchy_strict",
                        lambda f, g: calls.append((f, g)) or real(f, g))
    cell = lambda z, prev: roots._sweep_cell(("test", 2, z, prev, False))
    # degree mismatch: the old route runs, and interlaces rejects the pair
    with pytest.raises(ValueError, match="deg f = deg g"):
        cell((1, 3, 1), (1, 3, 1))
    row = cell((1, 1, 1), (1, 3, 1))
    assert (row["negative_real_rooted"], row["interlace"]) == (False, "none")
    assert "error" in row["certificate"]
    # f(0) = 0: the old route raises as before
    with pytest.raises(ValueError, match="vanish at 0"):
        cell((0, 3, 1), (1, 1))
    assert calls == []
    # a non-strict index also falls back, to the isolation route's verdict
    row = cell(poly_from_roots([-1, -2]).coeffs, (1, 1))
    assert (row["negative_real_rooted"], row["interlace"]) == (True, "weak")
    assert calls[0] == (poly_from_roots([-1, -2]).coeffs, (1, 1))
    calls.clear()
    row = cell(poly_from_roots([-1, -2]).coeffs, (3, 2))
    assert (row["negative_real_rooted"], row["interlace"]) == (True, "strict")
    assert len(calls) == 1


def test_exact_div_integer_only():
    assert roots._exact_div([2, 3, 1], [1, 1]) == [2, 1]
    with pytest.raises(ValueError):
        roots._exact_div([1, 3, 1], [1, 1])
    with pytest.raises(ValueError):
        roots._exact_div([1, 1], [1, 2])  # (1+t)/(1+2t) is not a polynomial
    with pytest.raises(ValueError):
        roots._exact_div([1, 1], [2, 2])  # the quotient 1/2 is not integral


def test_check_certificate():
    for p in (poly_from_roots([-1, -2, -5]), poly_from_roots([-1, -1, -3]),
              IntPolynomial([1, 7, 7, 1]), IntPolynomial([1]),
              z_family(build_tables(TYPE_B, 12), 12)):
        assert check_certificate(p, certify_roots(p)), p
    p = poly_from_roots([-1, -2, -5, -9])
    cert = certify_roots(p)
    iso = list(cert.isolating)
    tamper = lambda intervals, sf=cert.squarefree: SturmCertificate(sf, cert.chain,
                                                                   tuple(intervals))
    overlap = [iso[0], (iso[1][0] - 1, iso[1][1])] + iso[2:]
    assert iso[1][0] - 1 < iso[0][1]
    assert not check_certificate(p, tamper(overlap))
    assert not check_certificate(p, tamper(iso[:-1]))
    assert not check_certificate(p, tamper(iso[::-1]))
    F = Fraction
    by_hand = [(F(-10), F(-8)), (F(-6), F(-4)), (F(-3), F(-3, 2)), (F(-3, 2), F(-1, 2))]
    assert check_certificate(p, tamper(by_hand))
    by_hand[2] = (F(-4), F(-3))  # no root of p in (-4, -3]
    assert not check_certificate(p, tamper(by_hand))
    # same intervals for a polynomial with an extra complex pair
    q = p * IntPolynomial([1, 0, 1])
    assert not check_certificate(q, tamper(iso))
    # every root of p is a root of s, but s has one more: s does not divide p
    p = poly_from_roots([-1, -1, -2, -2])
    assert not check_certificate(p, certify_roots(poly_from_roots([-1, -2, -3])))


def test_log_concave():
    assert is_log_concave(IntPolynomial([1, 3, 1]))
    assert not is_log_concave(IntPolynomial([1, 1, 2]))
    assert is_log_concave(IntPolynomial([1]))
    assert not is_log_concave(IntPolynomial([1, -1, 1]))


def test_sweep_families():
    for family, dmax in ((qvec_family(2), 10), (uniform_family(1), 12),
                         (BRAID, 12), (TYPE_B, 8)):
        rows = conjecture_sweep(family, dmax)
        assert len(rows) == dmax
        for row in rows:
            assert row["negative_real_rooted"], (family, row)
            assert row["interlace"] in ("strict", "weak"), (family, row)


def test_sweep_report_fields():
    rows = conjecture_sweep(qvec_family(2), 3, include_certificates=True)
    for row in rows:
        assert set(row) >= {"family", "d", "negative_real_rooted",
                            "interlace", "max_coeff_digits", "millis"}
        assert row["family"] == "qvec:2"
        assert "certificate" in row


def test_sweep_parallel_matches_serial():
    serial = conjecture_sweep(BRAID, 6)
    parallel = conjecture_sweep(BRAID, 6, threads=2)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "millis"}
                          for r in rows]
    assert strip(serial) == strip(parallel)


def test_qvec_gap_property():
    # the stronger property behind the q-family proof: exactly one root of
    # Z_{d-1} strictly between consecutive roots of Z_d, and alpha_i < q*alpha_{i+1}
    from zpoly.roots import (_isolate, _squarefree, _sturm_chain, _count_in,
                             _variations_at)

    def _halve(chain, interval):
        """Shrink an isolating interval by one bisection step."""
        lo, hi, vl, vh = interval
        mid = (lo + hi) / 2
        vm = _variations_at(chain, mid)
        if vl - vm == 1:
            return (lo, mid, vl, vm)
        return (mid, hi, vm, vh)

    for q in (2, 3):
        tables = build_tables(qvec_family(q), 10)
        for d in range(2, 11):
            zd = list(z_family(tables, d).coeffs)
            zp = list(z_family(tables, d - 1).coeffs)
            chain_d, intervals = _isolate(_squarefree(zd))
            chain_p = _sturm_chain(_squarefree(zp))
            iso = [(lo, hi, _variations_at(chain_d, lo), _variations_at(chain_d, hi))
                   for lo, hi in intervals]
            # refine until no Z_{d-1} root sits inside a Z_d interval and the
            # scaled-gap inequality hi_i <= q * lo_{i+1} is certified
            for k in range(len(iso)):
                for _ in range(512):
                    lo, hi, _, _ = iso[k]
                    if _count_in(chain_p, lo, hi) == 0:
                        break
                    iso[k] = _halve(chain_d, iso[k])
                else:
                    raise AssertionError("refinement cap hit")
            for k in range(len(iso) - 1):
                for _ in range(512):
                    if iso[k][1] <= q * iso[k + 1][0]:
                        break
                    iso[k] = _halve(chain_d, iso[k])
                    iso[k + 1] = _halve(chain_d, iso[k + 1])
                else:
                    raise AssertionError("gap inequality not certified")
                gap_roots = _count_in(chain_p, iso[k][1], iso[k + 1][0])
                assert gap_roots == 1, (q, d, k)
