"""Command-line front end: compute polynomials and Whitney numbers, run the
named verification suites, and benchmark the family recursion against the
generic lattice computation.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import corpus as corpus_mod
from .equivariant import (PermGroup, character_value, dimension,
                          equivariant_c_character, equivariant_c_uniform,
                          h_to_schur, is_schur_positive)
from .families import (BRAID, TYPE_B, _spec_elements, build_tables, gaussian_binomial,
                       kl_family, lattice_spec, narayana, parse_family,
                       q_shift_check, qvec_family, series_identity_check,
                       uniform_family, whitney_multi_family, z_family)
from .klz import (KlMethod, _defining_table, kl_by_method, kl_coeff_closed,
                  kl_defining, z_polynomial)
from .matroid import (FlatCapExceeded, _check_cap, characteristic_polynomial,
                      enumerate_flats, matroid_spec_from_json, whitney_multi)
from .polyarith import IntPolynomial, is_palindromic
from .roots import conjecture_sweep, is_log_concave

DEFAULT_FLAT_CAP = 2_000_000


class UsageError(Exception):
    pass


def _threads() -> int:
    raw = os.environ.get("ZPOLY_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise UsageError(f"ZPOLY_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _load_matroid(args):
    """The matroid spec in the --matroid file or the --matroid-json text."""
    text, where = args.matroid_json, "--matroid-json"
    if args.matroid:
        try:
            with open(args.matroid, "r", encoding="utf-8") as fh:
                text, where = fh.read(), args.matroid
        except OSError as exc:
            raise UsageError(f"cannot read {args.matroid}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return matroid_spec_from_json(obj)


def _emit(args, payload, plain_lines):
    print(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json"
          else "\n".join(plain_lines))


def _reject_unread(args, flags, reads, owner: str):
    """Raise a usage error naming the first of `flags` given but not in `reads`."""
    for flag in flags:
        value = getattr(args, flag)     # None or False: not given
        if flag not in reads and value is not None and value is not False:
            raise UsageError(f"{owner} does not read --{flag.replace('_', '-')}")


# ---------------------------------------------------------------------------
# compute

# target -> (which of --profile, --method, --all-methods it reads, its answer
# from the family tables, its answer from a lattice).  An answer, a polynomial
# or an int, reads d, profile and method from the context the output echoes.
TARGETS = {
    "kl": ({"method", "all_methods"}, lambda tables, ctx: kl_family(tables, ctx["d"]),
           lambda lat, ctx: kl_by_method(lat, KlMethod(ctx["method"]))),
    "z": (set(), lambda tables, ctx: z_family(tables, ctx["d"]), lambda lat, _: z_polynomial(lat)),
    "chi": (set(), lambda tables, ctx: IntPolynomial(tables.w[ctx["d"]]),   # w_d(k) at corank k
            lambda lat, _: characteristic_polynomial(lat)),
    "whitney": ({"profile"},
                lambda tables, ctx: whitney_multi_family(tables, ctx["d"], ctx["profile"]),
                lambda lat, ctx: whitney_multi(lat, ctx["profile"])),
    "tables": (set(), None, None),
}


def cmd_compute(args) -> int:
    """One route per invocation: the family tables with --family and no lattice
    method, else a lattice.  --d is read only with --family, --flat-cap only
    where a lattice is enumerated; all flags are checked before any work."""
    target = args.target
    reads, from_tables, from_lattice = TARGETS[target]
    _reject_unread(args, ("profile", "method", "all_methods"), reads, f"compute {target!r}")
    sources = [s for s in ("matroid", "matroid_json", "family") if getattr(args, s)]
    if len(sources) != 1:
        raise UsageError("exactly one of --matroid, --matroid-json, --family required")
    if target == "tables" and not args.family:
        raise UsageError("tables are family data; use --family")
    if args.family and args.d is None:
        raise UsageError("--family requires --d")
    on_lattice = not args.family or args.method is not None or args.all_methods
    route = {flag for flag, read in (("d", args.family), ("flat_cap", on_lattice)) if read}
    via = f"from --{sources[0].replace('_', '-')}" + ("" if on_lattice else " without a lattice")
    _reject_unread(args, ("d", "flat_cap"), route, f"compute {target!r} {via}")

    family = parse_family(args.family) if args.family else None
    ctx = {"profile": _parse_profile(args.profile)} if "profile" in reads else {}
    if on_lattice:
        cap = DEFAULT_FLAT_CAP if args.flat_cap is None else args.flat_cap
        spec = (_family_spec(family, args.d, cap, build_tables(family, args.d)) if family
                else _load_matroid(args))
        lat = enumerate_flats(spec, flat_cap=cap)
        if args.all_methods:
            return _compare_methods(args, lat, family)
        if "method" in reads:
            ctx["method"] = args.method or KlMethod.DEFINING.value
        answer = from_lattice(lat, ctx)
    else:
        tables = build_tables(family, args.d)
        if target == "tables":
            rows = [{"family": str(family), "d": d, "k": k,
                     "W": tables.W[d][k], "w": tables.w[d][k]}
                    for d in range(args.d + 1) for k in range(d + 1)]
            _emit(args, rows, [",".join(rows[0])] + [",".join(map(str, r.values())) for r in rows])
            return 0
        ctx.update(family=str(family), d=args.d)
        answer = from_tables(tables, ctx)
    _emit(args, {**ctx, target: getattr(answer, "coeffs", answer)}, [str(answer)])
    return 0


def _family_spec(family, d: int, flat_cap: int, tables):
    """lattice_spec(family, d) once its flat count sum_k W_d(k) and the
    elements it lists are within flat_cap: a spec over the cap can be too
    large to build (F_q^2 has q + 3 subspaces but q^2 - 1 vectors)."""
    _check_cap(sum(tables.W[d]), flat_cap, d)
    size = _spec_elements(family, d)
    if size > flat_cap:
        raise FlatCapExceeded(f"element count exceeds cap {flat_cap}: {size} elements at rank {d}")
    return lattice_spec(family, d)


def _compare_methods(args, lat, family) -> int:
    """kl by every lattice method, and by the family recursion with --family;
    exit 1 if they disagree."""
    results = {m.value: kl_by_method(lat, m) for m in KlMethod}
    if family is not None:
        results["family"] = kl_family(build_tables(family, args.d), args.d)
    agree = len(set(results.values())) == 1
    lines = [f"{k}: {p}" for k, p in results.items()] + ["AGREE" if agree else "DISAGREE"]
    _emit(args, {"methods": {k: p.coeffs for k, p in results.items()}, "agree": agree}, lines)
    return 0 if agree else 1


def _parse_profile(text):
    if not text:
        raise UsageError("--profile required (comma-separated coranks, e.g. 2,1)")
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"bad profile {text!r}")


# ---------------------------------------------------------------------------
# verify


def _corpus(args):
    return (corpus_mod.acceptance_corpus() if args.corpus == "full"
            else corpus_mod.small_corpus())


def _suite_palindrome(args):
    checks = []
    for label, spec in _corpus(args):
        lat = enumerate_flats(spec)
        # z_polynomial is palindromic by construction; Z assembled from the
        # defining equation's own P values is what the theorem speaks about
        z = IntPolynomial(_defining_table(lat)[1][lat.bottom_id])
        checks.append({"name": f"palindrome:{label}",
                       "pass": is_palindromic(z, lat.rk_total)})
    for family in (BRAID, TYPE_B, uniform_family(1), qvec_family(2)):
        tables = build_tables(family, args.dmax)
        ok = all(is_palindromic(z_family(tables, d), d) for d in range(args.dmax + 1))
        checks.append({"name": f"palindrome:{family}:d<={args.dmax}", "pass": ok})
    return checks


def _suite_crossmethod(args):
    checks = []
    for label, spec in _corpus(args):
        lat = enumerate_flats(spec)
        ok = len({kl_by_method(lat, m) for m in KlMethod}) == 1
        checks.append({"name": f"crossmethod:{label}", "pass": ok})
    return checks


def _suite_narayana(args):
    tables = build_tables(uniform_family(1), args.dmax)
    checks = []
    for d in range(args.dmax + 1):
        z = z_family(tables, d)
        ok = all(z.coefficient(i) == narayana(d + 1, i + 1) for i in range(d + 1))
        checks.append({"name": f"narayana:d={d}", "pass": ok})
    return checks


def _suite_gaussian(args):
    checks = []
    for q in (2, 3, 4, 5):
        tables = build_tables(qvec_family(q), args.dmax)
        ok = all(z_family(tables, d).coefficient(i) == gaussian_binomial(d, i, q)
                 for d in range(args.dmax + 1) for i in range(d + 1))
        checks.append({"name": f"gaussian:q={q}:d<={args.dmax}", "pass": ok})
    return checks


def _suite_qshift(args):
    return [{"name": f"qshift:q={q}:d<={args.dmax}", "pass": q_shift_check(q, args.dmax)}
            for q in (2, 3, 4, 5)]


def _sweep_checks(args, which):
    family = parse_family(args.family) if args.family else BRAID
    rows = conjecture_sweep(family, args.dmax, threads=_threads(),
                            include_certificates=args.certificates)
    checks = []
    for row in rows:
        if which == "roots":
            ok = row["negative_real_rooted"]
        else:
            ok = row["interlace"] in ("strict", "weak")
        check = {"name": f"{which}:{family}:d={row['d']}", "pass": ok,
                 "millis": round(row["millis"], 3)}
        if "certificate" in row:
            check["certificate"] = row["certificate"]
        checks.append(check)
    return checks


def _suite_logconcave(args):
    families = ([parse_family(args.family)] if args.family else
                [BRAID, TYPE_B, uniform_family(1), uniform_family(2), qvec_family(2)])
    checks = []
    for family in families:
        tables = build_tables(family, args.dmax)
        ok = all(is_log_concave(z_family(tables, d)) for d in range(args.dmax + 1))
        checks.append({"name": f"logconcave:{family}:d<={args.dmax}", "pass": ok})
    return checks


def _suite_schur(args):
    checks = []
    expected = h_to_schur(equivariant_c_uniform(1, 3, 1))
    checks.append({"name": "schur:c(U_{1,3},1)=s[2,2]",
                   "pass": expected.terms == {(2, 2): 1}})
    ok_dim = True
    ok_pos = True
    for m in (1, 2, 3):
        for d in range(2, 7):
            tables = build_tables(uniform_family(m), d)
            for i in range(1, (d + 1) // 2):
                f = equivariant_c_uniform(m, d, i)
                if dimension(f, m + d) != kl_family(tables, d).coefficient(i):
                    ok_dim = False
                if m + d <= 12 and not is_schur_positive(f):
                    ok_pos = False
    checks.append({"name": "schur:dimension-shadow", "pass": ok_dim})
    checks.append({"name": "schur:positivity", "pass": ok_pos})
    lat = enumerate_flats(lattice_spec(uniform_family(1), 3))
    table = equivariant_c_character(lat, PermGroup.symmetric(4), 1)
    checks.append({"name": "schur:character-identity",
                   "pass": table.at_identity() == kl_coeff_closed(lat, 1)})
    lat = enumerate_flats(lattice_spec(uniform_family(2), 5))
    s7 = PermGroup.symmetric(7)
    table = equivariant_c_character(lat, s7, 1)
    f = equivariant_c_uniform(2, 5, 1)
    checks.append({"name": "schur:character-classes(U_{2,5},S_7)",
                   "pass": all(table.class_values[g] == character_value(f, g)
                               for g in s7.class_representatives())})
    return checks


def _suite_series(args):
    checks = []
    for family, default in ((BRAID, 12), (TYPE_B, 10)):
        order = default if args.dmax is None else args.dmax
        checks.append({"name": f"series:{family}:order={order}",
                       "pass": series_identity_check(family, order)})
    return checks


# suite -> (function, default --dmax, the flags it reads); None leaves --dmax unset
SUITES = {
    "palindrome": (_suite_palindrome, 40, {"dmax", "corpus"}),
    "crossmethod": (_suite_crossmethod, None, {"corpus"}),
    "narayana": (_suite_narayana, 12, {"dmax"}),
    "gaussian": (_suite_gaussian, 10, {"dmax"}),
    "qshift": (_suite_qshift, 10, {"dmax"}),
    "roots": (lambda a: _sweep_checks(a, "roots"), 20, {"dmax", "family", "certificates"}),
    "interlace": (lambda a: _sweep_checks(a, "interlace"), 20,
                  {"dmax", "family", "certificates"}),
    "logconcave": (_suite_logconcave, 20, {"dmax", "family"}),
    "schur": (_suite_schur, None, set()),
    "series": (_suite_series, None, {"dmax"}),
}


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; available: {', '.join(SUITES)}",
              file=sys.stderr)
        return 2
    run_suite, default_dmax, reads = SUITES[suite]
    _reject_unread(args, ("dmax", "family", "corpus", "certificates"), reads, f"suite {suite!r}")
    args.dmax = default_dmax if args.dmax is None else args.dmax
    checks = run_suite(args)
    if not checks:
        raise UsageError(f"suite {suite!r} ran no checks")
    ok = all(c["pass"] for c in checks)
    report = {"suite": suite, "pass": ok, "checks": checks}
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench


def _checksum(poly: IntPolynomial) -> str:
    blob = ",".join(str(c) for c in poly.coeffs).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cmd_bench(args) -> int:
    family = parse_family(args.family)
    d = args.d
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    tables = build_tables(family, d)

    times = []
    for _ in range(args.reps):
        fresh = build_tables(family, d)
        t0 = time.perf_counter()
        fast = kl_family(fresh, d)
        times.append((time.perf_counter() - t0) * 1000.0)
    rows = [{"method": "family-recursion", "d": d,
             "millis": min(times), "all_millis": [round(t, 3) for t in times],
             "checksum": _checksum(fast)}]

    report = {"family": str(family), "d": d, "rows": rows}
    t0 = time.perf_counter()            # building the spec counts as enumeration
    try:
        spec = _family_spec(family, d, args.flat_cap, tables)
    except ValueError as exc:           # over the cap, or a member with no lattice realization
        report["baseline"] = f"skipped ({exc})"
    else:
        lat = enumerate_flats(spec, flat_cap=args.flat_cap)
        enum_ms = (time.perf_counter() - t0) * 1000.0
        t0 = time.perf_counter()
        slow = kl_defining(lat)
        slow_ms = (time.perf_counter() - t0) * 1000.0
        rows.append({"method": "lattice-defining", "d": d, "millis": slow_ms,
                     "enumeration_millis": enum_ms, "flats": lat.n, "orbits": lat.n_orbits,
                     "up_set_rows": len(lat.uppers().keys()),   # the rows the verifier read
                     "cover_rows": len(lat.covers.keys()),
                     "flat_permutations": len(lat.flat_permutations.keys()),
                     "orbit_pairs": sum(len(lat.uppers()[f]) for f in lat.orbit_size),
                     "checksum": _checksum(slow)})
        report["agree"] = slow == fast
        report["speedup"] = slow_ms / max(min(times), 1e-9)
    print(json.dumps(report, indent=2))
    return 0 if report.get("agree", True) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpoly",
        description="Exact Kazhdan-Lusztig and Z-polynomials of matroids.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute a polynomial or Whitney number")
    pc.add_argument("target", choices=("kl", "z", "chi", "whitney", "tables"))
    pc.add_argument("--matroid", help="path to a matroid JSON file")
    pc.add_argument("--matroid-json", help="inline matroid JSON")
    pc.add_argument("--family", help="braid | typeb | uniform:m | qvec:q")
    pc.add_argument("--d", type=int, help="rank within the family")
    pc.add_argument("--profile", help="comma-separated corank profile, e.g. 2,1")
    methods = pc.add_mutually_exclusive_group()
    methods.add_argument("--method", choices=[m.value for m in KlMethod],
                         help="lattice method for kl (default: defining); forces "
                              "lattice enumeration even with --family")
    methods.add_argument("--all-methods", action="store_true",
                         help="run all methods and report agreement")
    pc.add_argument("--format", choices=("plain", "json"), default="plain")
    pc.add_argument("--flat-cap", type=int)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite")
    pv.add_argument("--dmax", type=int,
                    help="largest rank d checked; for series, the order")
    pv.add_argument("--family")
    pv.add_argument("--corpus", choices=("small", "full"), help="default: small")
    pv.add_argument("--certificates", action="store_true",
                    help="include isolating-interval certificates in reports")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="benchmark family recursion vs lattice")
    pb.add_argument("family")
    pb.add_argument("--d", type=int, required=True)
    pb.add_argument("--reps", type=int, default=1)
    pb.add_argument("--flat-cap", type=int, default=DEFAULT_FLAT_CAP)
    pb.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for flag in ("d", "dmax", "flat_cap"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
