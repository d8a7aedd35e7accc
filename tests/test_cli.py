import json
from fractions import Fraction

import pytest

from zpoly import (characteristic_polynomial, enumerate_flats, lattice_spec, parse_family,
                   q_shift_check)
from zpoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_z_family(capsys):
    code, out, _ = run(capsys, "compute", "z", "--family", "uniform:1", "--d", "3")
    assert code == 0
    assert out.strip() == "1 + 6t + 6t^2 + t^3"


def test_compute_whitney_family(capsys):
    code, out, _ = run(capsys, "compute", "whitney", "--family", "braid",
                       "--d", "3", "--profile", "2,1")
    assert code == 0
    assert out.strip() == "18"


K4_JSON = json.dumps({"type": "graph", "vertices": 4,
                      "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]})


@pytest.mark.parametrize("argv, expected", [
    (["compute", "kl", "--family", "braid", "--d", "5"], "1 + 16t + 15t^2"),
    (["compute", "z", "--matroid-json", K4_JSON], "1 + 7t + 7t^2 + t^3"),
    (["compute", "whitney", "--matroid-json", K4_JSON, "--profile", "1"], "7"),
    (["compute", "chi", "--family", "typeb", "--d", "3"], "-15 + 23t + -9t^2 + t^3"),
])
def test_compute_plain_output(capsys, argv, expected):
    # chi of type B_3 is (t - 1)(t - 3)(t - 5)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


@pytest.mark.parametrize("method_args, method", [
    ([], "defining"), (["--method", "defining"], "defining"), (["--method", "closed"], "closed"),
])
def test_compute_kl_single_method(capsys, method_args, method):
    code, out, _ = run(capsys, "compute", "kl", "--matroid-json", K4_JSON,
                       "--format", "json", *method_args)
    assert code == 0
    assert json.loads(out) == {"kl": [1, 1], "method": method}


def test_compute_all_methods(capsys, tmp_path):
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({
        "type": "graph", "vertices": 4,
        "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}))
    code, out, _ = run(capsys, "compute", "kl", "--matroid", str(k4),
                       "--all-methods")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "AGREE"
    assert all(line.endswith("1 + t") for line in lines[:-1])


def test_compute_all_methods_lists_the_family_route(capsys):
    code, out, _ = run(capsys, "compute", "kl", "--family", "braid", "--d", "4",
                       "--all-methods")
    assert code == 0
    assert out.strip().splitlines() == [
        "defining: 1 + 5t", "mobius: 1 + 5t", "recursion: 1 + 5t",
        "closed: 1 + 5t", "family: 1 + 5t", "AGREE"]


def test_all_methods_sweep_mobius_once(capsys, monkeypatch):
    # the Mobius route runs first and caches mu(bottom, .), which the
    # defining route reads: one sweep per lattice, output in KlMethod order
    from zpoly import klz, matroid
    sizes = []
    real = matroid._orbit_mobius

    def counted(lat):
        sizes.append(lat.n)
        return real(lat)

    monkeypatch.setattr(matroid, "_orbit_mobius", counted)
    monkeypatch.setattr(klz, "_orbit_mobius", counted)
    code, out, _ = run(capsys, "compute", "kl", "--family", "braid", "--d", "7",
                       "--all-methods")
    assert code == 0 and sizes == [4140]        # K8
    p = "1 + 99t + 1225t^2 + 735t^3"
    assert out.strip().splitlines() == [
        f"defining: {p}", f"mobius: {p}", f"recursion: {p}", f"closed: {p}",
        f"family: {p}", "AGREE"]
    sizes.clear()
    code, out, _ = run(capsys, "verify", "crossmethod")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert len(sizes) == len(report["checks"])


def test_compute_json_output_low_to_high(capsys):
    code, out, _ = run(capsys, "compute", "z", "--family", "qvec:2",
                       "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["z"] == [1, 3, 1]


def test_compute_chi_inline(capsys):
    code, out, _ = run(capsys, "compute", "chi", "--matroid-json",
                       '{"type": "uniform", "m": 1, "d": 2}')
    assert code == 0
    assert out.strip() == "2 + -3t + t^2"


@pytest.mark.parametrize("family, d_max", [
    ("braid", 4), ("typeb", 4), ("uniform:1", 4), ("uniform:2", 4), ("qvec:2", 3), ("qvec:3", 4),
])
def test_compute_chi_family_is_the_lattice_chi(capsys, family, d_max):
    # the family route reads chi off the Whitney table, w_d(k) at corank k
    for d in range(d_max + 1):
        code, out, _ = run(capsys, "compute", "chi", "--family", family, "--d", str(d),
                           "--format", "json")
        assert code == 0
        lat = enumerate_flats(lattice_spec(parse_family(family), d))
        assert json.loads(out)["chi"] == list(characteristic_polynomial(lat).coeffs), (family, d)


def test_compute_chi_family_builds_no_lattice(capsys):
    # K13 has Bell(13) = 27,644,437 flats, far over the default flat cap
    code, out, _ = run(capsys, "compute", "chi", "--family", "braid", "--d", "12")
    assert code == 0
    assert out.startswith("479001600 + ") and out.strip().endswith("-78t^11 + t^12")


@pytest.mark.parametrize("argv", [
    ("compute", "kl", "--family", "braid"), ("compute", "z", "--family", "braid"),
    ("compute", "tables", "--family", "braid"), ("compute", "chi", "--family", "braid"),
    ("bench", "braid"),
])
def test_negative_d_names_the_flag(capsys, monkeypatch, argv):
    import zpoly.cli as cli

    def nothing_built(*args, **kwargs):
        raise AssertionError("a table or lattice was built before --d was checked")

    for name in ("build_tables", "enumerate_flats", "lattice_spec"):
        monkeypatch.setattr(cli, name, nothing_built)
    code, out, err = run(capsys, *argv, "--d", "-1")
    assert code == 2 and out == ""
    assert "--d must be nonnegative, got -1" in err


def test_compute_tables_csv(capsys):
    code, out, _ = run(capsys, "compute", "tables", "--family", "braid", "--d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,d,k,W,w"
    assert "braid,2,1,3,-3" in lines


def test_compute_tables_json(capsys):
    code, out, _ = run(capsys, "compute", "tables", "--family", "braid", "--d", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert {"family": "braid", "d": 2, "k": 1, "W": 3, "w": -3} in rows


def test_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "kl")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "compute", "kl", "--family", "braid")
    assert code == 2
    code, _, err = run(capsys, "compute", "kl", "--matroid-json", "{broken")
    assert code == 2
    assert "column" in err
    code, _, err = run(capsys, "compute", "kl", "--family", "uniform:x", "--d", "2")
    assert code == 2
    assert "family 'uniform:x': parameter 'x' is not an integer" in err
    code, _, err = run(capsys, "compute", "nope")
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("payload", [
    {"type": "graph", "vertices": 3, "edges": [1, 2]},
    {"type": "bases", "ground": 3, "bases": [1]},
    {"type": "vectors", "vectors": [1, 2]},
    {"type": "flats", "ground": 2, "flats": [0]},
    {"type": "uniform", "m": None, "d": 2},
    {"type": "vectors", "vectors": [[0.5, 1], [1, 2]]},
    {"type": "uniform", "m": 1.9, "d": 2},
    {"type": "uniform", "m": True, "d": 2},
    {"type": "flats", "ground": 2, "flats": [[], [0.7], [1], [0, 1]]},
    {"type": "graph", "vertices": 3, "edges": [[0, "1"]]},
    {"type": "bases", "ground": "3", "bases": [[0, 1]]},
])
def test_malformed_matroid_json_is_usage_error(capsys, payload):
    code, _, err = run(capsys, "compute", "kl", "--matroid-json", json.dumps(payload))
    assert code == 2
    assert f"matroid JSON of type '{payload['type']}' is malformed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, argv, message", [
    (None, ["compute", "kl"], "cannot read"),
    ("{broken", ["compute", "kl"], "line 1 column 2"),
    (K4_JSON, ["compute", "tables"], "tables are family data"),
    (K4_JSON, ["compute", "whitney"], "--profile required"),
    (K4_JSON, ["compute", "whitney", "--profile", "1,x"], "bad profile '1,x'"),
    ('{"type": "graph", "vertices": -2, "edges": []}', ["compute", "chi"],
     "vertices must be nonnegative, got -2"),
])
def test_matroid_file_input_errors_exit_2(capsys, tmp_path, text, argv, message):
    path = tmp_path / "matroid.json"
    if text is not None:
        path.write_text(text)
    code, _, err = run(capsys, *argv, "--matroid", str(path))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_flat_cap_exit(capsys):
    code, _, err = run(capsys, "compute", "kl", "--matroid-json",
                       '{"type": "uniform", "m": 0, "d": 12}', "--flat-cap", "50")
    assert code == 2
    assert "cap" in err


def test_verify_narayana(capsys):
    code, out, _ = run(capsys, "verify", "narayana", "--dmax", "8")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["checks"]) == 9


def test_verify_palindrome_reads_the_defining_route(capsys, monkeypatch):
    # z_polynomial is palindromic by construction, so the lattice checks
    # read Z from the defining equation; a wrong Z there must fail them
    import zpoly.cli as cli

    def shifted(lat):
        P, Z = defining(lat)
        Z = list(Z)
        Z[lat.bottom_id] = (0,) + Z[lat.bottom_id]
        return P, Z

    defining = cli._defining_table
    code, out, _ = run(capsys, "verify", "palindrome", "--dmax", "4")
    assert code == 0 and json.loads(out)["pass"] is True
    monkeypatch.setattr(cli, "_defining_table", shifted)
    code, out, _ = run(capsys, "verify", "palindrome", "--dmax", "4")
    checks = json.loads(out)["checks"]
    lattices = [c["pass"] for c in checks if "d<=" not in c["name"]]
    families = [c["pass"] for c in checks if "d<=" in c["name"]]
    assert code == 1
    assert lattices and not any(lattices)
    assert families and all(families)

def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "palindrome" in err


@pytest.mark.parametrize("suite, prefix", [
    ("crossmethod", "crossmethod:U(0,0)"), ("gaussian", "gaussian:q=2:d<=10"),
])
def test_verify_whole_suite(capsys, suite, prefix):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == suite and report["pass"] is True
    assert report["checks"][0]["name"] == prefix


def test_verify_roots_carries_certificates(capsys):
    # Z_d of the braid family has d negative roots, one isolating interval each
    code, out, _ = run(capsys, "verify", "roots", "--family", "braid", "--dmax", "4",
                       "--certificates")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [len(c["certificate"]["isolating"]) for c in checks] == [1, 2, 3, 4]
    assert all(Fraction(lo) < Fraction(hi) <= 0
               for c in checks for lo, hi in c["certificate"]["isolating"])
    code, out, _ = run(capsys, "verify", "roots", "--family", "braid", "--dmax", "4")
    assert not any("certificate" in c for c in json.loads(out)["checks"])


def test_verify_qshift(capsys):
    code, out, _ = run(capsys, "verify", "qshift", "--dmax", "5")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_qshift_dmax_zero_is_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "qshift", "--dmax", "0")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 4 and all(c["pass"] for c in checks)
    assert q_shift_check(2, 0) is True


def test_verify_roots_small(capsys):
    code, out, _ = run(capsys, "verify", "roots", "--family", "qvec:2",
                       "--dmax", "5")
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["checks"])


def test_verify_interlace_small(capsys):
    code, out, _ = run(capsys, "verify", "interlace", "--family", "uniform:1",
                       "--dmax", "6")
    assert code == 0


def test_verify_series_small(capsys):
    code, out, _ = run(capsys, "verify", "series", "--dmax", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("suite", ["roots", "interlace"])
def test_verify_suite_with_no_checks_is_a_usage_error(capsys, suite):
    # d runs over 1..dmax: --dmax 0 leaves the sweep nothing to check
    code, out, err = run(capsys, "verify", suite, "--dmax", "0")
    assert code == 2 and out == ""
    assert f"suite {suite!r} ran no checks" in err


def test_verify_series_negative_order_names_the_order(capsys):
    code, out, err = run(capsys, "verify", "series", "--dmax", "17")
    assert code == 2 and out == ""
    assert "order must be in 0..16" in err and "d_max" not in err


@pytest.mark.parametrize("suite", ["palindrome", "narayana", "gaussian", "qshift",
                                   "roots", "interlace", "logconcave"])
def test_verify_negative_dmax_names_the_flag(capsys, monkeypatch, suite):
    import zpoly.cli as cli

    def no_enumeration(spec, **kwargs):
        raise AssertionError("a suite ran before --dmax was checked")

    monkeypatch.setattr(cli, "enumerate_flats", no_enumeration)
    code, out, err = run(capsys, "verify", suite, "--dmax", "-1")
    assert code == 2 and out == ""
    assert "--dmax" in err and "d_max" not in err


@pytest.mark.parametrize("argv, flag", [
    (("crossmethod", "--dmax", "3"), "--dmax"), (("crossmethod", "--dmax", "0"), "--dmax"),
    (("narayana", "--family", "braid", "--dmax", "2"), "--family"),
    (("schur", "--corpus", "full", "--certificates"), "--corpus"),
])
def test_verify_rejects_flags_the_suite_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"suite {argv[0]!r} does not read {flag}" in err
    code, out, _ = run(capsys, "verify", "roots", "--family", "braid", "--dmax", "3",
                       "--certificates")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv, message", [
    (("z", "--method", "closed"), "compute 'z' does not read --method"),
    (("chi", "--all-methods"), "compute 'chi' does not read --all-methods"),
    (("kl", "--profile", "2,1"), "compute 'kl' does not read --profile"),
    (("kl", "--method", "closed", "--all-methods"),
     "argument --all-methods: not allowed with argument --method"),
])
def test_compute_rejects_flags_the_target_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, "compute", *argv, "--family", "braid", "--d", "3")
    assert code == 2 and out == ""
    assert message in err


def nothing_built(*args, **kwargs):
    raise AssertionError("a table or lattice was built before the flags were checked")


U13_JSON = '{"type": "uniform", "m": 1, "d": 3}'


@pytest.mark.parametrize("argv, message", [
    (("z", "--matroid-json", U13_JSON, "--d", "7"),
     "compute 'z' from --matroid-json does not read --d"),
    (("kl", "--family", "braid", "--d", "3", "--flat-cap", "1"),
     "compute 'kl' from --family without a lattice does not read --flat-cap"),
    (("tables", "--family", "braid", "--d", "2", "--flat-cap", "5"),
     "compute 'tables' from --family without a lattice does not read --flat-cap"),
    (("whitney", "--matroid", "no-such-file.json", "--profile", "1", "--d", "2"),
     "compute 'whitney' from --matroid does not read --d"),
])
def test_compute_rejects_flags_the_route_does_not_read(capsys, monkeypatch, argv, message):
    # --d is read only with --family, --flat-cap only where a lattice is
    # enumerated; the check comes before any file is read or anything built
    import zpoly.cli as cli

    for name in ("build_tables", "enumerate_flats", "lattice_spec"):
        monkeypatch.setattr(cli, name, nothing_built)
    code, out, err = run(capsys, "compute", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_flat_cap_is_read_on_every_lattice_route(capsys):
    code, out, err = run(capsys, "compute", "kl", "--family", "braid", "--d", "3",
                         "--method", "closed", "--flat-cap", "1")
    assert code == 2 and out == ""
    assert "flat count exceeds cap 1" in err
    code, out, _ = run(capsys, "compute", "kl", "--family", "braid", "--d", "3",
                       "--all-methods", "--flat-cap", "100")
    assert code == 0 and out.strip().splitlines()[-1] == "AGREE"
    code, out, _ = run(capsys, "compute", "z", "--matroid-json", U13_JSON, "--flat-cap", "12")
    assert code == 0 and out.strip() == "1 + 6t + 6t^2 + t^3"


def test_every_compute_flag_is_read_or_rejected_where_unread(capsys):
    # each optional flag of `compute` is read by every invocation (--format
    # and the three sources) or is one that some invocation rejects as
    # unread, so a flag added later cannot be ignored without an error
    import argparse

    from zpoly.cli import build_parser

    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    always_read = {"--format", "--matroid", "--matroid-json", "--family"}
    flags = [a for a in subparsers.choices["compute"]._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)]
    assert always_read < {a.option_strings[0] for a in flags}
    for action in flags:
        flag = action.option_strings[0]
        if flag in always_read:
            continue
        value = [] if action.nargs == 0 else [action.choices[0] if action.choices else "1"]
        rejected = []
        for target in ("kl", "z", "chi", "whitney", "tables"):
            for source in (("--family", "braid", "--d", "3"), ("--matroid-json", K4_JSON)):
                code, _, err = run(capsys, "compute", target, *source, flag, *value)
                rejected.append(code == 2 and f"does not read {flag}" in err)
        assert any(rejected), flag


@pytest.mark.parametrize("argv", [
    ("bench", "braid", "--d", "3", "--flat-cap", "-5"),
    ("compute", "z", "--matroid-json", U13_JSON, "--flat-cap", "-5"),
    ("compute", "kl", "--family", "braid", "--d", "3", "--method", "closed", "--flat-cap", "-5"),
])
def test_negative_flat_cap_names_the_flag(capsys, monkeypatch, argv):
    import zpoly.cli as cli

    for name in ("build_tables", "enumerate_flats", "lattice_spec"):
        monkeypatch.setattr(cli, name, nothing_built)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--flat-cap must be nonnegative, got -5" in err


def test_verify_logconcave(capsys):
    code, out, _ = run(capsys, "verify", "logconcave", "--family", "braid",
                       "--dmax", "10")
    assert code == 0


def test_verify_schur(capsys):
    code, out, _ = run(capsys, "verify", "schur")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_bench_small(capsys):
    code, out, _ = run(capsys, "bench", "braid", "--d", "5", "--reps", "2")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    methods = {row["method"] for row in report["rows"]}
    assert methods == {"family-recursion", "lattice-defining"}
    lattice_row = report["rows"][1]
    assert (lattice_row["flats"], lattice_row["orbits"]) == (203, 11)   # K6; p(6) = 11
    checksums = {row["checksum"] for row in report["rows"]}
    assert len(checksums) == 1


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_needs_a_positive_rep_count(capsys, reps):
    code, out, err = run(capsys, "bench", "braid", "--d", "3", "--reps", reps)
    assert code == 2 and out == ""
    assert f"--reps must be at least 1, got {reps}" in err


def test_bench_reports_orbit_pairs(capsys):
    # K8: the up-sets of its 22 orbit representatives hold 5,666 of the
    # 163,754 interval pairs
    code, out, _ = run(capsys, "bench", "braid", "--d", "7", "--reps", "1")
    assert code == 0
    row = json.loads(out)["rows"][1]
    assert (row["flats"], row["orbits"], row["orbit_pairs"]) == (4140, 22, 5666)


def test_bench_reports_up_set_rows(capsys):
    # the K8 verifier builds the up-set rows of its 22 orbit
    # representatives only, not those of its 4140 flats, and the lattice
    # holds the covers of its 22 walk roots only, so it maps no row and
    # builds no flat permutation
    code, out, _ = run(capsys, "bench", "braid", "--d", "7", "--reps", "1")
    assert code == 0
    row = json.loads(out)["rows"][1]
    assert (row["flats"], row["orbits"], row["up_set_rows"]) == (4140, 22, 22)
    assert row["cover_rows"] == 22
    assert row["flat_permutations"] == 0


def test_bench_typeb_reports_signed_permutation_orbits(capsys):
    # type B, d = 5: the signed coordinate permutations leave
    # sum_{j <= 5} p(j) = 19 orbits of its 648 flats
    code, out, _ = run(capsys, "bench", "typeb", "--d", "5", "--reps", "1")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    row = report["rows"][1]
    assert (row["flats"], row["orbits"]) == (648, 19)


def test_bench_trivial(capsys):
    code, out, _ = run(capsys, "bench", "braid", "--d", "0")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_bench_fast_only(capsys):
    code, out, _ = run(capsys, "bench", "braid", "--d", "12", "--flat-cap", "0")
    assert code == 0
    assert "skipped" in json.loads(out)["baseline"]


def test_bench_infeasible_marker(capsys):
    code, out, _ = run(capsys, "bench", "braid", "--d", "14", "--flat-cap", "1000")
    assert code == 0
    report = json.loads(out)
    assert "skipped" in report["baseline"]
    assert "flats" in report["baseline"]


def test_bench_skips_a_family_with_no_lattice(capsys):
    # qvec:4 has Whitney tables but no lattice realization (4 is not prime)
    code, out, _ = run(capsys, "bench", "qvec:4", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert [row["method"] for row in report["rows"]] == ["family-recursion"]
    assert report["baseline"] == "skipped (lattice realization needs q prime)"
    assert "agree" not in report
    code, out, _ = run(capsys, "compute", "kl", "--family", "qvec:4", "--d", "2")
    assert code == 0 and out.strip() == "1"


def test_worker_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ZPOLY_THREADS", "2")
    code, out, _ = run(capsys, "verify", "roots", "--family", "qvec:2",
                       "--dmax", "4")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_invalid_threads_env_var_is_usage_error(capsys, monkeypatch):
    for raw in ("x", "0"):
        monkeypatch.setenv("ZPOLY_THREADS", raw)
        code, _, err = run(capsys, "verify", "roots", "--family", "qvec:2",
                           "--dmax", "4")
        assert code == 2
        assert "ZPOLY_THREADS" in err


def test_verify_under_optimize_flag():
    # python -O strips asserts; the library's invariant checks must not rely on them
    import os
    import subprocess
    import sys
    from pathlib import Path

    import zpoly

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(zpoly.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    env.pop("ZPOLY_THREADS", None)
    code = ("import sys; from zpoly.cli import main; sys.exit(main(["
            "'verify', 'interlace', '--family', 'uniform:1', '--dmax', '6']))")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True


def test_verify_half_degree_route_under_optimize_flag():
    # braid to d = 40 goes through the palindromic reduction; with asserts
    # stripped every check must still pass
    import os
    import subprocess
    import sys
    from pathlib import Path

    import zpoly

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(zpoly.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    env.pop("ZPOLY_THREADS", None)
    code = ("import sys; from zpoly.cli import main; sys.exit(main(["
            "'verify', 'interlace', '--family', 'braid', '--dmax', '40']))")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["pass"] is True
    assert len(report["checks"]) == 40
    assert all(check["pass"] for check in report["checks"])
