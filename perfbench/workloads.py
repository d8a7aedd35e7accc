"""The benchmark's four workloads.

Each workload has a seeded input generator, a job (the timed part), checks
of every answer against an independent route, and counters derived from the
job's outputs for the traced run.

The seed only relabels inputs in ways that leave the matroid unchanged
(vertex and edge labels, vector order, signed coordinate permutations and
scalings, flat order, group generators, family order).  Every reference
answer is therefore the same for every seed, while the work is not.

Why these four: each puts one of the library's four hot spots in charge
and leaves the other three out.

* lattice-braid7: the klz P-table and the up-set table dominate; the graph
  enumerator is a small share and rank-oracle closure is not used.
* lattice-oracle: rank-oracle and span closure dominate; the P-table is
  under 1 %.  The mirror image of lattice-braid7.
* sweep: Sturm sequences in roots dominate, on Z coefficients of 75-94
  bits (braid, typeb) and of 37 bits (uniform:2).
* equivariant: per-element character evaluation; no other workload calls
  the equivariant module.

Sizes keep one job at a few seconds or less (K8 rather than K9, sweeps to
d=20 rather than 30), so that a run holds several jobs: a single 10-20 s job
per run spread 30-44 % between runs on a shared host.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import zpoly as zp

SWEEP_D_MAX = 20


class Failed:
    """An item whose call raised; counted as a failure by the checks."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Failed({self.reason!r})"


def failed(exc: Exception) -> Failed:
    return Failed(f"{type(exc).__name__}: {exc}")


def attempt(answers: dict, key: str, fn):
    """answers[key] = fn(); an exception becomes a Failed item, so one bad
    call is counted instead of ending the run."""
    try:
        answers[key] = fn()
    except Exception as exc:  # every library error is a counted failure
        answers[key] = failed(exc)
    return answers[key]


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _answer_json(value):
    if isinstance(value, Failed):
        return "failed"
    return value


def _compare(failures: dict, answers: dict, key: str, want):
    got = answers.get(key)
    if got is None:
        failures[key] = "missing"
    elif isinstance(got, Failed):
        failures[key] = got.reason
    elif got != want:
        failures[key] = f"got {got!r}, want {want!r}"


def _count_lattices(lattices) -> dict:
    """Counters over enumerated lattices.  closure_useful_ratio is cover
    edges over the candidate extensions sum_F (n - |F|) that rank-oracle
    closure enumeration (vectors, bases) tries; 0 when the workload has no
    such lattice."""
    flats = covers = pairs = useful = candidates = 0
    for kind, lat in lattices:
        flats += lat.n
        edges = sum(len(c) for c in lat.covers)
        covers += edges
        pairs += sum(len(u) for u in lat.uppers())
        if kind in ("vectors", "bases"):
            useful += edges
            candidates += sum(lat.n_ground - f.bit_count() for f in lat.flats)
    return {"matroid.flats": flats, "matroid.cover_edges": covers,
            "matroid.interval_pairs": pairs,
            "matroid.closure_useful_ratio": useful / candidates if candidates else 0.0}


# ---------------------------------------------------------------------------
# seeded relabelings


def _perm(rng: random.Random, n: int) -> list:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _relabeled_complete_graph(rng: random.Random, nv: int):
    """K_nv with shuffled vertex labels, edge order and edge orientation."""
    pv = _perm(rng, nv)
    edges = []
    for u, v in combinations(range(nv), 2):
        a, b = pv[u], pv[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


def _typeb_vectors(rng: random.Random, d: int) -> tuple:
    """e_i and e_i +- e_j, under a signed coordinate permutation, each
    vector scaled by one of +-1, +-2, +-3, in shuffled order."""
    base = []
    for i in range(d):
        base.append({i: 1})
    for i, j in combinations(range(d), 2):
        for sgn in (-1, 1):
            base.append({i: 1, j: sgn})
    coord = _perm(rng, d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    out = []
    for vec in base:
        scale = rng.choice((-3, -2, -1, 1, 2, 3))
        row = [0] * d
        for i, x in vec.items():
            row[coord[i]] = signs[i] * scale * x
        out.append(tuple(row))
    rng.shuffle(out)
    return tuple(out)


def _spanning_trees(nv: int, edges) -> list:
    """Edge-index sets of the spanning trees of a graph (union-find)."""
    out = []
    for combo in combinations(range(len(edges)), nv - 1):
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx in combo:
            ru, rv = find(edges[idx][0]), find(edges[idx][1])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            out.append(combo)
    return out


def _sym_generators(rng: random.Random, n: int) -> list:
    """A transposition and an n-cycle through adjacent points, conjugated by
    a random permutation: they generate S_n for every seed."""
    rho = _perm(rng, n)
    swap = list(range(n))
    swap[rho[0]], swap[rho[1]] = rho[1], rho[0]
    cycle = list(range(n))
    for k in range(n):
        cycle[rho[k]] = rho[(k + 1) % n]
    gens = [tuple(swap), tuple(cycle)]
    rng.shuffle(gens)
    return gens


def _cycle_type(perm) -> tuple:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            out.append(length)
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# lattice workloads


@dataclass
class LatticeInput:
    """One matroid run through all four KL routes.  name is stable across
    seeds; make_spec builds the spec inside the job (qvec calls the
    library there)."""
    name: str
    family: zp.NiceFamily
    d: int
    kind: str
    make_spec: Callable = field(repr=False)
    fingerprint: object = None


LATTICE_ITEMS = ("flats", "chi", "P.defining", "Z", "P.mobius", "P.recursion", "P.closed")


def _run_lattices(calls, matroids):
    """enumerate_flats, uppers, mobius_from_bottom, kl_defining,
    z_polynomial, kl_via_mobius, then the recursion and closed-formula
    coefficients (what kl_by_method does for those two routes)."""
    answers = {}
    lattices = []
    kl_windows = []         # perf_counter intervals that make up kl_s
    for m in matroids:
        key = m.name
        t0 = time.perf_counter()
        try:
            spec = m.make_spec(calls)
            lat = calls.call(f"matroid.enumerate_flats.{m.kind}", zp.enumerate_flats, spec)
            calls.call("matroid.FlatLattice.uppers", lat.uppers)
        except Exception as exc:  # counted: every item of this matroid fails
            for item in LATTICE_ITEMS:
                answers[f"{key}.{item}"] = failed(exc)
            continue
        t1 = time.perf_counter()
        lattices.append((m.kind, lat))
        answers[f"{key}.flats"] = lat.n

        def chi():
            mu = calls.call("matroid.mobius_from_bottom", zp.mobius_from_bottom, lat)
            out = [0] * (lat.rk_total + 1)
            for f, value in enumerate(mu):
                out[lat.corank(f)] += value
            return out

        attempt(answers, f"{key}.chi", chi)
        t2 = time.perf_counter()
        attempt(answers, f"{key}.P.defining",
                lambda: list(calls.call("klz.kl_defining", zp.kl_defining, lat).coeffs))
        kl_windows += [(t0, t1), (t2, time.perf_counter())]
        attempt(answers, f"{key}.Z",
                lambda: list(calls.call("klz.z_polynomial", zp.z_polynomial, lat).coeffs))
        attempt(answers, f"{key}.P.mobius",
                lambda: list(calls.call("klz.kl_via_mobius", zp.kl_via_mobius, lat).coeffs))
        top = (lat.rk_total + 1) // 2
        for route, name, fn in (
                ("recursion", "klz.kl_coeff_new_recursion", zp.kl_coeff_new_recursion),
                ("closed", "klz.kl_coeff_closed", zp.kl_coeff_closed)):
            attempt(answers, f"{key}.P.{route}",
                    lambda: list(zp.IntPolynomial(
                        [1] + [calls.call(name, fn, lat, i) for i in range(1, top)]).coeffs))
    return answers, kl_windows, {"lattices": lattices}


def _check_lattices(matroids, answers, state) -> dict:
    failures = {}
    for m in matroids:
        tables = zp.build_tables(m.family, m.d)
        p_ref = list(zp.kl_family(tables, m.d).coeffs)
        _compare(failures, answers, f"{m.name}.flats", sum(tables.W[m.d]))
        _compare(failures, answers, f"{m.name}.chi", list(tables.w[m.d]))
        _compare(failures, answers, f"{m.name}.Z", list(zp.z_family(tables, m.d).coeffs))
        for route in ("defining", "mobius", "recursion", "closed"):
            _compare(failures, answers, f"{m.name}.P.{route}", p_ref)
    return failures


def _lattice_counters(matroids, answers, state) -> dict:
    out = _count_lattices(state["lattices"])
    out["klz.closed_terms"] = sum(len(zp.enumerate_index_tuples(i, m.d))
                                  for m in matroids for i in range(1, (m.d + 1) // 2))
    return out


def _fixed_spec(spec):
    return lambda calls: spec


def braid7_inputs(seed: int) -> list:
    rng = random.Random(seed)
    spec = zp.GraphSpec(8, tuple(_relabeled_complete_graph(rng, 8)))
    return [LatticeInput("braid7", zp.BRAID, 7, "graph", _fixed_spec(spec), spec)]


def oracle_inputs(seed: int) -> list:
    rng = random.Random(seed)
    typeb = zp.LinearVectors(_typeb_vectors(rng, 5))

    qvec_perm = _perm(rng, 3 ** 3 - 1)
    qvec_order_seed = rng.randrange(1 << 30)

    def qvec_spec(calls):
        ground, flats = calls.call("families.qvec_flats", zp.qvec_flats, 3, 3)
        relabeled = [frozenset(qvec_perm[e] for e in f) for f in flats]
        relabeled.sort(key=sorted)
        random.Random(qvec_order_seed).shuffle(relabeled)
        return zp.ExplicitFlats(ground, tuple(relabeled))

    k5 = _relabeled_complete_graph(rng, 5)
    bases = [tuple(sorted(t)) for t in _spanning_trees(5, k5)]
    rng.shuffle(bases)
    k5_spec = zp.ExplicitBases(len(k5), tuple(bases))
    return [
        LatticeInput("typeb5", zp.TYPE_B, 5, "vectors", _fixed_spec(typeb), typeb),
        LatticeInput("qvec3_3", zp.qvec_family(3), 3, "flats", qvec_spec,
                     (qvec_perm, qvec_order_seed)),
        LatticeInput("k5_trees", zp.BRAID, 4, "bases", _fixed_spec(k5_spec), k5_spec),
    ]


def _lattice_items(matroids) -> list:
    return [f"{m.name}.{item}" for m in matroids for item in LATTICE_ITEMS]


def _plain_canonical(answers) -> dict:
    return {k: _answer_json(v) for k, v in answers.items()}


# ---------------------------------------------------------------------------
# sweep


def sweep_inputs(seed: int) -> list:
    families = [zp.BRAID, zp.TYPE_B, zp.uniform_family(2)]
    random.Random(seed).shuffle(families)
    return families


def _sweep_rows_traced(calls, family) -> list:
    """The public calls conjecture_sweep and its cells make, one span each;
    the rows must equal conjecture_sweep's."""
    tables = calls.call("families.build_tables", zp.build_tables, family, SWEEP_D_MAX)
    zs = [calls.call("families.z_family", zp.z_family, tables, d)
          for d in range(SWEEP_D_MAX + 1)]
    rows = []
    for d in range(1, SWEEP_D_MAX + 1):
        zd, zprev = zs[d], zs[d - 1]
        rooted = calls.call("roots.is_negative_real_rooted", zp.is_negative_real_rooted, zd)
        verdict = "none"
        if rooted and calls.call("roots.is_negative_real_rooted",
                                 zp.is_negative_real_rooted, zprev):
            verdict = calls.call("roots.interlaces", zp.interlaces, zd, zprev).kind.value
        rows.append({"d": d, "negative_real_rooted": rooted, "interlace": verdict,
                     "max_coeff_digits": max(len(str(abs(c))) for c in zd.coeffs)})
    return rows


def _run_sweep(calls, families):
    """conjecture_sweep(threads=1) per family; traced, the same calls one
    by one."""
    answers = {}
    for family in families:
        try:
            if calls.tracing:
                rows = _sweep_rows_traced(calls, family)
            else:
                rows = calls.call("families.conjecture_sweep", zp.conjecture_sweep,
                                  family, SWEEP_D_MAX, threads=1)
        except Exception as exc:  # counted: every row of this family fails
            for d in range(1, SWEEP_D_MAX + 1):
                answers[f"{family}.d{d}"] = failed(exc)
            continue
        for row in rows:
            answers[f"{family}.d{row['d']}"] = [row["negative_real_rooted"], row["interlace"],
                                                row["max_coeff_digits"]]
    return answers, None, {}


def _sweep_kl(families) -> dict:
    """P_d at the sweep's top rank, by the family recursion: what the
    sweep's families cost through `zpoly compute kl`."""
    answers = {}
    for family in families:
        attempt(answers, f"{family}.P{SWEEP_D_MAX}", lambda: list(
            zp.kl_family(zp.build_tables(family, SWEEP_D_MAX), SWEEP_D_MAX).coeffs))
    return answers


def _sweep_items(families) -> list:
    out = []
    for family in families:
        out.append(f"{family}.P{SWEEP_D_MAX}")
        out.extend(f"{family}.d{d}" for d in range(1, SWEEP_D_MAX + 1))
    return out


def _check_sweep(families, answers, state) -> dict:
    failures = {}
    for family in families:
        key = str(family)
        tables = zp.build_tables(family, SWEEP_D_MAX)
        _compare(failures, answers, f"{key}.P{SWEEP_D_MAX}",
                 list(zp.p_from_z_inversion(tables, SWEEP_D_MAX).coeffs))
        for d in range(1, SWEEP_D_MAX + 1):
            item = f"{key}.d{d}"
            row = answers.get(item)
            if row is None:
                failures[item] = "missing"
            elif isinstance(row, Failed):
                failures[item] = row.reason
            elif not row[0] or row[1] not in ("strict", "weak"):
                failures[item] = f"negative_real_rooted={row[0]} interlace={row[1]}"
    return failures


def _sweep_counters(families, answers, state) -> dict:
    verdicts = Counter(v[1] for k, v in answers.items() if ".d" in k and isinstance(v, list))
    bits = [c.bit_length() for family in families
            for d in range(SWEEP_D_MAX + 1)
            for c in zp.z_family(zp.build_tables(family, SWEEP_D_MAX), d).coeffs]
    return {"roots.verdict.strict": verdicts["strict"], "roots.verdict.weak": verdicts["weak"],
            "roots.verdict.none": verdicts["none"], "roots.z_max_bits": max(bits, default=0)}


# ---------------------------------------------------------------------------
# equivariant


@dataclass
class EquivariantInput:
    name: str
    family: zp.NiceFamily
    d: int
    kind: str
    spec: object
    degree: int
    generators: list


def equivariant_inputs(seed: int) -> list:
    rng = random.Random(seed)
    edges = _relabeled_complete_graph(rng, 6)
    edge_id = {frozenset(e): i for i, e in enumerate(edges)}
    edge_gens = [tuple(edge_id[frozenset((g[u], g[v]))] for u, v in edges)
                 for g in _sym_generators(rng, 6)]
    return [
        EquivariantInput("K6/S6", zp.BRAID, 5, "graph", zp.GraphSpec(6, tuple(edges)),
                         len(edges), edge_gens),
        EquivariantInput("U(2,5)/S7", zp.uniform_family(2), 5, "uniform", zp.UniformSpec(2, 5),
                         7, _sym_generators(rng, 7)),
        EquivariantInput("U(1,6)/S7", zp.uniform_family(1), 6, "uniform", zp.UniformSpec(1, 6),
                         7, _sym_generators(rng, 7)),
    ]


def _character_indices(case) -> range:
    return range(1, (case.d + 1) // 2)      # every i < rk/2


def _run_equivariant(calls, cases):
    answers = {}
    lattices = []
    groups = {}
    for case in cases:
        try:
            lat = calls.call(f"matroid.enumerate_flats.{case.kind}", zp.enumerate_flats, case.spec)
            calls.call("matroid.FlatLattice.uppers", lat.uppers)
            group = calls.call("equivariant.PermGroup", zp.PermGroup.from_generators,
                               case.degree, case.generators)
        except Exception as exc:  # counted: the characters of this case fail
            for i in _character_indices(case):
                answers[f"{case.name}.c{i}"] = failed(exc)
            continue
        lattices.append((case.kind, lat))
        groups[case.name] = group
        for i in _character_indices(case):
            attempt(answers, f"{case.name}.c{i}",
                    lambda: calls.call("equivariant.equivariant_c_character",
                                       zp.equivariant_c_character, lat, group, i))
    return answers, None, {"lattices": lattices, "groups": groups}


def _equivariant_kl(cases) -> dict:
    """P of each case's lattice by the defining route: what `zpoly compute
    kl` costs for these matroids."""
    answers = {}
    for case in cases:
        attempt(answers, f"{case.name}.P",
                lambda: list(zp.kl_defining(zp.enumerate_flats(case.spec)).coeffs))
    return answers


def _equivariant_items(cases) -> list:
    return [f"{c.name}.{item}" for c in cases
            for item in ["P"] + [f"c{i}" for i in _character_indices(c)]]


def _check_equivariant(cases, answers, state) -> dict:
    failures = {}
    for case in cases:
        p_ref = list(zp.kl_family(zp.build_tables(case.family, case.d), case.d).coeffs)
        _compare(failures, answers, f"{case.name}.P", p_ref)
        for i in _character_indices(case):
            item = f"{case.name}.c{i}"
            table = answers.get(item)
            if not isinstance(table, zp.ClassFunctionTable):
                failures[item] = table.reason if isinstance(table, Failed) else "missing"
                continue
            want = p_ref[i] if i < len(p_ref) else 0
            if table.at_identity() != want:
                failures[item] = f"value at identity {table.at_identity()}, want {want}"
            elif not state["groups"][case.name].conjugacy_respects(table.values):
                failures[item] = "not constant on conjugacy classes"
    return failures


def _equivariant_canonical(answers) -> dict:
    """Characters as (cycle type, value) -> count: invariant under the
    seeded relabelings, unlike the element-keyed tables."""
    out = {}
    for key, value in answers.items():
        if isinstance(value, zp.ClassFunctionTable):
            summary = Counter((_cycle_type(g), v) for g, v in value.values.items())
            value = sorted([list(ct), v, count] for (ct, v), count in summary.items())
        out[key] = _answer_json(value)
    return out


def _equivariant_counters(cases, answers, state) -> dict:
    out = _count_lattices(state["lattices"])
    out["equivariant.group_order"] = sum(len(g) for g in state["groups"].values())
    out["equivariant.index_tuples"] = sum(len(zp.enumerate_index_tuples(i, c.d))
                                          for c in cases for i in _character_indices(c))
    return out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable        # seed -> inputs
    run: Callable                # (calls, inputs) -> (answers, kl windows or None, state)
    items: Callable              # inputs -> item keys, for the attempted count
    check: Callable              # (inputs, answers, state) -> {item: reason}
    canonical: Callable          # answers -> seed-independent JSON
    counters: Callable           # (inputs, answers, state) -> per-layer counters
    # inputs -> answers.  Where the job reaches P(t) in milliseconds, kl_s
    # is timed on this phase, repeated after the job, instead of in the job.
    kl_phase: Callable | None = None

    def checksum(self, answers) -> str:
        return _digest(self.canonical(answers))


WORKLOADS = {w.name: w for w in (
    Workload("lattice-braid7", braid7_inputs, _run_lattices, _lattice_items, _check_lattices,
             _plain_canonical, _lattice_counters),
    Workload("lattice-oracle", oracle_inputs, _run_lattices, _lattice_items, _check_lattices,
             _plain_canonical, _lattice_counters),
    Workload("sweep", sweep_inputs, _run_sweep, _sweep_items, _check_sweep,
             _plain_canonical, _sweep_counters, _sweep_kl),
    Workload("equivariant", equivariant_inputs, _run_equivariant, _equivariant_items,
             _check_equivariant, _equivariant_canonical, _equivariant_counters, _equivariant_kl),
)}


def inputs_digest(inputs) -> str:
    """Fingerprint of the generated inputs (differs between seeds)."""
    return _digest(repr(inputs))
