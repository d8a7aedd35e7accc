"""Route independence: a fault planted in one internal changes or breaks
exactly the KL routes that read it, and leaves the others' answers alone,
so the four routes disagree.  Each fault is a unittest.mock patch of one
internal; no file is edited."""

from contextlib import ExitStack
from unittest import mock

import pytest

from zpoly import (BRAID, IntPolynomial, KlMethod, UniformSpec, enumerate_flats, kl_by_method,
                   lattice_spec)
from zpoly import klz, matroid

SPECS = {"K6": lattice_spec(BRAID, 5), "K7": lattice_spec(BRAID, 6), "U(2,5)": UniformSpec(2, 5)}
SOLVE, MOBIUS = klz._pz_solve, matroid.mobius_from_bottom
COUNT, ORBIT_ROWS = matroid._multichain_counts, matroid._orbit_rows


def pz_adds_t(keys, corank, rows, P, Z):
    # the palindromicity solve adds t to P_F at every corank >= 3; the
    # flats solved later read the faulty P_F
    for f in keys:
        SOLVE([f], corank, rows, P, Z)
        if corank[f] >= 3:
            P[f] = (P[f][0], P[f][1] + 1, *P[f][2:])


def mobius_adds_one_on_an_atom_orbit(lat):
    atom = lat.orbit_rep[lat.flats_of_rank(1)[0]]
    return tuple(m + (lat.orbit_rep[f] == atom) for f, m in enumerate(MOBIUS(lat)))


class BottomRowCut:
    # the bottom's row without its first entry, every other row as it is
    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, a):
        return self.rows[a][1:] if a == 0 else self.rows[a]


def multichains_cut(rk, ranks, rows, memo, profile):
    if not isinstance(rows, BottomRowCut):     # it recurses through this patch
        rows = BottomRowCut(rows)
    return COUNT(rk, ranks, rows, memo, profile)


def slot_shifted(lat):
    # flat f reads the answer of flat f + 1's orbit; the rows are unchanged
    ranks, rows, slot = ORBIT_ROWS(lat)
    return ranks, rows, [*slot[1:], slot[0]]


def count_raised(lat):
    # the atom orbit's row counts one flat more in its first orbit above;
    # every other row, the bottom's included, is as it is
    ranks, rows, slot = ORBIT_ROWS(lat)
    rows = [*rows]
    (g, k), *rest = rows[1]
    rows[1] = [(g, k + 1), *rest]
    return ranks, rows, slot


# fault -> (patches, the routes whose answer changes or that raise)
FAULTS = {
    "none": ((), set()),
    "pz-solve": ((("zpoly.klz._pz_solve", pz_adds_t),), {"mobius", "recursion"}),
    "mobius": ((("zpoly.klz.mobius_from_bottom", mobius_adds_one_on_an_atom_orbit),),
               {"defining", "mobius"}),
    "multichains": ((("zpoly.matroid._multichain_counts", multichains_cut),), {"closed"}),
    "slot": ((("zpoly.klz._orbit_rows", slot_shifted), ("zpoly.matroid._orbit_rows", slot_shifted)),
             {"defining", "mobius", "recursion"}),
    "counts": ((("zpoly.klz._orbit_rows", count_raised), ("zpoly.matroid._orbit_rows", count_raised)),
               {"defining", "mobius", "recursion", "closed"}),
}


def answers(spec, patches=()) -> dict:
    """Each route's P(t) on a fresh lattice, or the exception it raised."""
    out = {}
    for method in KlMethod:
        lat = enumerate_flats(spec)
        with ExitStack() as stack:
            for target, fault in patches:
                stack.enter_context(mock.patch(target, fault))
            try:
                out[method.value] = kl_by_method(lat, method)
            except (RuntimeError, IndexError) as exc:
                out[method.value] = type(exc)
    return out


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_one_internal_reaches_only_the_routes_that_read_it(fault):
    patches, hit = FAULTS[fault]
    for name, spec in SPECS.items():
        want = answers(spec)
        assert len(set(want.values())) == 1, name
        got = answers(spec, patches)
        assert {m for m in got if got[m] != want[m]} == hit, (fault, name, got)
        assert (len(set(got.values())) == 1) == (not hit), (fault, name, got)
        if fault == "pz-solve" and name == "K6":
            assert got["recursion"] == IntPolynomial([1, 17, 65])
            assert want["recursion"] == IntPolynomial([1, 16, 15])
