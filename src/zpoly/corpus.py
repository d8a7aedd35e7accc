"""Standard small-matroid corpora used by the verification suites and tests:
uniform matroids, connected graphs, and lattice realizations of the four
families at desk scale.
"""

from __future__ import annotations

from itertools import combinations

from .equivariant import _find
from .families import BRAID, TYPE_B, lattice_spec, qvec_family
from .matroid import GraphSpec, UniformSpec


def uniform_specs(max_ground: int = 9):
    """All U_{m,d} with m + d <= max_ground, labeled."""
    out = []
    for total in range(max_ground + 1):
        for d in range(total + 1):
            m = total - d
            out.append((f"U({m},{d})", UniformSpec(m, d)))
    return out


def _connected(nv: int, edges) -> bool:
    parent = list(range(nv))
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    return len({_find(parent, v) for v in range(nv)}) <= 1


def connected_graph_specs(max_vertices: int = 5):
    """All connected labeled simple graphs on 1..max_vertices vertices."""
    out = []
    for nv in range(1, max_vertices + 1):
        pairs = list(combinations(range(nv), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            if _connected(nv, edges):
                out.append((f"graph(n={nv},m={len(edges)})#{mask}", GraphSpec(nv, edges)))
    return out


def family_specs(braid_dmax: int = 6, typeb_dmax: int = 4, qvec2_dmax: int = 3):
    """Lattice realizations of the nice families at enumerable rank."""
    out = []
    for d in range(braid_dmax + 1):
        out.append((f"braid:d={d}", lattice_spec(BRAID, d)))
    for d in range(typeb_dmax + 1):
        out.append((f"typeb:d={d}", lattice_spec(TYPE_B, d)))
    for d in range(qvec2_dmax + 1):
        out.append((f"qvec:2:d={d}", lattice_spec(qvec_family(2), d)))
    return out


def acceptance_corpus(max_uniform_ground: int = 9, max_graph_vertices: int = 5,
                      braid_dmax: int = 6, typeb_dmax: int = 4,
                      qvec2_dmax: int = 3):
    """The full verification corpus as (label, MatroidSpec) pairs."""
    return (uniform_specs(max_uniform_ground)
            + connected_graph_specs(max_graph_vertices)
            + family_specs(braid_dmax, typeb_dmax, qvec2_dmax))


def small_corpus():
    """A quick corpus for interactive verification runs."""
    return acceptance_corpus(max_uniform_ground=6, max_graph_vertices=4,
                             braid_dmax=4, typeb_dmax=3, qvec2_dmax=2)

