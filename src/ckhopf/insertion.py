"""Insertion pre-Lie product on connected graphs with internal edges.

``insert_at(g1, v, sigma, g2)`` grafts g2 into g1 at the internal vertex v:
the external edges of g2 are discarded and each half-edge of v replaces the
attachment half-edge matched to it by sigma.  The product g1 o g2 sums over
all eligible vertices of g1 and all bijections.

``insert_at`` alone builds labelled grafts.  The product sum grafts on vertex
multigraphs: it reattaches each edge at a site to the vertex of g2 that
carries the matched leg, counts the bijections that give the same multigraph
together, and canonicalizes each distinct multigraph once through
``graphs._class_of``, so no graft enters the ``_canonical`` memo.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from .errors import NotInternalVertex, ValencyMismatch
from .graphs import HalfEdgeGraph, _class_of, _multigraph, written_key
from .poly import GraphPoly, Key, graph_from_key, linear_combination


def insert_at(
    g1: HalfEdgeGraph,
    v: Sequence[int],
    sigma: dict[int, tuple[int, int]],
    g2: HalfEdgeGraph,
) -> HalfEdgeGraph:
    """Insert g2 into g1 at vertex v via the bijection sigma: v -> E_ext(g2).

    Edges of the result are E(g1) plus the internal edges of g2; the vertex v
    is disbanded, each of its half-edges joining the g2-vertex its matched
    external edge was attached to.  External vertices are those of g1.
    """
    if not v:
        # 0-valent site: only an empty vertex of g1, receiving a leg-less graph
        if g1.n_empty == 0:
            raise NotInternalVertex("g1 has no empty vertex")
        if g2.external_edges():
            raise ValencyMismatch("0-valent site needs a graph with no external edges")
        site: tuple[int, ...] = ()
    else:
        # the stored vertex with the half-edges of v, given in any order
        site = next((w for w in g1.internal_vertices() if len(w) == len(v) and set(w) == set(v)), None)
        if site is None:
            raise NotInternalVertex(f"{v!r} is not an internal vertex of g1")
        ext_edges = g2.external_edges()
        if len(g2.external) != len(ext_edges):
            raise ValencyMismatch("an edge of g2 between two external vertices attaches to no vertex")
        if len(v) != len(ext_edges):
            raise ValencyMismatch(
                f"vertex valency {len(v)} != {len(ext_edges)} external edges"
            )
        edge_sets = set(map(frozenset, ext_edges))
        if set(sigma) != set(v) or set(map(frozenset, sigma.values())) != edge_sets:
            raise ValencyMismatch("sigma is not a bijection from v onto E_ext(g2)")
    shift = g1.n_half_edges
    ext2 = g2.external_set()
    # g2 attachment half-edge -> half-edge of v: the attachment half-edge of an
    # external edge is its end at an internal vertex
    site_of = {(b if a in ext2 else a): h for h, (a, b) in sigma.items()}
    edges = g1.edges + tuple((a + shift, b + shift) for a, b in g2.internal_edges())
    vertices = [w for w in g1.vertices if w != site]
    vertices += [[site_of.get(h, h + shift) for h in w] for w in g2.internal_vertices()]
    # an empty site is one of the empty vertices of g1, used up by the graft
    return HalfEdgeGraph.of(edges, vertices, g1.external, g1.n_empty + g2.n_empty - (not site))


# the one value of every pair that has no graft, so that the memo keeps one
# zero and not a GraphPoly per such pair; GraphPoly is immutable
_NO_GRAFT = GraphPoly()


@lru_cache(maxsize=None)
def _insertion_basis(k1: Key, k2: Key) -> GraphPoly:
    """g1 o g2 on two basis keys, grafted on vertex multigraphs."""
    g1, g2 = graph_from_key(written_key(k1)), graph_from_key(written_key(k2))
    e = len(g2.external_edges())
    if len(g2.external) != e:
        return _NO_GRAFT  # an edge between two external vertices attaches to no vertex
    ext_set = g1.external_set()
    # the internal vertices of valency e, numbered as in g1's multigraph
    sites = [s for s, v in enumerate(g1.vertices) if len(v) == e and v[0] not in ext_set]
    if not sites and not (e == 0 and g1.n_empty):
        return _NO_GRAFT
    V1, ext1, loops1, mult1 = _multigraph(g1)
    V2, ext2, loops2, mult2 = _multigraph(g2)
    n_empty = g1.n_empty + g2.n_empty
    if not e:
        # each empty vertex of g1 receives g2: the union, one empty vertex used up
        mult = [row + [0] * V2 for row in mult1] + [[0] * V1 + row for row in mult2]
        graft = _class_of(V1 + V2, ext1 + ext2, loops1 + loops2, mult, n_empty - 1)
        return GraphPoly({graft[3]: Fraction(g1.n_empty)})
    inner = [w for w in range(V2) if not ext2[w]]
    # a graft keeps g1's vertices but the site, then adds g2's internal vertices
    V = V1 - 1 + len(inner)
    at = {w: V1 - 1 + i for i, w in enumerate(inner)}
    # each leg attaches to the one neighbour of its external vertex; each order
    # of those vertices comes with the number of bijections that give it
    arrangements = Counter(permutations([at[mult2[x].index(1)] for x in range(V2) if ext2[x]]))
    out: Counter = Counter()
    for s in sites:
        keep = [u for u in range(V1) if u != s]
        ext = [ext1[u] for u in keep] + [0] * len(inner)
        loops = [loops1[u] for u in keep] + [loops2[w] for w in inner]
        mult = [[mult1[u][x] for x in keep] + [0] * len(inner) for u in keep]
        mult += [[0] * len(keep) + [mult2[w][y] for y in inner] for w in inner]
        # the far end of each site half-edge on a non-loop edge; the loops'
        # half-edges follow them in pairs
        ends = [i for i, u in enumerate(keep) for _ in range(mult1[s][u])]
        n = len(ends)
        grafts: Counter = Counter()
        for t, m in arrangements.items():
            added = list(zip(ends, t))
            added += [(a, b) if a <= b else (b, a) for a, b in zip(t[n::2], t[n + 1 :: 2])]
            grafts[tuple(sorted(added))] += m
        for added, m in grafts.items():
            g_loops, g_mult = loops[:], [row[:] for row in mult]
            for a, b in added:
                if a == b:
                    g_loops[a] += 1
                else:
                    g_mult[a][b] += 1
                    g_mult[b][a] += 1
            out[_class_of(V, ext, g_loops, g_mult, n_empty)[3]] += m
    return GraphPoly({key: Fraction(m) for key, m in out.items()})


def insertion_product(a: GraphPoly, b: GraphPoly) -> GraphPoly:
    """Bilinear extension of the insertion sum.  Valency mismatches give zero,
    and so does a g2 with an edge between two external vertices."""
    return linear_combination(
        (
            (_insertion_basis(k1, k2), c1 * c2)
            for k1, c1 in a._terms.items()
            for k2, c2 in b._terms.items()
        ),
        GraphPoly(),
    )


def associator(a: GraphPoly, b: GraphPoly, c: GraphPoly) -> GraphPoly:
    return insertion_product(insertion_product(a, b), c) - insertion_product(
        a, insertion_product(b, c)
    )


def prelie_check(a: GraphPoly, b: GraphPoly, c: GraphPoly) -> bool:
    """Right symmetry of the associator: assoc(a, b, c) == assoc(a, c, b)."""
    return associator(a, b, c) == associator(a, c, b)
