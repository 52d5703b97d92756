"""Insertion pre-Lie product on connected graphs with internal edges.

``insert_at(g1, v, sigma, g2)`` grafts g2 into g1 at the internal vertex v:
the external edges of g2 are discarded and each half-edge of v replaces the
attachment half-edge matched to it by sigma.  The product g1 o g2 sums over
all eligible vertices of g1 and all bijections.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from .errors import NotInternalVertex, ValencyMismatch
from .graphs import HalfEdgeGraph, monomial_key, written_key
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
        return _graft(g1, (), {}, g2)
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
    return _graft(g1, site, sigma, g2)


def _graft(
    g1: HalfEdgeGraph,
    site: tuple[int, ...],
    sigma: dict[int, tuple[int, int]],
    g2: HalfEdgeGraph,
) -> HalfEdgeGraph:
    """``insert_at`` on checked input: ``site`` is a stored internal vertex of
    g1, or () for one of its empty vertices, and sigma a bijection from it onto
    the external edges of g2."""
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


@lru_cache(maxsize=None)
def _insertion_basis(k1: Key, k2: Key) -> GraphPoly:
    g1, g2 = graph_from_key(written_key(k1)), graph_from_key(written_key(k2))
    ext_edges = g2.external_edges()
    if len(g2.external) != len(ext_edges):
        return GraphPoly()
    # each v is a stored vertex and each zip a bijection, so graft unchecked
    out = Counter(
        monomial_key(_graft(g1, v, dict(zip(v, perm)), g2))
        for v in g1.internal_vertices()
        if len(v) == len(ext_edges)
        for perm in permutations(ext_edges)
    )
    if not ext_edges and g1.n_empty:
        out[monomial_key(_graft(g1, (), {}, g2))] += g1.n_empty
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
