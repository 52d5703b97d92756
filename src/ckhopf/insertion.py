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

A graft reads, per basis key, the vertex multigraph (built part by part, so
no disjoint union is written out), the internal vertices by valency, the leg
count and each leg's neighbour, memoized once per key.  ``insertion_product``
skips a pair of keys that cannot graft before it reaches the pair memo, so
that memo keeps only pairs that graft, each as (monomial key, bijection
count) pairs in integers.  It sums those counts times the pair's coefficient
product in one dict and turns each nonzero sum into a ``Fraction`` once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple, Sequence

from . import memo
from .errors import NotInternalVertex, ValencyMismatch
from .graphs import HalfEdgeGraph, _class_of, _multigraph
from .poly import GraphPoly, Key, graph_from_key


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


def _block_sum(mult1, mult2) -> list[list[int]]:
    """The multiplicity matrix of two vertex multigraphs side by side."""
    V1, V2 = len(mult1), len(mult2)
    return [[*row, *[0] * V2] for row in mult1] + [[*[0] * V1, *row] for row in mult2]


class _Graftable(NamedTuple):
    """What a graft reads of the graph of a basis key, as host or as guest."""

    ext: tuple[int, ...]  # per vertex of the vertex multigraph: 1 when external
    loops: tuple[int, ...]
    mult: tuple[tuple[int, ...], ...]
    n_empty: int
    sites: dict[int, tuple[int, ...]]  # valency -> the internal vertices of that valency
    legs: int | None  # the external vertices; None when an edge joins two of them
    leg_nbrs: tuple[int, ...]  # per external vertex, its one neighbour


@memo.cache(memo.SUITE)
def _graft_data(key: Key) -> _Graftable:
    """The vertex multigraph of a basis key, its parts side by side, so that
    no disjoint union is built or canonicalized, and what a graft reads of it."""
    ext: tuple[int, ...] = ()
    loops: tuple[int, ...] = ()
    mult: list[list[int]] = []
    n_empty = 0
    for part in key:
        g = graph_from_key(part)
        _, ext_p, loops_p, mult_p = _multigraph(g)
        ext, loops, mult = ext + tuple(ext_p), loops + tuple(loops_p), _block_sum(mult, mult_p)
        n_empty += g.n_empty
    sites: dict[int, tuple[int, ...]] = {}
    for u, row in enumerate(mult):
        if not ext[u]:
            valency = sum(row) + 2 * loops[u]
            sites[valency] = sites.get(valency, ()) + (u,)
    leg_nbrs = tuple(mult[x].index(1) for x in range(len(ext)) if ext[x])
    legs = None if any(ext[y] for y in leg_nbrs) else len(leg_nbrs)
    # memoized, so every field is immutable but the dict, which nothing writes
    return _Graftable(ext, loops, tuple(map(tuple, mult)), n_empty, sites, legs, leg_nbrs)


def _fits(host: _Graftable, legs: int | None) -> bool:
    """Whether a guest with ``legs`` legs grafts into the host anywhere: at an
    internal vertex of that valency, or at an empty vertex when it has none."""
    return legs is not None and (legs in host.sites if legs else host.n_empty > 0)


@memo.cache(memo.SUITE)
def _insertion_basis(k1: Key, k2: Key) -> tuple[tuple[Key, int], ...]:
    """g1 o g2 on two basis keys, grafted on vertex multigraphs: the monomial
    key of each graft with the number of bijections that give it."""
    h, g = _graft_data(k1), _graft_data(k2)
    e = g.legs
    if not _fits(h, e):
        return ()
    V1, V2 = len(h.ext), len(g.ext)
    n_empty = h.n_empty + g.n_empty
    if not e:
        # each empty vertex of g1 receives g2: the union, one empty vertex used up
        mult = _block_sum(h.mult, g.mult)
        graft = _class_of(V1 + V2, h.ext + g.ext, h.loops + g.loops, mult, n_empty - 1)
        return ((graft[2], h.n_empty),)
    inner = [w for w in range(V2) if not g.ext[w]]
    # a graft keeps g1's vertices but the site, then adds g2's internal vertices
    V = V1 - 1 + len(inner)
    at = {w: V1 - 1 + i for i, w in enumerate(inner)}
    # each leg attaches to the one neighbour of its external vertex; each order
    # of those vertices comes with the number of bijections that give it
    arrangements = Counter(permutations([at[y] for y in g.leg_nbrs]))
    out: Counter = Counter()
    for s in h.sites[e]:
        keep = [u for u in range(V1) if u != s]
        ext = [h.ext[u] for u in keep] + [0] * len(inner)
        loops = [h.loops[u] for u in keep] + [g.loops[w] for w in inner]
        mult = _block_sum(
            [[h.mult[u][x] for x in keep] for u in keep],
            [[g.mult[w][y] for y in inner] for w in inner],
        )
        # the far end of each site half-edge on a non-loop edge; the loops'
        # half-edges follow them in pairs
        ends = [i for i, u in enumerate(keep) for _ in range(h.mult[s][u])]
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
            out[_class_of(V, ext, g_loops, g_mult, n_empty)[2]] += m
    return tuple(out.items())


def insertion_product(a: GraphPoly, b: GraphPoly) -> GraphPoly:
    """Bilinear extension of the insertion sum.  Valency mismatches give zero,
    and so does a g2 with an edge between two external vertices.

    A pair of terms that cannot graft is skipped before the pair memo, so the
    memo keeps only pairs that graft.  The graft counts are summed in one
    dict, each times the pair's coefficient product, an int when integral."""
    guests = [(k2, c2, _graft_data(k2).legs) for k2, c2 in b._terms.items()]
    out: dict = {}
    get = out.get
    for k1, c1 in a._terms.items():
        host = _graft_data(k1)
        for k2, c2, legs in guests:
            if not _fits(host, legs):
                continue
            c = c1 * c2
            if c.denominator == 1:
                c = c.numerator
            for key, m in _insertion_basis(k1, k2):
                y = get(key)
                out[key] = c * m if y is None else y + c * m
    return GraphPoly._from_normal({key: Fraction(x) for key, x in out.items() if x})


def associator(a: GraphPoly, b: GraphPoly, c: GraphPoly) -> GraphPoly:
    return insertion_product(insertion_product(a, b), c) - insertion_product(
        a, insertion_product(b, c)
    )


def prelie_check(a: GraphPoly, b: GraphPoly, c: GraphPoly) -> bool:
    """Right symmetry of the associator: assoc(a, b, c) == assoc(a, c, b)."""
    return associator(a, b, c) == associator(a, c, b)
