"""The commutative Hopf algebra of graphs and its dual star product.

The coproduct sends a connected graph to 1 (x) G + G (x) 1 plus the sum of
extract(gamma) (x) G/gamma over subgraphs gamma, and extends to products of
connected graphs as an algebra map.  By default gamma ranges over the nonempty
proper subsets of the internal edges; ``full_subgraph_term`` adds the full set,
a variant kept only for diagnostics.

The star product is the dual of the coproduct under the pairing weighted by
automorphism counts: |Aut G| <a * b, G> = sum over coproduct terms of
|Aut| -weighted matches of a against the subgraph leg and b against the
quotient leg.  It is computed inside finite graded windows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import WindowTooSmall
from .graphs import (
    automorphism_count,
    canonical_key,
    connected_components,
    contract_subgraph,
    enumerate_by_grade,
    extract_subgraph,
)
from .poly import (
    EMPTY_KEY,
    GraphPoly,
    GraphTensorPoly,
    Scalar,
    SparseVector,
    _frac,
    graph_from_key,
    linear_combination,
    product,
)
from . import insertion


def unit(r: Scalar = 1) -> GraphPoly:
    return GraphPoly({EMPTY_KEY: _frac(r)})


def counit(p: GraphPoly) -> Fraction:
    """Coefficient of the empty graph; kills every nonempty graph."""
    return p.coeff_key(EMPTY_KEY)


@lru_cache(maxsize=None)
def _coproduct_connected(key: bytes, full: bool) -> GraphTensorPoly:
    g = graph_from_key(key)
    terms: dict[tuple[bytes, bytes], Fraction] = {}

    def put(k1: bytes, k2: bytes):
        terms[(k1, k2)] = terms.get((k1, k2), Fraction(0)) + 1

    put(EMPTY_KEY, key)
    put(key, EMPTY_KEY)
    internal = g.internal_edges()
    top = len(internal) if full else len(internal) - 1
    for r in range(1, top + 1):
        for gamma in itertools.combinations(internal, r):
            put(
                canonical_key(extract_subgraph(g, gamma)),
                canonical_key(contract_subgraph(g, gamma)),
            )
    return GraphTensorPoly(terms)


@lru_cache(maxsize=None)
def _coproduct_graph(key: bytes, full: bool) -> GraphTensorPoly:
    comps = connected_components(graph_from_key(key))
    out = GraphTensorPoly.unit()
    for c in comps:
        out = out.mul(_coproduct_connected(canonical_key(c), full))
    return out


def coproduct(p: GraphPoly, full_subgraph_term: bool = False) -> GraphTensorPoly:
    return linear_combination(
        ((_coproduct_graph(key, full_subgraph_term), c) for key, c in p.terms()),
        GraphTensorPoly(),
    )


def coproduct_on_left(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(coproduct (x) id) applied to an element of H (x) H."""
    out: dict[tuple[bytes, bytes, bytes], Fraction] = {}
    for (k1, k2), c in t.terms():
        for (a, b), c2 in _coproduct_graph(k1, full_subgraph_term).terms():
            key = (a, b, k2)
            out[key] = out.get(key, Fraction(0)) + c * c2
    return SparseVector(out)


def coproduct_on_right(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(id (x) coproduct) applied to an element of H (x) H."""
    out: dict[tuple[bytes, bytes, bytes], Fraction] = {}
    for (k1, k2), c in t.terms():
        for (a, b), c2 in _coproduct_graph(k2, full_subgraph_term).terms():
            key = (k1, a, b)
            out[key] = out.get(key, Fraction(0)) + c * c2
    return SparseVector(out)


@lru_cache(maxsize=None)
def _antipode_connected(key: bytes) -> GraphPoly:
    """S(G) = -G - sum S(extract(gamma)) * (G/gamma), recursing on internal edges."""
    g = graph_from_key(key)
    summands = [(GraphPoly({key: Fraction(1)}), -1)]
    internal = g.internal_edges()
    for r in range(1, len(internal)):
        for gamma in itertools.combinations(internal, r):
            left = antipode(GraphPoly.from_graph(extract_subgraph(g, gamma)))
            right = GraphPoly.from_graph(contract_subgraph(g, gamma))
            summands.append((product(left, right), -1))
    return linear_combination(summands, GraphPoly())


def _antipode_graph(key: bytes) -> GraphPoly:
    """S of one basis graph: the product of S over its connected components."""
    factor = unit(1)
    for comp in connected_components(graph_from_key(key)):
        factor = product(factor, _antipode_connected(canonical_key(comp)))
    return factor


def antipode(p: GraphPoly) -> GraphPoly:
    """Antipode for the default subgraph range, extended multiplicatively."""
    return linear_combination(((_antipode_graph(key), c) for key, c in p.terms()), GraphPoly())


def pairing(p: GraphPoly, q: GraphPoly) -> Fraction:
    """Bilinear extension of <G1, G2> = 1 if isomorphic else 0."""
    small, large = (p, q) if len(p) <= len(q) else (q, p)
    total = Fraction(0)
    for key, c in small.terms():
        total += c * large.coeff_key(key)
    return total


# ---------------------------------------------------------------------------
# Star product


@lru_cache(maxsize=None)
def _aut_key(key: bytes) -> int:
    return automorphism_count(graph_from_key(key))


@lru_cache(maxsize=None)
def _is_connected_key(key: bytes) -> bool:
    return len(connected_components(graph_from_key(key))) == 1


@lru_cache(maxsize=None)
def _subgraph_matches(key: bytes, size: int, legs: int) -> tuple:
    """Multiplicities of (extract key, quotient key) pairs over the proper
    subgraphs of a connected graph with ``size`` edges and ``legs`` dangling
    half-edges.  Cheap leg counting prunes before any canonicalization."""
    g = graph_from_key(key)
    internal = g.internal_edges()
    if size <= 0 or size >= len(internal):
        return ()
    vert_of = g.vertex_of()
    counts: dict[tuple[bytes, bytes], int] = {}
    for gamma in itertools.combinations(internal, size):
        halves = {h for e in gamma for h in e}
        touched = {vert_of[h] for h in halves}
        n_dangling = sum(len(g.vertices[vi]) for vi in touched) - 2 * size
        if n_dangling != legs:
            continue
        pair = (
            canonical_key(extract_subgraph(g, gamma)),
            canonical_key(contract_subgraph(g, gamma)),
        )
        counts[pair] = counts.get(pair, 0) + 1
    return tuple(sorted((k1, k2, m) for (k1, k2), m in counts.items()))


@lru_cache(maxsize=None)
def _star_basis(ka: bytes, kb: bytes) -> GraphPoly:
    """Star product of two basis graphs over the full graded window.

    Candidates are drawn by grade: the internal edge count of any candidate is
    m_a + m_b (the coproduct has internal-edge degree zero), the external count
    lies between k_b and k_a + k_b, and the edge count between n_b + m_a and
    n_a + n_b, intersected with the total-degree window [ceil((n_a+n_b)/3), ..].
    """
    if ka == EMPTY_KEY:
        return GraphPoly({kb: Fraction(1)})
    if kb == EMPTY_KEY:
        return GraphPoly({ka: Fraction(1)})
    ga, gb = graph_from_key(ka), graph_from_key(kb)
    gra, grb = ga.grade(), gb.grade()
    total = gra.n + grb.n
    aut_ab = _aut_key(ka) * _aut_key(kb)
    low = max(grb.n + gra.m, -(-total // 3))
    out: dict[bytes, Fraction] = {}
    for n in range(low, total + 1):
        for k in range(grb.k, gra.k + grb.k + 1):
            for cand in enumerate_by_grade(n, gra.m + grb.m, k):
                ck = canonical_key(cand)
                if _is_connected_key(ck):
                    mult = Fraction(0)
                    for k1, k2, m in _subgraph_matches(ck, gra.m, gra.k):
                        if k1 == ka and k2 == kb:
                            mult += m
                else:
                    mult = _coproduct_graph(ck, False).coeff_pair(ka, kb)
                if mult:
                    coeff = mult * aut_ab / automorphism_count(cand)
                    out[ck] = out.get(ck, Fraction(0)) + coeff
    return GraphPoly(out)


def star_product(a: GraphPoly, b: GraphPoly, edge_bound: int | None = None) -> GraphPoly:
    """Dual product on the window of graphs with at most ``edge_bound`` edges.

    ``edge_bound`` defaults to the largest total degree of a support pair; a
    smaller bound that truncates required degrees raises WindowTooSmall.
    """
    needed = 0
    pairs = []
    for ka, ca in a.terms():
        for kb, cb in b.terms():
            total = len(graph_from_key(ka).edges) + len(graph_from_key(kb).edges)
            needed = max(needed, total)
            pairs.append((ka, ca, kb, cb))
    if edge_bound is None:
        edge_bound = needed
    if edge_bound < needed:
        raise WindowTooSmall(
            f"edge bound {edge_bound} is below the required total degree {needed}"
        )
    return linear_combination(
        ((_star_basis(ka, kb), ca * cb) for ka, ca, kb, cb in pairs), GraphPoly()
    )


def lie_bracket(a: GraphPoly, b: GraphPoly) -> GraphPoly:
    """[a, b] = a o b - b o a on connected graphs with internal edges.

    The insertion route is used directly; the harness checks its agreement
    with the star-product commutator.
    """
    return insertion.insertion_product(a, b) - insertion.insertion_product(b, a)
