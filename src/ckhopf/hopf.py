"""The commutative Hopf algebra of graphs and its dual star product.

The coproduct sends a connected graph to 1 (x) G + G (x) 1 plus the sum of
extract(gamma) (x) G/gamma over subgraphs gamma, and a monomial (see ``poly``)
to the product over its connected parts; so does the antipode.  By default
gamma ranges over the nonempty proper subsets of the internal edges;
``full_subgraph_term`` adds the full set, a variant kept only for diagnostics.

The star product is the dual of the coproduct under the pairing weighted by
automorphism counts: |Aut G| <a * b, G> = sum over coproduct terms of
|Aut| -weighted matches of a against the subgraph leg and b against the
quotient leg.  It is computed inside finite graded windows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial

from .errors import InvalidInput, WindowTooSmall
from .graphs import (
    EMPTY_VERTEX,
    automorphism_count,
    canonical_key,
    contract_subgraph,
    extract_subgraph,
    monomial_key,
    monomials_by_grade,
)
from .poly import (
    EMPTY_KEY,
    GraphPoly,
    GraphTensorPoly,
    Key,
    Scalar,
    SparseVector,
    _frac,
    grade_of,
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
def _coproduct_connected(part: bytes, full: bool) -> GraphTensorPoly:
    """Coproduct of the connected graph with canonical key ``part``."""
    g = graph_from_key(part)
    internal = g.internal_edges()
    top = len(internal) if full else len(internal) - 1
    terms = Counter([(EMPTY_KEY, (part,)), ((part,), EMPTY_KEY)])
    terms.update(
        (monomial_key(extract_subgraph(g, gamma)), monomial_key(contract_subgraph(g, gamma)))
        for r in range(1, top + 1)
        for gamma in itertools.combinations(internal, r)
    )
    return GraphTensorPoly({pair: Fraction(m) for pair, m in terms.items()})


@lru_cache(maxsize=None)
def _coproduct_graph(key: Key, full: bool) -> GraphTensorPoly:
    """Coproduct of one monomial: the product over its parts."""
    parts = [_coproduct_connected(part, full) for part in key]
    return reduce(GraphTensorPoly.mul, parts, GraphTensorPoly.unit())


def coproduct(p: GraphPoly, full_subgraph_term: bool = False) -> GraphTensorPoly:
    return linear_combination(
        ((_coproduct_graph(key, full_subgraph_term), c) for key, c in p.terms()),
        GraphTensorPoly(),
    )


def coproduct_on_left(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(coproduct (x) id) applied to an element of H (x) H."""
    out: dict[tuple[Key, Key, Key], Fraction] = {}
    for (k1, k2), c in t.terms():
        for (a, b), c2 in _coproduct_graph(k1, full_subgraph_term).terms():
            key = (a, b, k2)
            out[key] = out.get(key, Fraction(0)) + c * c2
    return SparseVector(out)


def coproduct_on_right(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(id (x) coproduct) applied to an element of H (x) H."""
    out: dict[tuple[Key, Key, Key], Fraction] = {}
    for (k1, k2), c in t.terms():
        for (a, b), c2 in _coproduct_graph(k2, full_subgraph_term).terms():
            key = (k1, a, b)
            out[key] = out.get(key, Fraction(0)) + c * c2
    return SparseVector(out)


@lru_cache(maxsize=None)
def _antipode_connected(part: bytes) -> GraphPoly:
    """S(G) = -G - sum S(gamma) * (G/gamma) over the terms gamma (x) G/gamma of
    the coproduct of G other than 1 (x) G and G (x) 1."""
    summands = [(GraphPoly({(part,): Fraction(1)}), -1)]
    for (a, b), c in _coproduct_connected(part, False)._terms.items():
        if a and b:
            summands.append((product(_antipode_graph(a), GraphPoly({b: Fraction(1)})), -c))
    return linear_combination(summands, GraphPoly())


def _antipode_graph(key: Key) -> GraphPoly:
    """S of one monomial: the product of S over its parts."""
    return reduce(product, map(_antipode_connected, key), unit(1))


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
def _aut_key(key: Key) -> int:
    """|Aut C|^m * m! over the parts C of multiplicity m of a monomial; an
    empty vertex has no half-edges to permute, so it gets no m!."""
    count = 1
    for part, m in Counter(key).items():
        g = graph_from_key(part)
        count *= automorphism_count(g) ** m * (factorial(m) if g.edges else 1)
    return count


@lru_cache(maxsize=None)
def _subgraph_matches(part: bytes, size: int, legs: int) -> Counter:
    """Multiplicities of (extract key, quotient key) pairs over the proper
    subgraphs of a connected graph with ``size`` edges and ``legs`` dangling
    half-edges.  Cheap leg counting prunes before any canonicalization."""
    g = graph_from_key(part)
    internal = g.internal_edges()
    counts: Counter = Counter()
    if not 0 < size < len(internal):
        return counts
    vert_of = g.vertex_of()
    for gamma in itertools.combinations(internal, size):
        halves = {h for e in gamma for h in e}
        touched = {vert_of[h] for h in halves}
        if sum(len(g.vertices[vi]) for vi in touched) - 2 * size == legs:
            pair = (
                monomial_key(extract_subgraph(g, gamma)),
                monomial_key(contract_subgraph(g, gamma)),
            )
            counts[pair] += 1
    return counts


@lru_cache(maxsize=None)
def _star_basis(ka: Key, kb: Key) -> GraphPoly:
    """Star product of two basis monomials over the full graded window.

    Candidates are drawn by grade: the internal edge count of any candidate is
    m_a + m_b (the coproduct has internal-edge degree zero), the external count
    lies between k_b and k_a + k_b, and the edge count between n_b + m_a and
    n_a + n_b, intersected with the total-degree window [ceil((n_a+n_b)/3), ..].
    """
    if ka == EMPTY_KEY:
        return GraphPoly({kb: Fraction(1)})
    if kb == EMPTY_KEY:
        return GraphPoly({ka: Fraction(1)})
    gra, grb = grade_of(ka), grade_of(kb)
    total = gra.n + grb.n
    aut_ab = _aut_key(ka) * _aut_key(kb)
    low = max(grb.n + gra.m, -(-total // 3))
    parts_a = set(ka)
    out: dict[Key, Fraction] = {}
    for n in range(low, total + 1):
        for k in range(grb.k, gra.k + grb.k + 1):
            for cand in monomials_by_grade(n, gra.m + grb.m, k):
                if len(cand) == 1:
                    mult = _subgraph_matches(cand[0], gra.m, gra.k)[ka, kb]
                # Each part of a candidate either goes whole into the subgraph
                # leg, as a part of ka, or gives exactly one part of kb.
                elif 0 <= len(cand) - len(kb) <= sum(p in parts_a for p in cand):
                    mult = _coproduct_graph(cand, False).coeff_pair(ka, kb)
                else:
                    continue
                if mult:
                    coeff = Fraction(mult * aut_ab, _aut_key(cand))
                    out[cand] = out.get(cand, Fraction(0)) + coeff
    return GraphPoly(out)


def star_product(a: GraphPoly, b: GraphPoly, edge_bound: int | None = None) -> GraphPoly:
    """Dual product on the window of graphs with at most ``edge_bound`` edges.

    ``edge_bound`` defaults to the largest total degree of a support pair; a
    smaller bound that truncates required degrees raises WindowTooSmall.

    An argument with an empty vertex raises InvalidInput.  The scan draws no
    candidate with an empty vertex, and the identity a * b = a u b + b o a
    cannot hold there: with the default subgraph range no coproduct term is
    G (x) (G with its edges contracted), which pairs with inserting G into an
    empty vertex, so for instance loop1 * (empty vertex) would miss loop1.
    """
    vertex = canonical_key(EMPTY_VERTEX)
    if any(vertex in key for p in (a, b) for key in p._terms):
        raise InvalidInput("the star product is not defined on graphs with an empty vertex")
    pairs = [(ka, ca, kb, cb) for ka, ca in a.terms() for kb, cb in b.terms()]
    needed = max((grade_of(ka).n + grade_of(kb).n for ka, _, kb, _ in pairs), default=0)
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
