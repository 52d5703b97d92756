"""The commutative Hopf algebra of graphs and its dual star product.

The coproduct sends a connected graph to 1 (x) G + G (x) 1 plus the sum of
extract(gamma) (x) G/gamma over subgraphs gamma, and a monomial (see ``poly``)
to the product over its connected parts; so does the antipode.  By default
gamma ranges over the nonempty proper subsets of the internal edges;
``full_subgraph_term`` adds the full set, a variant kept only for diagnostics.

The star product is the dual of the coproduct under the pairing weighted by
automorphism counts: |Aut G| <a * b, G> = sum over coproduct terms of
|Aut| -weighted matches of a against the subgraph leg and b against the
quotient leg.  Its candidates G, and their coefficients, are counted from the
coproducts of connected graphs, as the coproduct is multiplicative.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, prod

from .errors import InvalidInput
from .graphs import (
    EMPTY_VERTEX,
    automorphism_count,
    canonical_key,
    connected_by_grade,
    contract_subgraph,
    extract_subgraph,
    monomial_key,
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
    sym,
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
    return SparseVector(
        ((a, b, k2), c * c2)
        for (k1, k2), c in t.terms()
        for (a, b), c2 in _coproduct_graph(k1, full_subgraph_term).terms()
    )


def coproduct_on_right(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(id (x) coproduct) applied to an element of H (x) H."""
    return SparseVector(
        ((k1, a, b), c * c2)
        for (k1, k2), c in t.terms()
        for (a, b), c2 in _coproduct_graph(k2, full_subgraph_term).terms()
    )


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
    return p.dot(q)


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
def _cofactors(m: int, k: int, size: int, legs: int) -> dict[tuple[Key, Key], list]:
    """(subgraph key, quotient key) -> [(G, multiplicity)] over the proper
    subgraphs with ``size`` internal edges and ``legs`` dangling half-edges of
    the connected classes G of grade (m + k, m, k).  Every part of such a
    subgraph has a leg, so ``legs == 0`` has none; counting legs prunes early."""
    index: dict[tuple[Key, Key], list] = {}
    if legs == 0 or not 0 < size < m:
        return index
    for g in connected_by_grade(m, k):
        vert_of = g.vertex_of()
        counts: Counter = Counter()
        for gamma in itertools.combinations(g.internal_edges(), size):
            touched = {vert_of[h] for e in gamma for h in e}
            if sum(len(g.vertices[vi]) for vi in touched) - 2 * size == legs:
                extracted, quotient = extract_subgraph(g, gamma), contract_subgraph(g, gamma)
                counts[monomial_key(extracted), monomial_key(quotient)] += 1
        for pair, mult in counts.items():
            index.setdefault(pair, []).append((canonical_key(g), mult))
    return index


@lru_cache(maxsize=None)
def _star_basis(ka: Key, kb: Key) -> GraphPoly:
    """Star product of two basis monomials, read off the coproduct.

    A term ka (x) kb of the coproduct of a monomial G is a product of one term
    per part of G, and the quotient of a connected graph is connected.  So G
    is some parts of ka taken whole times, for each part b of kb, one
    connected G_b: b itself when no part of ka is sent to b, else a graph with
    gamma (x) b a proper term of its coproduct, gamma being the parts sent.

    Let ways(G) sum, over the assignments of parts and picks of G_b that build
    G, the product over b of the multiplicity of gamma (x) b in G_b times
    Sym(gamma).  Counting in two ways the pairs (a term of the coproduct of
    each part of G, a type-preserving matching of the left parts to ka and of
    the right parts to kb), the coefficient of ka (x) kb in the coproduct of G
    is ways(G) Sym(G) / (Sym(ka) Sym(kb)).
    """
    ways: Counter = Counter()
    for assign in itertools.product(range(len(kb) + 1), repeat=len(ka)):
        sent = [tuple(p for p, j in zip(ka, assign) if j == i) for i in range(len(kb) + 1)]
        choices = []
        for gamma, b in zip(sent, kb):
            gr, grb = grade_of(gamma), grade_of((b,))
            index = _cofactors(gr.m + grb.m, grb.k, gr.m, gr.k)
            choices.append(index.get((gamma, (b,)), []) if gamma else [(b, 1)])
        weight = prod(map(sym, sent[:-1]))
        for picks in itertools.product(*choices):
            cand = tuple(sorted(sent[-1] + tuple(g for g, _ in picks)))
            ways[cand] += weight * prod(mult for _, mult in picks)
    scale = Fraction(_aut_key(ka) * _aut_key(kb), sym(ka) * sym(kb))
    return GraphPoly({g: scale * w * sym(g) / _aut_key(g) for g, w in ways.items()})


def star_product(a: GraphPoly, b: GraphPoly) -> GraphPoly:
    """The product dual to the coproduct, with every term; no term has more
    edges than the pair of arguments it comes from.

    An argument with an empty vertex raises InvalidInput.  The identity
    a * b = a u b + b o a cannot hold there: with the default subgraph range
    no coproduct term is G (x) (G with its edges contracted), which pairs with
    inserting G into an empty vertex, so for instance loop1 * (empty vertex)
    would miss loop1.
    """
    vertex = canonical_key(EMPTY_VERTEX)
    if any(vertex in key for p in (a, b) for key in p._terms):
        raise InvalidInput("the star product is not defined on graphs with an empty vertex")
    return linear_combination(
        ((_star_basis(ka, kb), ca * cb) for ka, ca in a.terms() for kb, cb in b.terms()),
        GraphPoly(),
    )


def lie_bracket(a: GraphPoly, b: GraphPoly) -> GraphPoly:
    """[a, b] = a o b - b o a on connected graphs with internal edges.

    The insertion route is used directly; the harness checks its agreement
    with the star-product commutator.
    """
    return insertion.insertion_product(a, b) - insertion.insertion_product(b, a)
