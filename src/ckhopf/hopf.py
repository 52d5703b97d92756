"""The commutative Hopf algebra of graphs and its dual star product.

The coproduct sends a connected graph to 1 (x) G + G (x) 1 plus the sum of
extract(gamma) (x) G/gamma over subgraphs gamma, and a monomial (see ``poly``)
to the product over its connected parts; so does the antipode.  By default
gamma ranges over the nonempty proper subsets of the internal edges;
``full_subgraph_term`` adds the full set, a variant kept only for diagnostics.
Each extracted and contracted piece is read for its monomial key through
``graphs._class_of_graph`` and dropped, so none enters the labelled
canonical memo.

The star product is the dual of the coproduct under the pairing weighted by
automorphism counts: |Aut G| <a * b, G> = |Aut a| |Aut b| times the
coefficient of a (x) b in the coproduct of G, a paired against the subgraph
leg and b against the quotient leg.  It is built without the coproduct, as
the product of the enveloping algebra of the insertion pre-Lie algebra
(Guin-Oudom): a * b = a u b + b o a for a connected graph a with internal
edges, extended to monomials by recursion on the parts of a.  A part without
internal edges is never a leg of a proper coproduct term, so it only
multiplies.  The verify harness checks the result against the coproduct.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce

from . import memo
from .errors import InvalidInput
from .graphs import (
    EMPTY_VERTEX,
    _class_of_graph,
    canonical_key,
    contract_subgraph,
    extract_subgraph,
)
from .poly import EMPTY_KEY, GraphPoly, GraphTensorPoly, Key, grade_of, graph_from_key, product
from .vector import Scalar, SparseVector, _frac, linear_combination
from . import insertion


def unit(r: Scalar = 1) -> GraphPoly:
    return GraphPoly({EMPTY_KEY: _frac(r)})


def counit(p: GraphPoly) -> Fraction:
    """Coefficient of the empty graph; kills every nonempty graph."""
    return p.coeff_key(EMPTY_KEY)


@memo.cache(memo.SUITE)
def _coproduct_connected(part: bytes, full: bool) -> GraphTensorPoly:
    """Coproduct of the connected graph with canonical key ``part``."""
    g = graph_from_key(part)
    internal = g.internal_edges()
    top = len(internal) if full else len(internal) - 1
    terms = Counter([(EMPTY_KEY, (part,)), ((part,), EMPTY_KEY)])
    terms.update(
        (_class_of_graph(extract_subgraph(g, gamma))[2], _class_of_graph(contract_subgraph(g, gamma))[2])
        for r in range(1, top + 1)
        for gamma in itertools.combinations(internal, r)
    )
    return GraphTensorPoly({pair: Fraction(m) for pair, m in terms.items()})


@memo.cache(memo.SUITE)
def _coproduct_graph(key: Key, full: bool) -> GraphTensorPoly:
    """Coproduct of one monomial: the product over its parts."""
    parts = [_coproduct_connected(part, full) for part in key]
    return reduce(GraphTensorPoly.mul, parts, GraphTensorPoly.unit())


def coproduct(p: GraphPoly, full_subgraph_term: bool = False) -> GraphTensorPoly:
    return linear_combination(
        ((_coproduct_graph(key, full_subgraph_term), c) for key, c in p._terms.items()),
        GraphTensorPoly(),
    )


def coproduct_on_left(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(coproduct (x) id) applied to an element of H (x) H."""
    return SparseVector(
        ((a, b, k2), c * c2)
        for (k1, k2), c in t._terms.items()
        for (a, b), c2 in _coproduct_graph(k1, full_subgraph_term)._terms.items()
    )


def coproduct_on_right(t: GraphTensorPoly, full_subgraph_term: bool = False) -> SparseVector:
    """(id (x) coproduct) applied to an element of H (x) H."""
    return SparseVector(
        ((k1, a, b), c * c2)
        for (k1, k2), c in t._terms.items()
        for (a, b), c2 in _coproduct_graph(k2, full_subgraph_term)._terms.items()
    )


@memo.cache(memo.SUITE)
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
    return linear_combination(
        ((_antipode_graph(key), c) for key, c in p._terms.items()), GraphPoly()
    )


def pairing(p: GraphPoly, q: GraphPoly) -> Fraction:
    """Bilinear extension of <G1, G2> = 1 if isomorphic else 0."""
    return p.dot(q)


# ---------------------------------------------------------------------------
# Star product


def _inert(part: bytes) -> bool:
    """A part without internal edges: a dot graph or the free propagator.  It
    is never a leg of a proper coproduct term, so it is neither grafted nor
    grafted into."""
    return grade_of((part,)).m == 0


def _grafted(p: GraphPoly, a: bytes) -> GraphPoly:
    """p <- a: the connected part a grafted into one vertex of one part of p
    that has an internal edge; the inert parts of p ride along untouched."""
    guest = GraphPoly({(a,): Fraction(1)})
    summands = []
    for key, c in p._terms.items():
        inert = tuple(q for q in key if _inert(q))
        host = tuple(q for q in key if not _inert(q))
        grafts = insertion.insertion_product(GraphPoly({host: Fraction(1)}), guest)
        summands.append((product(GraphPoly({inert: Fraction(1)}), grafts), c))
    return linear_combination(summands, GraphPoly())


@memo.cache(memo.SUITE)
def _star_basis(ka: Key, kb: Key) -> GraphPoly:
    """Star product of two basis monomials, by recursion on the parts of ka.

    With a the first part of ka and A the others: an inert a only multiplies,
    (a A) * kb = a (A * kb).  Otherwise a * y = a y + y <- a, so
    (a A) * kb = a * (A * kb) - (A <- a) * kb, and A <- a has one part fewer
    than ka.
    """
    if not ka:
        return GraphPoly({kb: Fraction(1)})
    a, rest = ka[0], ka[1:]
    tail = _star_basis(rest, kb)
    lead = product(GraphPoly({(a,): Fraction(1)}), tail)
    if _inert(a):
        return lead
    fewer = _grafted(GraphPoly({rest: Fraction(1)}), a)
    correction = ((_star_basis(y, kb), -c) for y, c in fewer._terms.items())
    return linear_combination([(lead, 1), (_grafted(tail, a), 1), *correction], GraphPoly())


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
        (
            (_star_basis(ka, kb), ca * cb)
            for ka, ca in a._terms.items()
            for kb, cb in b._terms.items()
        ),
        GraphPoly(),
    )


def lie_bracket(a: GraphPoly, b: GraphPoly) -> GraphPoly:
    """[a, b] = a o b - b o a on connected graphs with internal edges.

    On connected graphs the commutator a * b - b * a of the star product is
    [b, a].  The harness's commutator check compares the two where the star
    product is itself checked against the coproduct, so it is the check that
    sees a wrong sign or scale here; the Jacobi identity holds for any
    multiple of the bracket.
    """
    return insertion.insertion_product(a, b) - insertion.insertion_product(b, a)
